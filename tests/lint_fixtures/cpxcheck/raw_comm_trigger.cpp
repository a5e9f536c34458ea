// cpxcheck fixture — raw-comm rule, TRIGGER cases: per-rank state indexed
// by a neighbour expression outside src/comm/.

namespace fix {

struct Ring {
  std::vector<std::vector<double>> ranks_;
  std::vector<std::vector<double>> parts_;

  void shift(int r, int partner, int to) {
    ranks_[r + 1] = ranks_[r];  // EXPECT raw-comm
    parts_[partner] = parts_[r];  // EXPECT raw-comm
    parts_[to].swap(parts_[r]);  // EXPECT raw-comm
    ranks_[neighbor_of(r)][0] = 0.0;  // EXPECT raw-comm
  }
};

}  // namespace fix
