// cpxcheck fixture — raw-comm rule, CLEAN cases: own-rank access, member
// access inside the index, other arrays, and an audited allow.

namespace fix {

struct Local {
  std::vector<std::vector<double>> ranks_;
  std::vector<double> halo_ranks_;

  double own(int r, const Msg* m) {
    double s = ranks_[r][0] + ranks_[m->rank][0];
    s += halo_ranks_[r + 1];
    // Reference copy for the transport test only.
    // cpx-lint: allow(raw-comm)
    ranks_[r + 1] = ranks_[r];
    return s;
  }
};

}  // namespace fix
