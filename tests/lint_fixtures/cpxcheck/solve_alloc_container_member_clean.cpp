// cpxcheck fixture — solve-alloc rule, CLEAN case. `begin()` on a
// receiver of unknown type is a standard-container call: it must not
// resolve to the one analysed method that shares the name.

#include <algorithm>
#include <vector>

namespace fix::container_member {

class Writer {
 public:
  void begin();

 private:
  std::vector<char> buf_;
};

// Allocates, but no solve entry calls it.
void Writer::begin() { buf_.push_back('C'); }

struct Part {
  std::vector<double> residual;
};

class DistributedSolver {
 public:
  void step();

 private:
  std::vector<Part> parts_;
};

void DistributedSolver::step() {
  for (Part& ps : parts_) {
    std::fill(ps.residual.begin(), ps.residual.end(), 0.0);
  }
}

}  // namespace fix::container_member
