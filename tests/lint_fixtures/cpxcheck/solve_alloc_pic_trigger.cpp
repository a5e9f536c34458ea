// cpxcheck fixture — solve-alloc rule, TRIGGER case for the SIMPIC step
// entry: `simpic::Pic::step` is a solve entry, so an allocation in a stage
// it calls is flagged.

#include <vector>

namespace fix::simpic {

class Pic {
 public:
  void step();

 private:
  void solve_field();
  std::vector<double> phi_;
};

void Pic::solve_field() {
  phi_.assign(8, 0.0);  // EXPECT solve-alloc (reachable from Pic::step)
}

void Pic::step() { solve_field(); }

}  // namespace fix::simpic
