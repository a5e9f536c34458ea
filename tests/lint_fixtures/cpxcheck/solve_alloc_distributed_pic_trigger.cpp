// cpxcheck fixture — solve-alloc rule, TRIGGER case for the distributed
// SIMPIC step entry: `simpic::DistributedPic::step` is a solve entry, so
// an unmarked migration append is flagged.

#include <vector>

namespace fix::simpic {

class DistributedPic {
 public:
  void step();

 private:
  std::vector<double> migrants_;
};

void DistributedPic::step() {
  migrants_.push_back(1.0);  // EXPECT solve-alloc (DistributedPic::step)
}

}  // namespace fix::simpic
