// cpxcheck fixture — solve-alloc rule, CLEAN case for the SIMPIC step
// entry: `DistributedPic::step` ends in `Pic::step` but is not an entry,
// because its particle migration appends variable-size batches.

#include <vector>

namespace fix::simpic {

class DistributedPic {
 public:
  void step();

 private:
  std::vector<double> migrants_;
};

void DistributedPic::step() { migrants_.push_back(1.0); }

}  // namespace fix::simpic
