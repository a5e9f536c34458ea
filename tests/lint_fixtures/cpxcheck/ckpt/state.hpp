#pragma once
// cpxcheck fixture — ckpt rule: member enumeration comes from the
// class definition (any member, any naming style, brace or equals init,
// annotation macros), not from a `name_` regex.

#include <vector>

namespace fix {

class Saved {
 public:
  void serialize(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

 private:
  double ok_ = 0.0;
  double missing_ = 0.0;  // EXPECT ckpt: not in either body
  std::vector<double> scratch_;  // cpx-lint: allow(ckpt) — sized on first use, rebuilt after restore
  static constexpr int kVersion = 3;  // static: not per-instance state
};

// Implements the pair but is not registered: EXPECT ckpt here.
class Unregistered {
 public:
  void serialize(ckpt::Writer& w) const { w.write(x_); }
  void restore(ckpt::Reader& r) { r.read(x_); }

 private:
  double x_ = 0.0;
};

}  // namespace fix
