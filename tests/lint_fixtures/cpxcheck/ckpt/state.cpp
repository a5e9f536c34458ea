// cpxcheck fixture — ckpt rule: out-of-line serialize/restore
// bodies. `ok_` is threaded through both; `missing_` through neither.

#include "state.hpp"

namespace fix {

void Saved::serialize(ckpt::Writer& w) const {
  w.write(ok_);
}

void Saved::restore(ckpt::Reader& r) {
  r.read(ok_);
}

}  // namespace fix
