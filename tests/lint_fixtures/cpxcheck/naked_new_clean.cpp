// cpxcheck fixture — naked-new rule, CLEAN cases: a new in a comment or a
// string, deleted special members, make_unique, and an audited allow.

#include <memory>
#include <new>

namespace fix {

struct Pinned {
  Pinned() = default;
  Pinned(const Pinned&) = delete;
  Pinned& operator=(const Pinned&) = delete;
};

const char* kHelp = "never write new double[n] or delete p";

std::unique_ptr<double> owned() { return std::make_unique<double>(1.0); }

void* raw_storage(std::size_t bytes) {
  // The allocator layer is the sanctioned home of raw storage.
  // cpx-lint: allow(naked-new)
  return ::operator new(bytes);
}

}  // namespace fix
