#pragma once
// Shared-memory execution layer (docs/parallelism.md).
//
// A small dependency-free thread pool exposing a static-partitioned
// parallel_for. The work decomposition is deterministic: a range is split
// into chunks of `grain` iterations purely from (begin, end, grain),
// independent of the thread count, and chunks are handed to whichever
// worker is free. Kernels that write disjoint outputs per chunk are
// therefore bitwise identical at any thread count; reductions stay
// deterministic by accumulating per-chunk partials and combining them in
// chunk order (parallel_reduce does this for scalars).
//
// The pool is process-global and sized, in order of precedence, from
// set_max_threads(), the CPX_THREADS environment variable, and
// std::thread::hardware_concurrency(). With a width of 1 every call runs
// inline on the caller with zero synchronisation. Nested parallel calls
// from inside a chunk run inline on the calling worker's lane.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace cpx::support {

/// Non-owning callable view (two raw pointers), used instead of
/// std::function on the dispatch path so that entering a parallel region
/// never heap-allocates — a requirement of the allocation-free solve path
/// (docs/parallelism.md). The referenced callable must outlive every
/// invocation; the parallel_* entry points block until all chunks are
/// done, so passing a stack lambda is safe.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() = default;
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function
  FunctionRef(F&& f)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  explicit operator bool() const { return call_ != nullptr; }
  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

/// Number of execution lanes (worker threads + the calling thread).
int max_threads();

/// Resizes the pool to `n` >= 1 lanes. Must not be called from inside a
/// parallel region. n == 1 disables worker threads entirely.
void set_max_threads(int n);

/// Parses a thread-count string ("4"). Returns 0 for missing/invalid/
/// non-positive input (callers fall back to hardware concurrency).
int parse_thread_count(const char* text);

/// Number of chunks the deterministic decomposition produces for
/// [begin, end) with the given grain (grain is clamped to >= 1).
std::int64_t num_chunks(std::int64_t begin, std::int64_t end,
                        std::int64_t grain);

/// Half-open iteration range of chunk `chunk` of the decomposition.
std::pair<std::int64_t, std::int64_t> chunk_bounds(std::int64_t begin,
                                                   std::int64_t end,
                                                   std::int64_t grain,
                                                   std::int64_t chunk);

/// One cache line per slot: the element type of every per-lane scratch and
/// per-chunk output array. Unpadded, neighbouring slots (vector headers,
/// counters) share a line, and each write on one lane invalidates the line
/// another lane is reading — the false sharing that made the threaded
/// SpGEMM slower than serial (docs/parallelism.md, "Per-lane scratch").
inline constexpr std::size_t kCacheLine = 64;
template <typename T>
struct alignas(kCacheLine) Padded {
  T value{};
};

/// fn(chunk, chunk_begin, chunk_end, lane): called once per chunk, on any
/// lane in [0, max_threads()). A lane executes at most one chunk at a time,
/// so per-lane scratch needs no locking. Exceptions thrown by fn are
/// rethrown (first one wins) on the calling thread.
using ChunkFn = FunctionRef<void(std::int64_t chunk, std::int64_t begin,
                                 std::int64_t end, int lane)>;
void parallel_chunks(std::int64_t begin, std::int64_t end, std::int64_t grain,
                     ChunkFn fn);

/// fn(chunk_begin, chunk_end): chunk-id-free convenience wrapper for
/// kernels whose chunks write disjoint outputs.
using RangeFn = FunctionRef<void(std::int64_t begin, std::int64_t end)>;
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  RangeFn fn);

/// init + sum of fn(chunk_begin, chunk_end) over all chunks, combined in
/// chunk order — deterministic for a fixed grain at any thread count.
/// Partials live on the caller's stack up to 512 chunks (no allocation).
using ReduceFn = FunctionRef<double(std::int64_t begin, std::int64_t end)>;
double parallel_reduce(std::int64_t begin, std::int64_t end,
                       std::int64_t grain, double init, ReduceFn fn);

}  // namespace cpx::support
