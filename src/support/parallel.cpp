#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace cpx::support {
namespace {

// Lane of the thread currently executing pool work (0 = the calling
// thread), and whether it is inside a parallel region. Nested parallel
// calls run inline on the caller's lane so per-lane scratch stays valid.
thread_local int tl_lane = 0;
thread_local bool tl_in_region = false;

/// Per-lane execution-time counter name, built once per thread: the lane a
/// worker serves never changes, and per-lane totals are what make pool
/// imbalance visible in the merged metrics (docs/observability.md).
const std::string& lane_exec_counter_name(int lane) {
  thread_local std::string name;
  if (name.empty()) {
    name = "pool/exec_ns/lane" + std::to_string(lane);
  }
  return name;
}

class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int width() const { return width_.load(std::memory_order_relaxed); }

  void resize(int n) {
    CPX_REQUIRE(n >= 1, "set_max_threads: need >= 1 thread, got " << n);
    CPX_REQUIRE(!tl_in_region,
                "set_max_threads: cannot resize inside a parallel region");
    MutexLock lock(config_mutex_);
    if (n == width_.load(std::memory_order_relaxed)) {
      return;
    }
    stop_workers();
    width_.store(n, std::memory_order_relaxed);
    start_workers();
  }

  using JobFn = FunctionRef<void(std::int64_t, int)>;

  /// Runs fn(chunk, lane) for every chunk in [0, nchunks). The calling
  /// thread participates as lane 0; chunks are claimed dynamically but the
  /// chunk set itself is fixed by the caller, so results that depend only
  /// on the chunk decomposition are thread-count independent. Dispatch is
  /// allocation-free when metrics are off: the job slot holds a non-owning
  /// FunctionRef, valid because run() blocks until every chunk completes.
  void run(std::int64_t nchunks, JobFn fn) {
    if (nchunks <= 0) {
      return;
    }
    if (tl_in_region) {  // nested: inline on the current lane
      for (std::int64_t c = 0; c < nchunks; ++c) {
        fn(c, tl_lane);
      }
      return;
    }
    MutexLock config(config_mutex_);
    if (workers_.empty() || nchunks == 1) {
      config.unlock();
      tl_in_region = true;
      struct Reset {
        ~Reset() { tl_in_region = false; }
      } reset;
      tl_lane = 0;
      for (std::int64_t c = 0; c < nchunks; ++c) {
        fn(c, 0);
      }
      return;
    }
    // Per-task queue wait (submit -> claim) and per-lane execution time.
    // Wrapped only when metrics are on: the wrapper costs two clock reads
    // per chunk. The serial/inline paths above stay unwrapped — there is
    // no queue and the caller's own region timer already covers them. The
    // wrapper lambda lives on this frame, which outlives the job.
    const bool timed_run = metrics::enabled();
    const auto submit = timed_run ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
    auto timed = [&fn, submit](std::int64_t chunk, int lane) {
      const auto claim = std::chrono::steady_clock::now();
      fn(chunk, lane);
      const auto done = std::chrono::steady_clock::now();
      const auto ns = [](auto a, auto b) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count();
      };
      metrics::counter_add("pool/tasks", 1);
      metrics::counter_add("pool/queue_wait_ns", ns(submit, claim));
      metrics::counter_add(lane_exec_counter_name(lane), ns(claim, done));
    };
    const JobFn run_fn = timed_run ? JobFn(timed) : fn;
    CPX_REQUIRE(nchunks <= kMaxChunks,
                "parallel region of " << nchunks << " chunks is too large");
    {
      MutexLock lock(job_mutex_);
      job_fn_ = run_fn;
      job_pending_.store(nchunks, std::memory_order_relaxed);
      job_error_ = nullptr;
      // Release: workers claiming chunks via job_claim_ see the fields above.
      job_claim_.store(static_cast<std::uint64_t>(nchunks) << 32,
                       std::memory_order_release);
      ++generation_;
    }
    job_cv_.notify_all();
    tl_in_region = true;
    tl_lane = 0;
    work();
    tl_in_region = false;
    std::exception_ptr error;
    {
      MutexLock lock(job_mutex_);
      while (job_pending_.load(std::memory_order_acquire) != 0) {
        done_cv_.wait(lock.native());
      }
      error = job_error_;
      job_error_ = nullptr;
    }
    if (error) {
      std::rethrow_exception(error);
    }
  }

 private:
  ThreadPool() {
    int n = parse_thread_count(std::getenv("CPX_THREADS"));
    if (n <= 0) {
      n = static_cast<int>(std::thread::hardware_concurrency());
    }
    width_.store(std::max(n, 1), std::memory_order_relaxed);
    MutexLock lock(config_mutex_);
    start_workers();
  }

  ~ThreadPool() {
    MutexLock lock(config_mutex_);
    stop_workers();
  }

  void start_workers() CPX_REQUIRES(config_mutex_) {
    const int n = width_.load(std::memory_order_relaxed);
    workers_.reserve(static_cast<std::size_t>(n > 1 ? n - 1 : 0));
    for (int lane = 1; lane < n; ++lane) {
      workers_.emplace_back([this, lane] { worker_main(lane); });
    }
  }

  void stop_workers() CPX_REQUIRES(config_mutex_) {
    {
      MutexLock lock(job_mutex_);
      stop_ = true;
      ++generation_;
    }
    job_cv_.notify_all();
    for (std::thread& t : workers_) {
      t.join();
    }
    workers_.clear();
    MutexLock lock(job_mutex_);
    stop_ = false;
  }

  void worker_main(int lane) {
    tl_lane = lane;
    tl_in_region = true;  // parallel calls from inside a chunk run inline
    std::uint64_t seen = 0;
    while (true) {
      {
        MutexLock lock(job_mutex_);
        while (!stop_ && generation_ == seen) {
          job_cv_.wait(lock.native());
        }
        if (stop_) {
          return;
        }
        seen = generation_;
      }
      work();
    }
  }

  // The chunk loop reads job_fn_ without job_mutex_: run() publishes it
  // with job_claim_.store(release) and every claim is a fetch_add(acquire)
  // on job_claim_, so the fields are visible before any chunk executes — a
  // release/acquire handoff the capability analysis cannot express
  // (TSan-validated instead; docs/parallelism.md).
  //
  // The chunk index and the job's chunk count must come from one atomic
  // read: a worker still leaving the previous job that read the count
  // separately could see the next job's count and run one of its chunks
  // twice (a double job_pending_ decrement, after which run() never returns).
  void work() CPX_NO_THREAD_SAFETY_ANALYSIS {
    while (true) {
      const std::uint64_t claim =
          job_claim_.fetch_add(1, std::memory_order_acq_rel);
      const auto c = static_cast<std::int64_t>(claim & 0xffffffffU);
      if (c >= static_cast<std::int64_t>(claim >> 32)) {
        return;
      }
      try {
        job_fn_(c, tl_lane);
      } catch (...) {
        MutexLock lock(job_mutex_);
        if (!job_error_) {
          job_error_ = std::current_exception();
        }
      }
      if (job_pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        MutexLock lock(job_mutex_);
        done_cv_.notify_all();
      }
    }
  }

  Mutex config_mutex_;  ///< serialises resize against regions
  std::atomic<int> width_{1};
  std::vector<std::thread> workers_ CPX_GUARDED_BY(config_mutex_);

  /// Job handoff lock. run() holds config_mutex_ for the whole region, so
  /// the order is always config -> job; declaring it makes a reversed
  /// acquisition a -Wthread-safety build failure.
  Mutex job_mutex_ CPX_ACQUIRED_AFTER(config_mutex_);
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ CPX_GUARDED_BY(job_mutex_) = 0;
  bool stop_ CPX_GUARDED_BY(job_mutex_) = false;
  // job_fn_ is written under job_mutex_ but read lock-free in work() under
  // the job_claim_ release/acquire protocol documented there.
  JobFn job_fn_ CPX_GUARDED_BY(job_mutex_);
  /// (chunk count << 32) | next unclaimed chunk. Claims past the count
  /// (at most one per lane per job) stay below 2^32 for kMaxChunks chunks.
  static constexpr std::int64_t kMaxChunks = std::int64_t{1} << 31;
  std::atomic<std::uint64_t> job_claim_{0};
  std::atomic<std::int64_t> job_pending_{0};
  std::exception_ptr job_error_ CPX_GUARDED_BY(job_mutex_);
};

}  // namespace

int max_threads() { return ThreadPool::instance().width(); }

void set_max_threads(int n) { ThreadPool::instance().resize(n); }

int parse_thread_count(const char* text) {
  if (text == nullptr || *text == '\0') {
    return 0;
  }
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == nullptr || *end != '\0' || v < 1 || v > 65536) {
    return 0;
  }
  return static_cast<int>(v);
}

std::int64_t num_chunks(std::int64_t begin, std::int64_t end,
                        std::int64_t grain) {
  if (end <= begin) {
    return 0;
  }
  const std::int64_t g = std::max<std::int64_t>(grain, 1);
  return (end - begin + g - 1) / g;
}

std::pair<std::int64_t, std::int64_t> chunk_bounds(std::int64_t begin,
                                                   std::int64_t end,
                                                   std::int64_t grain,
                                                   std::int64_t chunk) {
  const std::int64_t g = std::max<std::int64_t>(grain, 1);
  const std::int64_t lo = begin + chunk * g;
  return {lo, std::min(end, lo + g)};
}

void parallel_chunks(std::int64_t begin, std::int64_t end, std::int64_t grain,
                     ChunkFn fn) {
  const std::int64_t n = num_chunks(begin, end, grain);
  if (n == 0) {
    return;
  }
  ThreadPool::instance().run(n, [&](std::int64_t chunk, int lane) {
    const auto [lo, hi] = chunk_bounds(begin, end, grain, chunk);
    fn(chunk, lo, hi, lane);
  });
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  RangeFn fn) {
  parallel_chunks(begin, end, grain,
                  [&](std::int64_t, std::int64_t lo, std::int64_t hi, int) {
                    fn(lo, hi);
                  });
}

double parallel_reduce(std::int64_t begin, std::int64_t end,
                       std::int64_t grain, double init, ReduceFn fn) {
  const std::int64_t n = num_chunks(begin, end, grain);
  // Partials stay on this frame for the common case so steady-state
  // reductions (the BLAS-1 layer) allocate nothing. Chunks write disjoint
  // slots and the pool joins before the combine, so this is race-free.
  //
  // Ranges wider than kStackChunks used to heap-allocate a fresh partial
  // vector on EVERY call — an allocation on the solve path for any vector
  // longer than 512 * grain, hidden from the old per-file lint because it
  // lived here and not in a listed solve-path kernel (cpxcheck rule
  // `solve-alloc` walks the call graph instead and flagged it). The
  // buffer is now a persistent per-thread scratch: it grows to the
  // largest chunk count seen, then every later call is allocation-free.
  // A same-thread re-entrant reduce (an inner reduce issued from inside
  // an outer chunk body) would alias the scratch, so that rare cold path
  // falls back to a local heap buffer.
  constexpr std::int64_t kStackChunks = 512;
  double stack_partial[kStackChunks];
  std::vector<double> local_partial;
  double* partial = stack_partial;
  thread_local std::vector<double> tl_partial;
  thread_local bool tl_partial_busy = false;
  struct ScratchGuard {
    bool owned = false;
    ~ScratchGuard() {
      if (owned) {
        tl_partial_busy = false;
      }
    }
  } guard;
  if (n > kStackChunks) {
    if (!tl_partial_busy) {
      tl_partial_busy = true;
      guard.owned = true;
      if (tl_partial.size() < static_cast<std::size_t>(n)) {
        // Amortised growth; steady-state calls never reach here.
        tl_partial.resize(static_cast<std::size_t>(n));  // cpx-lint: allow(solve-alloc)
      }
      partial = tl_partial.data();
    } else {
      // cpx-lint: allow(solve-alloc) — re-entrant cold path, see above.
      local_partial.assign(static_cast<std::size_t>(n), 0.0);
      partial = local_partial.data();
    }
  }
  parallel_chunks(begin, end, grain,
                  [&](std::int64_t chunk, std::int64_t lo, std::int64_t hi,
                      int) { partial[chunk] = fn(lo, hi); });
  double acc = init;
  for (std::int64_t i = 0; i < n; ++i) {  // fixed chunk order: deterministic
    acc += partial[i];
  }
  return acc;
}

}  // namespace cpx::support
