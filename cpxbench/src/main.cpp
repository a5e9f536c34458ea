// cpxbench: drives one benchmark workload through the mini-app's public
// APIs and reports it on stdout in the line protocol of bench.hpp.
// cpxbench/run.py builds this program, runs it under a watchdog and turns
// the records into the benchmark's result; see cpxbench/README.md.
//
//   cpxbench --workload=<name> [--seed=N] [--seconds=S] [--trace=0|1]
//            [--pool-width=N] [--grid=N] [--spans=path]

#include <sched.h>

#include <algorithm>
#include <bit>
#include <cstdarg>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"

namespace cpxbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void emit(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void Digest::add_u64(std::uint64_t v) {
  // splitmix64 finaliser over the running state.
  std::uint64_t z = h_ ^ (v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  h_ = z ^ (z >> 31);
}

void Digest::add(double v) { add_u64(std::bit_cast<std::uint64_t>(v)); }

void Digest::add(const double* values, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    add(values[i]);
  }
}

// --- Tracer ---------------------------------------------------------------

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::intern(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<int>(i);
    }
  }
  names_.emplace_back(name);
  return static_cast<int>(names_.size() - 1);
}

int Tracer::begin(const char* name) {
  Span s;
  s.name = intern(name);
  s.parent = open_;
  s.start = now_s();
  spans_.push_back(s);
  open_ = static_cast<int>(spans_.size() - 1);
  return open_;
}

void Tracer::end(int span) {
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end = now_s();
  open_ = s.parent;
}

double Tracer::self_seconds(const std::string& name) const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (names_[static_cast<std::size_t>(spans_[i].name)] == name) {
      total += spans_[i].end - spans_[i].start - covered[i];
    }
  }
  return total;
}

std::int64_t Tracer::calls(const std::string& name) const {
  return std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) {
    return names_[static_cast<std::size_t>(s.name)] == name;
  });
}

double Tracer::self_per_call(const std::string& name) const {
  const auto n = calls(name);
  return n > 0 ? self_seconds(name) / static_cast<double>(n) : 0.0;
}

void Tracer::write_chrome(const std::string& path) const {
  if (path.empty()) {
    return;
  }
  std::ofstream os(path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\""
       << names_[static_cast<std::size_t>(s.name)]
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":"
       << (s.start - t0) * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

// --- Timed phase ----------------------------------------------------------

namespace {

/// Seconds the timed thread stays on one core before CoreRotation moves it.
constexpr double kRotateSeconds = 0.5;

/// On a host shared with other tenants a core's speed depends on what they
/// run on it, and that changes over seconds to minutes, core by core. A
/// thread the scheduler leaves on one core would time that core alone, so
/// the timed thread visits every core the process may use in turn. A wider
/// pool spreads its lanes over the cores anyway and is left alone. The
/// constructor saves the thread's affinity and the destructor restores it,
/// so pool workers created later are not confined.
class CoreRotation {
 public:
  CoreRotation() {
    if (cpx::support::max_threads() > 1 ||
        sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        cores_.push_back(cpu);
      }
    }
  }
  ~CoreRotation() {
    if (moved_) {
      sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  /// Moves the calling thread to the next core.
  void next() {
    if (cores_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[next_++ % cores_.size()], &one);
    moved_ = sched_setaffinity(0, sizeof(one), &one) == 0 || moved_;
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cores_;
  std::size_t next_ = 0;
  bool moved_ = false;
};

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void set_traced(bool on) {
  tracer().set_on(on);
  cpx::support::metrics::set_enabled(on);
}

}  // namespace

TimedResult run_timed(const Context& ctx, const TimedLoop& loop,
                      const std::function<bool(int)>& step,
                      const std::function<void(int, bool)>& after) {
  TimedResult r;
  const int block = std::max(loop.trace_block, 1);
  CoreRotation cores;
  double moved_at = -kRotateSeconds;
  const double start = now_s();
  for (int i = 0;; ++i) {
    const bool time_up = now_s() - start >= ctx.seconds && i >= loop.min_steps;
    // Traced runs stop only after a whole untraced+traced block pair.
    if (time_up && (!ctx.trace || i % (2 * block) == 0)) {
      break;
    }
    if (now_s() - moved_at >= kRotateSeconds) {
      cores.next();
      moved_at = now_s();
    }
    const bool traced = ctx.trace && (i / block) % 2 == 1;
    set_traced(traced);
    const double t0 = now_s();
    bool ok = false;
    {
      ScopedSpan span("step");
      ok = step(i);
    }
    const double ms = (now_s() - t0) * 1e3;
    cpx::support::metrics::set_enabled(false);
    (traced ? r.traced_ms : r.untraced_ms).push_back(ms);
    r.traced_steps += traced ? 1 : 0;
    emit("step %.6f %d %d", ms, ok ? 1 : 0, traced ? 1 : 0);
    after(i, traced);
    r.steps = i + 1;
  }
  set_traced(false);
  r.wall_s = now_s() - start;
  emit("timed %.6f %d", r.wall_s, r.steps);
  // The workload's own peak, before the output checks build their
  // reference copies.
  emit("info timed_peak_rss_kb %ld", peak_rss_kb());
  return r;
}

void run_setups(const Context& ctx, int reps,
                const std::function<void(int)>& setup) {
  tracer().set_on(ctx.trace);
  CoreRotation cores;
  for (int rep = 0; rep < reps; ++rep) {
    cores.next();
    const double t0 = now_s();
    setup(rep);
    emit("setup %.6f", now_s() - t0);
  }
  tracer().set_on(false);
}

void emit_trace_summary(const TimedResult& r) {
  emit("layer support.pool_width %d", cpx::support::max_threads());
  emit("layer bench.step_self_s %.9f",
       tracer().self_seconds("step") / r.traced_steps);
  const double untraced = median(r.untraced_ms);
  const double traced = median(r.traced_ms);
  if (untraced > 0.0 && traced > 0.0) {
    emit("layer trace.overhead_ratio %.6f", traced / untraced);
  }
}

void emit_kernel_counters(double traced_steps) {
  const auto snap = cpx::support::metrics::snapshot();
  auto ratio = [&](const char* metric, const char* flops, const char* bytes) {
    const auto b = snap.counter(bytes);
    if (b > 0) {
      emit("layer %s %.9f", metric,
           static_cast<double>(snap.counter(flops)) / static_cast<double>(b));
    }
  };
  const auto spmv_bytes = snap.counter("sparse/spmv_bytes");
  if (spmv_bytes > 0) {
    emit("layer sparse.spmv_bytes_computed %.3f",
         static_cast<double>(spmv_bytes) / traced_steps);
  }
  ratio("kernel.spmv_flops_per_byte", "sparse/spmv_flops", "sparse/spmv_bytes");
  ratio("kernel.blas1_flops_per_byte", "blas1/flops", "blas1/bytes");
  ratio("kernel.push_flops_per_byte", "simpic/push_flops", "simpic/push_bytes");
  ratio("kernel.deposit_flops_per_byte", "simpic/deposit_flops",
        "simpic/deposit_bytes");
}

void apply_pool_width(const Context& ctx, int fallback) {
  const int width = ctx.pool_width > 0 ? ctx.pool_width : fallback;
  if (width > 0) {
    cpx::support::set_max_threads(width);
  }
  emit("info pool_width %d", cpx::support::max_threads());
}

long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace cpxbench

namespace {

std::string arg_value(int argc, char** argv, const std::string& key,
                      const std::string& fallback) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(prefix, 0) == 0) {
      return a.substr(prefix.size());
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpxbench;
  Context ctx;
  const std::string workload = arg_value(argc, argv, "workload", "");
  ctx.seed = std::stoull(arg_value(argc, argv, "seed", "1"));
  ctx.seconds = std::stod(arg_value(argc, argv, "seconds", "10"));
  ctx.trace = arg_value(argc, argv, "trace", "0") == "1";
  ctx.spans_path = arg_value(argc, argv, "spans", "");
  ctx.pool_width = std::stoi(arg_value(argc, argv, "pool-width", "0"));
  ctx.grid = std::stoi(arg_value(argc, argv, "grid", "0"));
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  emit("info compiler %s", __VERSION__);
  emit("info cores %d", hw);
  emit("info simd_width %d", cpx::support::simd::active_width());

  try {
    if (workload == "engine-40k") {
      run_engine(ctx);
    } else if (workload == "pressure-resetup") {
      run_pressure(ctx);
    } else if (workload == "coupled-rows") {
      run_coupled_rows(ctx);
    } else if (workload == "pic-two-stream") {
      run_pic(ctx);
    } else {
      std::cerr << "cpxbench: unknown workload '" << workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    emit("error %s", e.what());
    return 1;
  }
  tracer().write_chrome(ctx.spans_path);
  emit("info peak_rss_kb %ld", peak_rss_kb());
  emit("done");
  return 0;
}
