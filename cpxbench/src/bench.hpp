#pragma once
// Shared machinery of the cpxbench program: the run context, the line
// protocol it speaks to cpxbench/run.py, the in-memory span
// tracer, and the timed step loop every workload uses.
//
// Protocol (one record per line on stdout, flushed as it happens, so a run
// killed by the watchdog still reports everything it completed):
//   setup <seconds>                 one per set-up repetition
//   plan <seconds> <ok>             engine-40k: one per plan repetition
//   step <ms> <ok> <traced>         one per timed step
//   timed <wall_seconds> <steps>    end of the timed phase
//   check <name> <ok> <detail...>   output checks made after the timed phase
//   layer <name> <value>            per-layer metric (traced runs)
//   info <key> <value...>           fingerprint and context
//   done                            clean end of the workload

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace cpxbench {

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Pool width forced with --pool-width; 0 keeps each workload's own
  /// (the library default for pic-two-stream, width 1 for the others).
  int pool_width = 0;
  /// Grid edge of pressure-resetup forced with --grid; 0 keeps its own.
  int grid = 0;
  /// Path the traced run writes its spans to (Chrome trace-event JSON).
  std::string spans_path;
};

double now_s();

/// Emits one protocol record (printf-style) and flushes stdout.
void emit(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Order-sensitive 64-bit digest of the bit patterns of doubles.
class Digest {
 public:
  void add(double v);
  void add(const double* values, std::size_t n);
  void add_u64(std::uint64_t v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x9e3779b97f4a7c15ULL;
};

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent, kept in memory and written out once
// at the end of the run. Recording is off unless the run is traced.

class Tracer {
 public:
  struct Span {
    int name = 0;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  int begin(const char* name);
  void end(int span);

  /// Total self seconds (duration minus the part covered by direct
  /// children) and call count of every span with this name.
  double self_seconds(const std::string& name) const;
  std::int64_t calls(const std::string& name) const;
  /// Self seconds per call (0 when the span never ran).
  double self_per_call(const std::string& name) const;

  /// Writes all spans as Chrome trace-event JSON.
  void write_chrome(const std::string& path) const;

 private:
  int intern(const char* name);

  bool on_ = false;
  int open_ = -1;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

Tracer& tracer();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(tracer().on() ? tracer().begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) {
      tracer().end(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// ---------------------------------------------------------------------------
// Timed phase.

struct TimedLoop {
  /// Steps the loop runs at least, whatever the time (fixed count windows).
  int min_steps = 20;
  /// Traced runs alternate untraced and traced blocks of this many steps,
  /// so the tracing overhead is measured on the same state in one run.
  int trace_block = 10;
};

struct TimedResult {
  int steps = 0;
  int traced_steps = 0;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double wall_s = 0.0;
};

/// Runs `step(index)` until ctx.seconds have passed and at least
/// loop.min_steps steps are done. step() returns whether its output check
/// passed; `after(index, traced)` runs outside the step's timing (probes,
/// fixed-window counters). Emits one `step` record per step.
TimedResult run_timed(const Context& ctx, const TimedLoop& loop,
                      const std::function<bool(int)>& step,
                      const std::function<void(int, bool)>& after);

/// Runs `setup(rep)` `reps` times, timing each and emitting `setup`.
/// Traced runs record the set-up spans too.
void run_setups(const Context& ctx, int reps,
                const std::function<void(int)>& setup);

/// Emits what every traced run reports: the benchmark's own per-step
/// self time and the tracing overhead (median traced over median untraced
/// step time).
void emit_trace_summary(const TimedResult& r);

/// Emits the kernel operation and computed-byte counters the program
/// recorded (CPX_METRICS layer, on during traced steps only).
void emit_kernel_counters(double traced_steps);

/// Applies the pool width of a workload whose default is `fallback`
/// (0 = the library default) and reports it.
void apply_pool_width(const Context& ctx, int fallback);

/// Peak resident set of this process in kB (VmHWM).
long peak_rss_kb();

// Workloads.
void run_engine(const Context& ctx);
void run_pressure(const Context& ctx);
void run_coupled_rows(const Context& ctx);
void run_pic(const Context& ctx);

}  // namespace cpxbench
