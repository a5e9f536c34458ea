#include "support/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <tuple>
#include <utility>

#include "support/check.hpp"
#include "support/mutex.hpp"
#include "support/options.hpp"
#include "support/thread_annotations.hpp"
#include "support/table.hpp"

namespace cpx::support::metrics {
namespace detail {

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_trace{false};

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxEventsPerThread = 1 << 16;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct RegionStat {
  RegionKind kind = RegionKind::kCompute;
  std::int64_t calls = 0;
  std::int64_t ns = 0;
};

struct EventRec {
  std::string path;
  RegionKind kind = RegionKind::kCompute;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int tid = 0;
};

}  // namespace

/// One accumulator per thread that ever touched the metrics layer. The
/// path/stack members are touched only by the owning thread; the maps and
/// event buffer are guarded by `mutex` so snapshot()/reset() can read them
/// while the thread is alive.
struct ThreadState {
  Mutex mutex;
  std::map<std::string, RegionStat, std::less<>> regions
      CPX_GUARDED_BY(mutex);
  std::map<std::string, std::int64_t, std::less<>> counters
      CPX_GUARDED_BY(mutex);
  std::vector<EventRec> events CPX_GUARDED_BY(mutex);
  std::int64_t events_dropped CPX_GUARDED_BY(mutex) = 0;
  int tid = 0;  ///< write-once at registration, read-only afterwards

  // Owning-thread-only nesting state.
  std::string path;
  struct Frame {
    std::size_t prev_len;
    RegionKind kind;
  };
  std::vector<Frame> stack;
};

namespace {

/// Global registry: live thread states plus the merged accumulators of
/// threads that have exited (pool workers die on every resize; their
/// samples must survive them).
struct Registry {
  /// Acquired before any ThreadState::mutex (snapshot/reset/thread-exit
  /// all lock registry -> state; region_exit takes only the state lock).
  Mutex mutex;
  std::vector<ThreadState*> live CPX_GUARDED_BY(mutex);
  std::map<std::string, RegionStat> retired_regions CPX_GUARDED_BY(mutex);
  std::map<std::string, std::int64_t> retired_counters
      CPX_GUARDED_BY(mutex);
  std::vector<EventRec> retired_events CPX_GUARDED_BY(mutex);
  std::int64_t retired_dropped CPX_GUARDED_BY(mutex) = 0;
  int next_tid CPX_GUARDED_BY(mutex) = 0;
  const Clock::time_point epoch = Clock::now();  ///< immutable after init

  static Registry& instance() {
    static Registry registry;
    return registry;
  }
};

void merge_state_locked(Registry& reg, ThreadState& ts)
    CPX_REQUIRES(reg.mutex, ts.mutex) {
  for (const auto& [path, stat] : ts.regions) {
    RegionStat& dst = reg.retired_regions[path];
    dst.kind = stat.kind;
    dst.calls += stat.calls;
    dst.ns += stat.ns;
  }
  for (const auto& [name, value] : ts.counters) {
    reg.retired_counters[name] += value;
  }
  reg.retired_events.insert(reg.retired_events.end(),
                            std::make_move_iterator(ts.events.begin()),
                            std::make_move_iterator(ts.events.end()));
  reg.retired_dropped += ts.events_dropped;
}

/// Registers on construction, folds the thread's samples into the retired
/// store on thread exit.
struct ThreadStateOwner {
  ThreadState state;

  ThreadStateOwner() {
    Registry& reg = Registry::instance();
    MutexLock lock(reg.mutex);
    state.tid = reg.next_tid++;
    reg.live.push_back(&state);
  }

  ~ThreadStateOwner() {
    Registry& reg = Registry::instance();
    MutexLock reg_lock(reg.mutex);
    MutexLock state_lock(state.mutex);
    merge_state_locked(reg, state);
    reg.live.erase(std::find(reg.live.begin(), reg.live.end(), &state));
  }
};

std::string& output_path_storage() {
  static std::string path;
  return path;
}

/// CPX_METRICS=<path> enables the layer at startup; the literal values
/// "1"/"true"/"on" enable without a report file. CPX_METRICS_TRACE=1 also
/// turns on event recording.
[[maybe_unused]] const bool g_env_initialized = [] {
  if (const char* env = std::getenv("CPX_METRICS");
      env != nullptr && *env != '\0') {
    g_enabled.store(true, std::memory_order_relaxed);
    if (std::strcmp(env, "1") != 0 && std::strcmp(env, "true") != 0 &&
        std::strcmp(env, "on") != 0) {
      output_path_storage() = env;
    }
  }
  if (const char* env = std::getenv("CPX_METRICS_TRACE");
      env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0) {
    g_trace.store(true, std::memory_order_relaxed);
  }
  return true;
}();

}  // namespace

ThreadState& thread_state() {
  thread_local ThreadStateOwner owner;
  return owner.state;
}

Clock::time_point region_enter(ThreadState& ts, std::string_view name,
                               RegionKind kind) {
  ts.stack.push_back({ts.path.size(), kind});
  if (!ts.path.empty()) {
    ts.path += ';';
  }
  ts.path += name;
  return Clock::now();
}

void region_exit(ThreadState& ts, Clock::time_point start) {
  const Clock::time_point end = Clock::now();
  CPX_DCHECK(!ts.stack.empty());
  const ThreadState::Frame frame = ts.stack.back();
  {
    MutexLock lock(ts.mutex);
    auto it = ts.regions.find(ts.path);
    if (it == ts.regions.end()) {
      it = ts.regions.emplace(ts.path, RegionStat{frame.kind, 0, 0}).first;
    }
    ++it->second.calls;
    it->second.ns += ns_between(start, end);
    if (g_trace.load(std::memory_order_relaxed)) {
      if (ts.events.size() < kMaxEventsPerThread) {
        const Clock::time_point epoch = Registry::instance().epoch;
        ts.events.push_back({ts.path, frame.kind, ns_between(epoch, start),
                             ns_between(epoch, end), ts.tid});
      } else {
        ++ts.events_dropped;
      }
    }
  }
  ts.path.resize(frame.prev_len);
  ts.stack.pop_back();
}

void counter_add_slow(std::string_view name, std::int64_t delta) {
  ThreadState& ts = thread_state();
  MutexLock lock(ts.mutex);
  const auto it = ts.counters.find(name);
  if (it == ts.counters.end()) {
    // First-touch registration of a per-thread counter: allocates once per
    // (thread, counter-name), after which the hot path hits the lock-free
    // cache in metrics.hpp; amortized by design and measured
    // allocation-free at steady state by tests/solver_alloc_test.cpp.
    ts.counters.emplace(std::string(name), delta);  // cpx-lint: allow(solve-alloc) — first-touch registration
  } else {
    it->second += delta;
  }
}

}  // namespace detail

namespace {

using detail::Registry;

const char* kind_name(RegionKind kind) {
  return kind == RegionKind::kComm ? "comm" : "compute";
}

/// Collects retired + live accumulators under the registry lock.
struct MergedState {
  std::map<std::string, detail::RegionStat> regions;
  std::map<std::string, std::int64_t> counters;
  std::vector<detail::EventRec> events;
  std::int64_t dropped = 0;
};

MergedState merge_all() {
  Registry& reg = Registry::instance();
  MutexLock reg_lock(reg.mutex);
  MergedState merged;
  merged.regions = reg.retired_regions;
  merged.counters = reg.retired_counters;
  merged.events = reg.retired_events;
  merged.dropped = reg.retired_dropped;
  for (detail::ThreadState* ts : reg.live) {
    MutexLock state_lock(ts->mutex);
    for (const auto& [path, stat] : ts->regions) {
      detail::RegionStat& dst = merged.regions[path];
      dst.kind = stat.kind;
      dst.calls += stat.calls;
      dst.ns += stat.ns;
    }
    for (const auto& [name, value] : ts->counters) {
      merged.counters[name] += value;
    }
    merged.events.insert(merged.events.end(), ts->events.begin(),
                         ts->events.end());
    merged.dropped += ts->events_dropped;
  }
  // Events from different threads interleave nondeterministically; sort by
  // (start, tid, path) so exports are stable for a given set of samples.
  std::sort(merged.events.begin(), merged.events.end(),
            [](const detail::EventRec& a, const detail::EventRec& b) {
              return std::tie(a.start_ns, a.tid, a.path) <
                     std::tie(b.start_ns, b.tid, b.path);
            });
  return merged;
}

}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_trace_events(bool on) {
  detail::g_trace.store(on, std::memory_order_relaxed);
}

double Snapshot::seconds_matching(std::string_view needle) const {
  double total = 0.0;
  for (const RegionSnapshot& r : regions) {
    if (r.path.find(needle) != std::string::npos) {
      total += r.seconds;
    }
  }
  return total;
}

const RegionSnapshot* Snapshot::find(std::string_view path) const {
  for (const RegionSnapshot& r : regions) {
    if (r.path == path) {
      return &r;
    }
  }
  return nullptr;
}

std::int64_t Snapshot::counter(std::string_view name) const {
  for (const CounterSnapshot& c : counters) {
    if (c.name == name) {
      return c.value;
    }
  }
  return 0;
}

Snapshot snapshot() {
  const MergedState merged = merge_all();
  Snapshot snap;
  snap.regions.reserve(merged.regions.size());
  for (const auto& [path, stat] : merged.regions) {
    snap.regions.push_back(
        {path, stat.kind, stat.calls, static_cast<double>(stat.ns) * 1e-9});
  }
  snap.counters.reserve(merged.counters.size());
  for (const auto& [name, value] : merged.counters) {
    snap.counters.push_back({name, value});
  }
  snap.trace_events = static_cast<std::int64_t>(merged.events.size());
  snap.trace_dropped = merged.dropped;
  return snap;
}

void reset() {
  Registry& reg = Registry::instance();
  MutexLock reg_lock(reg.mutex);
  reg.retired_regions.clear();
  reg.retired_counters.clear();
  reg.retired_events.clear();
  reg.retired_dropped = 0;
  for (detail::ThreadState* ts : reg.live) {
    MutexLock state_lock(ts->mutex);
    ts->regions.clear();
    ts->counters.clear();
    ts->events.clear();
    ts->events_dropped = 0;
  }
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(ch) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(ch) & 0xF];
        } else {
          out += ch;
        }
        break;
    }
  }
  return out;
}

void write_json(std::ostream& os, const Snapshot& snap) {
  os << std::setprecision(17);
  os << "{\n  \"schema\": \"cpx-metrics-v1\",\n  \"regions\": [";
  for (std::size_t i = 0; i < snap.regions.size(); ++i) {
    const RegionSnapshot& r = snap.regions[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"path\": \""
       << json_escape(r.path) << "\", \"kind\": \"" << kind_name(r.kind)
       << "\", \"calls\": " << r.calls << ", \"seconds\": " << r.seconds
       << "}";
  }
  os << "\n  ],\n  \"counters\": [";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    const CounterSnapshot& c = snap.counters[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
       << json_escape(c.name) << "\", \"value\": " << c.value << "}";
  }
  os << "\n  ],\n  \"trace\": {\"events\": " << snap.trace_events
     << ", \"dropped\": " << snap.trace_dropped << "}\n}\n";
}

void write_json(std::ostream& os) { write_json(os, snapshot()); }

void write_text(std::ostream& os) {
  const Snapshot snap = snapshot();
  print_banner(os, "host metrics — regions");
  Table regions({"region", "kind", "calls", "seconds"});
  regions.set_precision(6);
  for (const RegionSnapshot& r : snap.regions) {
    regions.add_row({r.path, std::string(kind_name(r.kind)), r.calls,
                     r.seconds});
  }
  regions.print(os);
  if (!snap.counters.empty()) {
    print_banner(os, "host metrics — counters");
    Table counters({"counter", "value"});
    for (const CounterSnapshot& c : snap.counters) {
      counters.add_row({c.name, c.value});
    }
    counters.print(os);
  }
}

void write_chrome_trace(std::ostream& os) {
  const MergedState merged = merge_all();
  os << "[\n";
  // Metadata first: name the host "process" and carry the dropped count so
  // truncated timelines are detectable downstream.
  os << R"({"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"cpx host"}})"
     << ",\n"
     << R"({"name":"cpx_metrics_dropped","ph":"M","pid":0,"tid":0,"args":{"dropped":)"
     << merged.dropped << "}}";
  for (const detail::EventRec& e : merged.events) {
    os << ",\n"
       << R"({"name":")" << json_escape(e.path) << R"(","cat":")"
       << kind_name(e.kind) << R"(","ph":"X","ts":)"
       << static_cast<double>(e.start_ns) * 1e-3 << R"(,"dur":)"
       << static_cast<double>(e.end_ns - e.start_ns) * 1e-3
       << R"(,"pid":0,"tid":)" << e.tid << "}";
  }
  os << "\n]\n";
}

bool configure(const Options& options) {
  if (options.has("metrics")) {
    const std::string path = options.get_string("metrics", "");
    CPX_REQUIRE(!path.empty(), "--metrics expects a file path");
    set_enabled(true);
    detail::output_path_storage() = path;
  }
  return enabled();
}

const std::string& output_path() { return detail::output_path_storage(); }

bool write_report() {
  const std::string& path = output_path();
  if (path.empty()) {
    return false;
  }
  std::ofstream out(path);
  CPX_REQUIRE(out.good(), "metrics::write_report: cannot open " << path);
  write_json(out);
  return true;
}

}  // namespace cpx::support::metrics
