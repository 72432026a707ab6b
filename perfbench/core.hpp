// perfbench core: the pieces every workload shares, kept apart from the
// workloads so perfbench_selftest can test them in isolation.
//
//   * statistics   — median, the tail-percentile rule, median-of-repeats
//                    timing for short set-ups; no metric is ever a max;
//   * seeds        — the benchmark's own generator, so a change to the
//                    program's RNG can never change the benchmark inputs;
//   * serve plan   — the seeded request plan of the serve workload;
//   * golden gate  — record extraction from checked-in batch goldens and
//                    the failed-operation counter every workload feeds;
//   * spans        — in-memory span recorder, self time, trace export;
//   * result line  — the one-line JSON result the driver prints last.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// --- time and memory -------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start`.
inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Usable hardware threads (never less than 1).
int nproc();

/// Machine-wide CPU time counters from /proc/stat, in clock ticks: all
/// time, and the part the hypervisor gave to other guests (steal). Both
/// are 0 where /proc/stat cannot be read.
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
CpuTicks cpu_ticks();

// --- statistics ------------------------------------------------------------

/// Median (mean of the middle two for even counts); 0 for no samples.
double median(std::vector<double> v);

/// The tail rule: the highest percentile of the ladder p90, p99, p99.9,
/// p99.99, p99.999 that has at least kTailBeyond samples strictly beyond
/// its nearest-rank position. `present` is false when no rung qualifies
/// (fewer than 100 samples); the caller then omits the tail — it never
/// substitutes a max.
inline constexpr std::size_t kTailBeyond = 10;
struct Tail {
  bool present = false;
  double percentile = 0;  ///< e.g. 99.9
  double value = 0;       ///< the sample at that nearest rank
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly after the rank
};
Tail tail_of(std::vector<double> v);

/// Time `fn` repeatedly and return each duration in seconds: at least
/// `min_reps` repeats, continuing (up to `max_reps`) until `min_total_s`
/// seconds of repeats have run. `prepare` runs untimed before each
/// repeat (e.g. to tear down the previous set-up). The way every set-up
/// is timed, so no set-up number comes from a single short event.
template <class Fn, class Prepare>
std::vector<double> repeat_timings(Fn&& fn, Prepare&& prepare, int min_reps,
                                   int max_reps, double min_total_s) {
  std::vector<double> secs;
  double total = 0;
  while (static_cast<int>(secs.size()) < min_reps ||
         (total < min_total_s && static_cast<int>(secs.size()) < max_reps)) {
    prepare();
    const Clock::time_point t0 = Clock::now();
    fn();
    const double s = ms_since(t0) / 1000.0;
    secs.push_back(s);
    total += s;
  }
  return secs;
}

/// The median of repeat_timings(): the per-layer probes' timing rule.
template <class Fn, class Prepare>
double median_of_repeats(Fn&& fn, Prepare&& prepare, int min_reps = 5,
                         int max_reps = 2001, double min_total_s = 0.3) {
  return median(repeat_timings(fn, prepare, min_reps, max_reps, min_total_s));
}

// --- seeds -----------------------------------------------------------------

/// SplitMix64 finalizer: the benchmark's only source of pseudo-randomness.
std::uint64_t mix64(std::uint64_t x);

/// A permutation of [0, n) fixed by `seed` (Fisher-Yates over mix64).
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

// --- serve plan ------------------------------------------------------------

/// About one request in this many is planned as a cache miss.
inline constexpr int kServeMissOneIn = 20;

/// Request `index` of the serve workload's plan under `seed`: which of the
/// `specs` specs it submits, and whether it carries a fresh max-states
/// (so it must miss the result store). A pure function of its arguments,
/// so concurrent clients claiming indices in any order replay one plan.
struct PlannedRequest {
  int spec = 0;
  bool miss = false;
  bool operator==(const PlannedRequest&) const = default;
};
PlannedRequest plan_request(std::uint64_t seed, std::uint64_t index,
                            int specs);

/// The fresh reachability cap a planned miss carries: above the 2^20
/// default and unique per request index, so its cache key is new.
std::size_t miss_max_states(std::uint64_t index);

// --- golden gate -----------------------------------------------------------

/// Read a whole file; throws std::runtime_error naming the path.
std::string read_file(const std::string& path);

/// Item records of a canonical batch JSON document (the checked-in
/// specs/golden*.json files), keyed by item name. Each record is the
/// exact single-line bytes the batch renderer emits for the item.
std::map<std::string, std::string> golden_records(const std::string& json);

/// Counts operations attempted and failed across a run; thread-safe.
/// Every correctness check goes through here, and the first few
/// mismatches are echoed to stderr.
class Gate {
 public:
  /// Count one operation; a false `ok` counts it as failed and reports
  /// `what`. Returns `ok`.
  bool check(bool ok, const std::string& what);
  /// check() against an expected byte string.
  bool expect_bytes(const std::string& got, const std::string& want,
                    const std::string& what);
  long long attempted() const { return attempted_.load(); }
  long long failed() const { return failed_.load(); }

 private:
  std::atomic<long long> attempted_{0};
  std::atomic<long long> failed_{0};
};

// --- spans -----------------------------------------------------------------

/// One traced interval. Times are milliseconds on the tracer's clock;
/// `parent` indexes the enclosing span (-1 for a root) and `unit` is the
/// id of the benchmark unit (pass, request, variant sweep) it belongs to.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  long long unit = -1;
  double duration() const { return end - start; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the span).
std::vector<double> self_times(const std::vector<Span>& spans);

/// In-memory span recorder, safe to use from many threads. Spans are
/// written out only when the run ends (write_chrome_trace).
class Tracer {
 public:
  Tracer();
  double now() const { return ms_since(origin_); }
  /// Open a span now under `parent`; returns its id.
  int open(const char* name, long long unit, int parent);
  void close(int id);
  /// Record an already finished span.
  void record(const std::string& name, double start, double end, int parent,
             long long unit);
  std::vector<Span> spans() const;
  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  void write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span that also becomes the current parent on this thread, so
/// spans opened beneath it (and observer callbacks on the same thread)
/// nest under it. A null tracer makes it a no-op: the untraced run uses
/// the same code with no recording.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, long long unit = -1);
  /// Open under an explicit `parent` (e.g. a span owned by the thread
  /// that handed out the work) instead of this thread's current span.
  ScopedSpan(Tracer* tracer, const char* name, long long unit, int parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }
  /// The innermost open ScopedSpan on this thread, or -1, and its unit.
  static int current();
  static long long current_unit();

 private:
  Tracer* tracer_;
  int id_ = -1;
  int saved_parent_ = -1;
  long long saved_unit_ = -1;
};

// --- result line -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The driver's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Throws std::logic_error on a
/// non-finite value rather than print a line that does not parse.
std::string result_json(bool correct, long long attempted, long long failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
