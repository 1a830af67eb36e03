// Shared machinery of the benchmark program: run options, the result
// record every workload fills, sample statistics, the in-memory span
// recorder of the traced run, and the host-health probes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the span dump and the determinism records.
  std::string out_dir = ".";
  /// Self-test fault: "flip" corrupts one output element after an op,
  /// "drop" (scale_out) discards one response unverified. Empty = none.
  std::string inject;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `exact` holds the values that must
/// repeat bit for bit across runs of one seed and between the untraced
/// and traced runs (simulated counters and times, planner choices).
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< any entry makes the run incorrect
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, double> exact;
  std::map<std::string, double> info;  ///< sample counts, rates used

  void e2e(const std::string& name, double v, const char* unit) {
    end_to_end[name] = Metric{v, unit};
  }
  void layer(const std::string& name, double v, const char* unit) {
    per_layer[name] = Metric{v, unit};
  }
};

using Clock = std::chrono::steady_clock;

/// Consecutive slices a timed phase is cut into for the windowed
/// statistics below (fewer when a slice would get too few samples).
constexpr int kWindows = 10;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

/// Quantile q of a long sample, taken as the median over `windows`
/// consecutive equal slices of each slice's quantile: one host stall then
/// moves only the slice it lands in. For q = 0.99 each slice must keep
/// at least ten samples beyond its p99 (1000 per slice), else fewer,
/// larger slices are used.
inline double windowed_quantile(const std::vector<double>& samples, double q,
                                int windows) {
  const std::size_t min_per = q > 0.98 ? 1000 : 1;
  windows = std::max(1, std::min<int>(windows, static_cast<int>(
                                                   samples.size() / min_per)));
  if (windows <= 1) return quantile(samples, q);
  const std::size_t per = samples.size() / static_cast<std::size_t>(windows);
  std::vector<double> qs;
  for (int w = 0; w < windows; ++w) {
    const auto b = samples.begin() + static_cast<std::ptrdiff_t>(per * w);
    qs.push_back(
        quantile(std::vector<double>(b, b + static_cast<std::ptrdiff_t>(per)), q));
  }
  return median(qs);
}

/// Closed-loop throughput: the median over `windows` consecutive slices
/// of ops per second spent inside ops.
inline double windowed_rate(const std::vector<double>& op_us, int windows) {
  windows = std::max(1, std::min<int>(windows, static_cast<int>(op_us.size())));
  const std::size_t per = op_us.size() / static_cast<std::size_t>(windows);
  if (per == 0) return 0;
  std::vector<double> rates;
  for (int w = 0; w < windows; ++w) {
    double total = 0;
    for (std::size_t i = per * w; i < per * (w + 1); ++i) total += op_us[i];
    rates.push_back(static_cast<double>(per) / (total * 1e-6));
  }
  return median(rates);
}

/// Highest arrival rate (1/s) at which a single FIFO caller issuing the
/// measured op times `service_us` (in their measured order) on a fixed
/// schedule keeps the p99 latency, queueing included, at or under
/// `limit_us` and ends with no backlog beyond the limit: Lindley's
/// recursion over the measured trace, bisection on the rate. Computed
/// per consecutive window and reported as the median over windows, so
/// one host stall sets the rate of only the window it lands in.
double replay_max_rate(const std::vector<double>& service_us, double limit_us,
                       int windows);

/// In-memory span recorder for the traced run. Spans are recorded from
/// the benchmark's own call sites around each call into the library;
/// each op has one root span and its stage spans as children.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::int64_t op = 0;
    std::int64_t t0_ns = 0, t1_ns = 0;
  };

  /// Record only while `enabled`; the traced run toggles it per slice.
  bool enabled = false;

  explicit Tracer(std::size_t reserve = 0) { spans_.reserve(reserve); }

  std::uint32_t intern(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i)
      if (names_[i] == name) return static_cast<std::uint32_t>(i);
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  /// Open a span at `t0_ns`; returns its index (-1 when not recording).
  std::int32_t open(std::uint32_t name, std::int64_t op, std::int32_t parent,
                    std::int64_t t0_ns) {
    if (!enabled) return -1;
    spans_.push_back(Span{name, parent, op, t0_ns, t0_ns});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t span, std::int64_t t1_ns) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].t1_ns = t1_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name(std::uint32_t id) const { return names_[id]; }

  /// Durations in microseconds of every span named `name`.
  std::vector<double> durations_us(const std::string& name) const;
  /// Median over root spans of the share of the root's time that its
  /// children do not cover.
  double median_uncovered_share() const;
  /// Chrome trace-event JSON (one complete event per span).
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Times one stage of an op as a child of the op's root span.
class StageSpan {
 public:
  StageSpan(Tracer& tr, std::uint32_t name, std::int64_t op,
            std::int32_t root)
      : tr_(tr), span_(tr.open(name, op, root, tr.enabled ? now_ns() : 0)) {}
  ~StageSpan() {
    if (span_ >= 0) tr_.close(span_, now_ns());
  }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  Tracer& tr_;
  std::int32_t span_;
};

/// Process CPU, fault and context-switch counters (getrusage).
struct ProcessUsage {
  double user_us = 0, sys_us = 0;
  double minor_faults = 0, ctx_switches = 0;
  static ProcessUsage now();
  ProcessUsage operator-(const ProcessUsage& o) const {
    return {user_us - o.user_us, sys_us - o.sys_us,
            minor_faults - o.minor_faults, ctx_switches - o.ctx_switches};
  }
};

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Aggregate CPU time counters from /proc/stat (jiffies).
struct CpuStat {
  double total = 0, steal = 0;
  static CpuStat now();
};

/// A fixed integer/floating-point loop, best of three; its duration
/// tracks host speed.
double host_speed_us();

/// Adds the process.* per-op metrics for a timed phase.
void add_process_metrics(RunResult& r, const ProcessUsage& delta,
                         std::int64_t ops);

}  // namespace perfbench
