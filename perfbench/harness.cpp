#include "harness.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

/// p99 of `v` in place (partial sort).
double p99_inplace(std::vector<double>& v) {
  const auto k = static_cast<std::size_t>(0.99 * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double replay_window(const std::vector<double>& service_us, double limit_us) {
  std::vector<double> lat(service_us.size());
  const auto meets = [&](double rate_per_us) {
    const double gap = 1.0 / rate_per_us;
    double wait = 0;
    for (std::size_t i = 0; i < service_us.size(); ++i) {
      lat[i] = wait + service_us[i];
      wait = std::max(0.0, wait + service_us[i] - gap);
    }
    const double last = lat.back();
    return last <= limit_us && p99_inplace(lat) <= limit_us;
  };
  double lo = 0, hi = 1.0 / mean(service_us);
  if (meets(hi)) return hi * 1e6;
  for (int it = 0; it < 40; ++it) {
    const double mid = 0.5 * (lo + hi);
    (meets(mid) ? lo : hi) = mid;
  }
  return lo * 1e6;
}

}  // namespace

double replay_max_rate(const std::vector<double>& service_us,
                       double limit_us, int windows) {
  const std::size_t per =
      service_us.size() / static_cast<std::size_t>(std::max(windows, 1));
  if (per == 0) return 0;
  std::vector<double> rates;
  for (int w = 0; w < windows; ++w) {
    const auto b = service_us.begin() + static_cast<std::ptrdiff_t>(per * w);
    rates.push_back(replay_window(
        std::vector<double>(b, b + static_cast<std::ptrdiff_t>(per)), limit_us));
  }
  return median(rates);
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  std::uint32_t id = 0;
  bool found = false;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      id = static_cast<std::uint32_t>(i);
      found = true;
    }
  }
  if (!found) return out;
  for (const Span& s : spans_)
    if (s.name == id) out.push_back(static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3);
  return out;
}

double Tracer::median_uncovered_share() const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      covered[static_cast<std::size_t>(s.parent)] += s.t1_ns - s.t0_ns;
  std::vector<double> shares;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 || s.t1_ns <= s.t0_ns) continue;
    const double dur = static_cast<double>(s.t1_ns - s.t0_ns);
    shares.push_back(std::abs(dur - static_cast<double>(covered[i])) / dur);
  }
  return median(shares);
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0_ns;
  f << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                  "\"span\":%zu,\"parent\":%d}}%s\n",
                  names_[s.name].c_str(), s.parent < 0 ? 0 : 1,
                  static_cast<double>(s.t0_ns - base) * 1e-3,
                  static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3,
                  static_cast<long long>(s.op), i, s.parent,
                  i + 1 < spans_.size() ? "," : "");
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

ProcessUsage ProcessUsage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return {us(ru.ru_utime), us(ru.ru_stime), static_cast<double>(ru.ru_minflt),
          static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuStat CpuStat::now() {
  std::ifstream f("/proc/stat");
  std::string line;
  CpuStat st;
  if (!std::getline(f, line) || line.rfind("cpu ", 0) != 0) return st;
  std::istringstream in(line.substr(4));
  double v = 0;
  for (int field = 0; in >> v; ++field) {
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    if (field >= 8) break;
    st.total += v;
    if (field == 7) st.steal = v;
  }
  return st;
}

namespace {

// Written by the speed loop so that the loop cannot be folded away.
volatile double speed_sink = 0;

double speed_loop_us() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  double acc = 0;
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xFFFF) * 1e-9;
  }
  // Stored before the clock is read again, so the loop stays inside the
  // timed interval.
  speed_sink = acc;
  const std::int64_t t1 = now_ns();
  return static_cast<double>(t1 - t0) * 1e-3;
}

}  // namespace

double host_speed_us() {
  return std::min({speed_loop_us(), speed_loop_us(), speed_loop_us()});
}

void add_process_metrics(RunResult& r, const ProcessUsage& d,
                         std::int64_t ops) {
  const double n = static_cast<double>(std::max<std::int64_t>(ops, 1));
  r.layer("process.user_cpu_us_per_op", d.user_us / n, "us");
  r.layer("process.sys_cpu_us_per_op", d.sys_us / n, "us");
  r.layer("process.minor_faults_per_op", d.minor_faults / n, "count");
  r.layer("process.ctx_switches_per_op", d.ctx_switches / n, "count");
}

}  // namespace perfbench
