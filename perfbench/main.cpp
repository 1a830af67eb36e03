// Benchmark program: runs one workload per process and prints its result
// as one JSON object on the last line of stdout:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--inject flip|drop]
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Details (sample counts, exact values, errors) go to
// stderr. run.py builds this program and is the usual entry point.
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "workloads.hpp"

namespace perfbench {

namespace {

const char* const kLayerMetrics[][2] = {
    {"core.problem_us", "us"},
    {"core.select_us", "us"},
    {"core.upload_us", "us"},
    {"core.specialize_us", "us"},
    {"core.plan_us", "us"},
    {"core.candidates_per_plan", "count"},
    {"core.tier.generic", "count"},
    {"core.tier.stride_program", "count"},
    {"core.tier.templated", "count"},
    {"core.tier.affine_bulk", "count"},
    {"core.cache_get_us", "us"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.execute_us", "us"},
    {"core.execute_ns_per_block", "ns"},
    {"gpusim.gld_txn", "count"},
    {"gpusim.gst_txn", "count"},
    {"gpusim.smem_conflicts", "count"},
    {"gpusim.tex_misses", "count"},
    {"gpusim.blocks", "count"},
    {"gpusim.sim_kernel_s", "s"},
    {"gpusim.device_bytes_retained", "bytes"},
    {"service.submit_us", "us"},
    {"service.queue_wait_us", "us"},
    {"service.queue_wait_p99_us", "us"},
    {"service.work_us", "us"},
    {"shard.work_us", "us"},
    {"shard.sim_makespan_us", "us"},
    {"shard.sharded_share", "ratio"},
    {"telemetry.scrape_us", "us"},
    {"process.user_cpu_us_per_op", "us"},
    {"process.sys_cpu_us_per_op", "us"},
    {"process.minor_faults_per_op", "count"},
    {"process.ctx_switches_per_op", "count"},
    {"bench.host_speed_us", "us"},
    {"bench.host_steal_share", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"bench.stage_gap", "ratio"},
};

/// Largest bench.stage_gap (median share of an op's time its stage
/// spans leave uncovered) a traced run may show and still be correct.
constexpr double kStageGapTolerance = 0.05;

const char* const kEndToEnd[] = {"setup_s",        "ops_per_s",
                                 "op_p50_us",      "op_p99_us",
                                 "max_rate_per_s", "sim_gbps_geomean",
                                 "peak_rss_mb"};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_metrics(const std::map<std::string, Metric>& m) {
  std::string s = "{";
  for (const auto& [name, metric] : m) {
    if (s.size() > 1) s += ", ";
    s += "\"" + name + "\": {\"value\": " + fmt(metric.value) +
         ", \"unit\": \"" + metric.unit + "\"}";
  }
  return s + "}";
}

/// Exact values must repeat for one seed and program: the first run
/// records them, later runs (untraced or traced) compare.
void check_exact(RunResult& r, const Options& opt) {
  const std::string path = opt.out_dir + "/exact_" + opt.workload + "_seed" +
                           std::to_string(opt.seed) + ".txt";
  std::ifstream in(path);
  if (in) {
    std::map<std::string, std::string> prev;
    std::string key, val;
    while (in >> key >> val) prev[key] = val;
    for (const auto& [k, v] : r.exact) {
      const auto it = prev.find(k);
      if (it != prev.end() && it->second != fmt(v))
        r.errors.push_back("exact value " + k + " = " + fmt(v) +
                           " differs from an earlier run of this seed (" +
                           it->second + ")");
    }
    return;
  }
  std::ofstream out(path);
  for (const auto& [k, v] : r.exact) out << k << ' ' << fmt(v) << '\n';
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload single_use|repeated_use|"
               "accumulate_use|scale_out --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--inject flip|drop]\n");
  return 2;
}

}  // namespace

void add_zero_layers(RunResult& r) {
  for (const auto& m : kLayerMetrics) r.layer(m[0], 0, m[1]);
}

void store_planner_choices(RunResult& r, const std::vector<double>& tiers,
                           double candidates_per_plan) {
  static const char* kTierNames[] = {"generic", "stride_program", "templated",
                                     "affine_bulk"};
  for (std::size_t t = 0; t < 4; ++t) {
    const std::string name = std::string("core.tier.") + kTierNames[t];
    r.layer(name, tiers[t], "count");
    r.exact[name] = tiers[t];
  }
  r.layer("core.candidates_per_plan", candidates_per_plan, "count");
  r.exact["core.candidates_per_plan"] = candidates_per_plan;
}

void SimTotals::store(RunResult& r) const {
  const std::pair<const char*, double> vals[] = {
      {"gpusim.gld_txn", gld},          {"gpusim.gst_txn", gst},
      {"gpusim.smem_conflicts", smem_conflicts},
      {"gpusim.tex_misses", tex_misses}, {"gpusim.blocks", blocks},
      {"gpusim.sim_kernel_s", kernel_s}};
  for (const auto& [name, v] : vals) {
    r.per_layer[name].value = v;
    r.exact[name] = v;
  }
  if (!gbps.empty()) {
    r.e2e("sim_gbps_geomean", geomean(gbps), "GB/s");
    r.exact["sim_gbps_geomean"] = geomean(gbps);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (k == "--trace") {
      opt.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (k == "--out-dir") opt.out_dir = v;
    else if (k == "--inject") opt.inject = v;
    else return usage();
  }
  if (argc % 2 == 0 || !have_trace || opt.seconds <= 0) return usage();

  const double speed0 = host_speed_us();
  const CpuStat cpu0 = CpuStat::now();
  RunResult r;
  try {
    if (opt.workload == "single_use" || opt.workload == "repeated_use" ||
        opt.workload == "accumulate_use")
      r = run_library(opt);
    else if (opt.workload == "scale_out")
      r = run_scale_out(opt);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const double speed1 = host_speed_us();
  const CpuStat cpu1 = CpuStat::now();
  if (r.end_to_end.count("peak_rss_mb") == 0)
    r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  r.layer("bench.host_speed_us", 0.5 * (speed0 + speed1), "us");
  const double total = cpu1.total - cpu0.total;
  r.layer("bench.host_steal_share",
          total > 0 ? (cpu1.steal - cpu0.steal) / total : 0, "ratio");
  r.info["host_speed_start_us"] = speed0;
  r.info["host_speed_end_us"] = speed1;
  r.info["host_steal_share"] = r.per_layer["bench.host_steal_share"].value;
  check_exact(r, opt);
  if (opt.trace && r.per_layer["bench.stage_gap"].value > kStageGapTolerance)
    r.errors.push_back("bench.stage_gap above tolerance " +
                       fmt(kStageGapTolerance));

  std::map<std::string, Metric> metrics;
  if (opt.trace) {
    for (const auto& m : kLayerMetrics) metrics[m[0]] = r.per_layer.at(m[0]);
  } else {
    for (const char* name : kEndToEnd) {
      const auto it = r.end_to_end.find(name);
      if (it == r.end_to_end.end()) {
        std::fprintf(stderr, "perfbench: metric %s not measured\n", name);
        return 1;
      }
      metrics[name] = it->second;
    }
  }
  for (const std::string& e : r.errors)
    std::fprintf(stderr, "perfbench: error: %s\n", e.c_str());
  std::string detail = "{\"workload\": \"" + opt.workload + "\", \"info\": {";
  bool first = true;
  for (const auto& [k, v] : r.info) {
    detail += std::string(first ? "" : ", ") + "\"" + k + "\": " + fmt(v);
    first = false;
  }
  detail += "}, \"exact\": {";
  first = true;
  for (const auto& [k, v] : r.exact) {
    detail += std::string(first ? "" : ", ") + "\"" + k + "\": " + fmt(v);
    first = false;
  }
  std::fprintf(stderr, "%s}}\n", detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              r.errors.empty() && r.failed == 0 ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), json_metrics(metrics).c_str());
  return 0;
}
