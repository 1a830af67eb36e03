// The workloads. Each runs in its own process (see main.cpp) and fills
// one RunResult; README.md says why each exists.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// single_use, repeated_use and accumulate_use: one caller driving the
/// library directly on one simulated K40c.
RunResult run_library(const Options& opt);

/// scale_out: one closed-loop client into a Server whose requests all
/// take the sharded route over a two-device fleet.
RunResult run_scale_out(const Options& opt);

/// Every per-layer metric, at 0, so each workload reports the full set;
/// a workload overwrites the layers it calls into.
void add_zero_layers(RunResult& r);

/// Problems per specialization tier and mean candidates per plan: the
/// planner's choices over the distinct problems (exact).
void store_planner_choices(RunResult& r, const std::vector<double>& tiers,
                           double candidates_per_plan);

/// Exact per-pass simulator totals shared by the workloads.
struct SimTotals {
  double gld = 0, gst = 0, smem_conflicts = 0, tex_misses = 0, blocks = 0;
  double kernel_s = 0;
  std::vector<double> gbps;  ///< per distinct problem, 2*V*elem / sim time
  void store(RunResult& r) const;
};

}  // namespace perfbench
