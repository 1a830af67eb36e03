// Kernel selection: the taxonomy of Alg. 1 (Fig. 3 flowchart) plus the
// model-driven slice-size search of Alg. 3.
#pragma once

#include <optional>

#include "core/fvi_config.hpp"
#include "core/oa_config.hpp"
#include "core/od_config.hpp"
#include "core/perf_model.hpp"
#include "core/problem.hpp"
#include "core/schema.hpp"
#include "telemetry/telemetry.hpp"

namespace ttlg {

struct PlanOptions {
  int elem_size = 8;                      ///< 4 = float, 8 = double
  ModelKind model = ModelKind::kAuto;     ///< predictor for slice choice
  bool enable_coarsening = true;          ///< §IV-A heuristic
  Index overbooking_factor = 4;           ///< Alg. 3 occupancy headroom
  /// Per-call override of the global TTLG_TELEMETRY level, applied for
  /// the duration of make_plan (nullopt = leave the global level alone).
  std::optional<telemetry::Level> telemetry;
  /// Graceful degradation: on a retryable classified failure
  /// (ResourceExhausted, FaultInjected, Unsupported) fall back
  /// specialized schema -> generic Orthogonal-Arbitrary -> naive
  /// kernel, both at plan time and at execute time. Non-retryable
  /// errors (InvalidArgument, DataLoss, Internal) always propagate.
  bool enable_fallback = true;
  /// Bounded re-launches of the planned kernel before the execute-time
  /// ladder degrades to the next rung.
  int max_exec_retries = 1;
  /// Per-call fault-injection spec (TTLG_FAULTS grammar, see
  /// gpusim/fault_injector.hpp), installed for the duration of
  /// make_plan. nullopt = leave the process-global injector alone.
  std::optional<std::string> faults;
  /// Plan-time kernel specialization (core/stride_program.hpp): compile
  /// each kernel's inner address/copy loops into a per-plan stride
  /// program and execute it per block (per-access closed forms, or the
  /// affine whole-tile path). Bit-identical to the generic path in
  /// outputs, counters and simulated times; plans fall back to generic
  /// whenever the program would not amortize or fails verification.
  /// ANDed with the TTLG_SPECIALIZE env switch ("0" disables globally).
  bool specialize = true;
  /// Host threads for measurement-based planning (make_plan_measured):
  /// candidates are measured concurrently on independent device
  /// clones. 0 = auto (TTLG_THREADS when set, else
  /// hardware_concurrency()); 1 = serial. The chosen plan is
  /// bit-identical at every setting (candidate results are reduced in
  /// enumeration order).
  int num_threads = 0;
};

/// Static Fig. 3 flowchart decision (no model evaluation). The
/// flowchart's "Alg. 4 or Alg. 6 by performance prediction" branch
/// reports kOrthogonalArbitrary; select_kernel resolves it by model.
Schema classify(const TransposeProblem& problem);

/// Alg. 3's upper bound on the per-block slice volume: keeps the block
/// count at least overbooking_factor x the device-resident block count.
Index od_max_slice_vol(const TransposeProblem& problem,
                       const sim::DeviceProperties& props, Index overbooking);

/// Fully resolved kernel selection: the schema, its tuned configuration
/// (with offset arrays where applicable) and the model's predicted time.
struct KernelSelection {
  Schema schema = Schema::kCopy;
  OdConfig od;
  OaConfig oa;
  FviSmallConfig fvi_small;
  FviLargeConfig fvi_large;
  double predicted_s = 0;
  Index candidates_considered = 0;
};

KernelSelection select_kernel(const TransposeProblem& problem,
                              const PerfModel& model,
                              const PlanOptions& opts);

}  // namespace ttlg
