// Execution plans: the result of TTLG's planning phase (taxonomy +
// model-driven slice choice + offset-array upload). A plan is created
// once and executed many times — the split the paper's single-use vs
// repeated-use evaluation is about.
//
// Robustness: plan construction and execution both carry a graceful
// degradation ladder (cuTT/HPTT-style): on a retryable classified
// failure (ResourceExhausted / FaultInjected / Unsupported) the library
// falls back specialized schema -> generic Orthogonal-Arbitrary ->
// naive kernel, with bounded retry and per-step telemetry
// (robustness.fallback.* counters, robustness.fallback trace events).
// Non-retryable errors (InvalidArgument, DataLoss, Internal) propagate.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.hpp"
#include "common/status.hpp"
#include "core/launch_helpers.hpp"
#include "core/naive_fallback.hpp"
#include "core/planner.hpp"
#include "core/spec_exec.hpp"
#include "gpusim/device.hpp"

namespace ttlg {

/// Which rung of the degradation ladder a plan (or its last execution)
/// is on. kGenericOa = the model-chosen schema could not be
/// materialized/launched and the generic Orthogonal-Arbitrary path ran
/// instead; kNaive = the last-resort naive kernel (no shared memory, no
/// texture arrays, no plan-time device allocations).
enum class ExecPath : int { kPlanned = 0, kGenericOa = 1, kNaive = 2 };

const char* to_string(ExecPath path);

/// Post-mortem hook shared by the try_* entry points: when `st` is
/// non-OK, emits an error-level structured log event and asks the
/// flight recorder to dump its last-N-events context naming `site`
/// (telemetry/flight_recorder.hpp). No-op on an OK status; returns
/// `st` unchanged so call sites can stay expression-shaped.
const Status& note_status_failure(const char* site, const Status& st);

/// One (input, output) device buffer pair of a launch.
template <class T>
using MemberPair = std::pair<sim::DeviceBuffer<T>, sim::DeviceBuffer<T>>;

/// Everything one rung-1 launch of a plan needs: the member buffer
/// pairs (1..N, each computing out = alpha * permute(in) + beta * out),
/// the block window of the planned grid that every member runs, and
/// the epilogue. Plan::execute builds a one-member whole-grid
/// descriptor; fused batches pass N members, shards one member and a
/// window.
template <class T>
struct LaunchDescriptor {
  std::span<const MemberPair<T>> members;
  LaunchWindow window{};
  Epilogue<T> epi{};
};

class Plan {
 public:
  Plan() = default;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;
  Plan(Plan&& o) noexcept { move_from(o); }
  Plan& operator=(Plan&& o) noexcept {
    if (this != &o) {
      release();
      move_from(o);
    }
    return *this;
  }
  ~Plan() { release(); }

  bool valid() const { return dev_ != nullptr; }
  Schema schema() const { return sel_.schema; }
  const TransposeProblem& problem() const { return problem_; }
  const KernelSelection& selection() const { return sel_; }
  /// Model-predicted kernel time (the §V queryable estimate).
  double predicted_time_s() const { return sel_.predicted_s; }
  /// Grid size of the planned (rung-1) kernel — the block-id space a
  /// LaunchDescriptor's window ranges over. Valid plans only.
  Index grid_blocks() const;
  /// Host wall-clock spent planning (selection + offset upload).
  double plan_wall_s() const { return plan_wall_s_; }

  /// The rung plan construction landed on (kPlanned unless make_plan
  /// itself had to degrade).
  ExecPath plan_path() const { return path_; }
  /// The rung the most recent execute() actually ran on.
  ExecPath last_exec_path() const {
    return last_path_.load(std::memory_order_relaxed);
  }
  /// True when planning degraded below the model-chosen schema. The
  /// plan cache refuses to retain degraded plans (the pressure that
  /// caused the degradation may be transient).
  bool degraded() const { return path_ != ExecPath::kPlanned; }

  /// The specialization tier this plan executes at (kGeneric when no
  /// stride program was compiled — disabled, degraded, rejected by the
  /// amortization cap, or failed verification).
  SpecTier specialization_tier() const {
    return spec_ ? spec_->tier : SpecTier::kGeneric;
  }

  /// (Re)run plan-time specialization: compile, verify and install the
  /// stride program for the current selection, or drop back to the
  /// generic path when `enabled` is false or compilation rejects the
  /// plan. Called by make_plan / make_plan_measured / load_plan after
  /// the selection is final; exported publicly so callers that assemble
  /// plans via from_selection can opt in too. Emits the
  /// plan.specialization_tier.* counter, a plan.specialized log event
  /// and a flight-recorder note.
  void finalize_specialization(bool enabled);

  std::string describe() const;

  /// Assemble a plan from an explicit kernel selection (uploads the
  /// offset arrays). Used by make_plan and by plan deserialization;
  /// application code normally calls make_plan instead.
  static Plan from_selection(sim::Device& dev, TransposeProblem problem,
                             KernelSelection sel);

  /// Last rung of the ladder: a plan that executes through the naive
  /// kernel. Needs no device allocations, so it cannot fail to build.
  /// `sel` records the selection whose materialization failed.
  static Plan naive_fallback_plan(sim::Device& dev, TransposeProblem problem,
                                  KernelSelection sel);

  /// Run the planned kernel: out = alpha * permute(in) + beta * out.
  /// T must match the planned element size; buffers must hold exactly
  /// problem().volume() elements and must not alias (the library is
  /// out-of-place only). beta != 0 reads the previous output (extra
  /// DRAM traffic, charged by the simulator). On a retryable classified
  /// failure the degradation ladder re-launches (bounded by
  /// PlanOptions::max_exec_retries) and then falls back generic-OA ->
  /// naive; the result is bit-identical to the planned kernel's.
  template <class T>
  sim::LaunchResult execute(sim::DeviceBuffer<T> in, sim::DeviceBuffer<T> out,
                            T alpha = T{1}, T beta = T{0}) const {
    const MemberPair<T> member{in, out};
    const LaunchDescriptor<T> desc{{&member, 1}, {}, {alpha, beta}};
    validate_launch(desc);
    const Epilogue<T>& epi = desc.epi;
    sim::LaunchResult res;

    if (path_ == ExecPath::kNaive) {
      res = launch_naive<T>(*dev_, naive_config(), in, out, epi);
      last_path_ = ExecPath::kNaive;
      record_execution(res, /*planned_kernel=*/false);
      return res;
    }

    // Rung 1: the planned kernel, with bounded retry.
    for (int attempt = 0;;) {
      try {
        launch_planned(desc, {&res, 1});
        last_path_ = path_;
        return res;
      } catch (const Error& e) {
        if (!fallback_enabled_ || !retryable(e.code())) throw;
        // A doomed request must not keep descending the ladder: every
        // rung transition is a deadline cancellation point (the serving
        // layer installs the context via ScopedDeadline).
        throw_if_past_deadline("plan.execute.retry");
        if (attempt++ < max_exec_retries_) {
          note_fallback("exec", "retry", e);
          continue;
        }
        note_fallback("exec", sel_.schema != Schema::kOrthogonalArbitrary
                                  ? "oa"
                                  : "naive",
                      e);
        break;
      }
    }

    // Rung 2: the generic Orthogonal-Arbitrary path (skipped when the
    // planned kernel already was OA — it would fail the same way).
    if (sel_.schema != Schema::kOrthogonalArbitrary &&
        ensure_exec_oa_fallback()) {
      try {
        res = launch_oa<T>(*dev_, *fb_oa_, in, out, fb_tex0_, fb_tex1_,
                           fb_tex2_, epi);
        last_path_ = ExecPath::kGenericOa;
        note_recovered();
        record_execution(res, /*planned_kernel=*/false);
        return res;
      } catch (const Error& e) {
        if (!retryable(e.code())) throw;
        throw_if_past_deadline("plan.execute.oa_fallback");
        note_fallback("exec", "naive", e);
      }
    }

    // Rung 3: the naive kernel — no shared memory, no texture arrays.
    // If even this launch fails the classified error propagates.
    throw_if_past_deadline("plan.execute.naive_fallback");
    res = launch_naive<T>(*dev_, naive_config(), in, out, epi);
    last_path_ = ExecPath::kNaive;
    note_recovered();
    record_execution(res, /*planned_kernel=*/false);
    return res;
  }

  /// Non-throwing execute for hot serving paths: classified failures
  /// come back as a Status instead of unwinding.
  template <class T>
  Expected<sim::LaunchResult> try_execute(sim::DeviceBuffer<T> in,
                                          sim::DeviceBuffer<T> out,
                                          T alpha = T{1},
                                          T beta = T{0}) const {
    auto res = capture([&] { return execute<T>(in, out, alpha, beta); });
    if (!res.has_value()) note_status_failure("plan.execute", res.status());
    return res;
  }

  /// Rung-1 launch through one descriptor: the planned kernel over every
  /// member pair in ONE engine dispatch (sim::Device::launch_members),
  /// restricted to the descriptor's block window. Block ids stay
  /// absolute, so N disjoint windows covering [0, grid_blocks())
  /// together perform exactly the blocks of one full launch, and
  /// per-member results (outputs, counters, simulated times) are
  /// bit-identical to individual execute() calls at every thread count
  /// — the primitives fused batches (run_batched, the server coalescer)
  /// and shards (shard::ShardedExecutor) rest on. There is no
  /// degradation ladder here: the OA/naive fallback grids do not map
  /// onto planned-grid windows, so degraded plans are rejected as
  /// kUnsupported (retryable) and the caller owns recovery (the
  /// per-member execute() loop, shard failover). `window.tex_capture`
  /// records texture accesses for cross-window replay instead of
  /// counting local misses (one-member descriptors only).
  template <class T>
  std::vector<sim::LaunchResult> launch(const LaunchDescriptor<T>& d) const {
    validate_launch(d);
    TTLG_CHECK_CODE(path_ == ExecPath::kPlanned, ErrorCode::kUnsupported,
                    "descriptor launches require an undegraded plan");
    std::vector<sim::LaunchResult> res(d.members.size());
    launch_planned(d, std::span<sim::LaunchResult>(res));
    last_path_ = path_;
    return res;
  }

 private:
  friend Plan make_plan(sim::Device&, const Shape&, const Permutation&,
                        const PlanOptions&);
  void release();
  void move_from(Plan& o);

  /// The one buffer validation of every entry point: element width,
  /// member count and sizes, block window, out-of-place and
  /// materialized buffers.
  template <class T>
  void validate_launch(const LaunchDescriptor<T>& d) const {
    TTLG_CHECK(valid(), "executing an empty plan");
    TTLG_CHECK(!d.members.empty(), "empty batch");
    TTLG_CHECK(static_cast<int>(sizeof(T)) == problem_.elem_size,
               "element type does not match the planned element size");
    validate_window(d.window);
    for (const auto& [in, out] : d.members)
      validate_member(in.base_addr(), in.size(), in.valid(), out.base_addr(),
                      out.size(), out.valid());
  }

  /// Rung 1 of the ladder — the model-selected kernel — over every
  /// member of `d`: the one schema switch, building the schema's config,
  /// decoder and generic kernel for dispatch().
  template <class T>
  void launch_planned(const LaunchDescriptor<T>& d,
                      std::span<sim::LaunchResult> results) const {
    const int es = problem_.elem_size;
    const Epilogue<T>& epi = d.epi;
    using Buf = sim::DeviceBuffer<T>;
    switch (sel_.schema) {
      case Schema::kCopy:
      case Schema::kFviMatchLarge:
        dispatch(d, results, make_fvi_large_cfg(sel_.fvi_large, es),
                 sel_.fvi_large.decoder, [&](Buf in, Buf out) {
                   return FviLargeKernel<T>{sel_.fvi_large, in, out, epi};
                 });
        break;
      case Schema::kFviMatchSmall:
        dispatch(d, results, make_fvi_small_cfg(sel_.fvi_small, es),
                 sel_.fvi_small.decoder, [&](Buf in, Buf out) {
                   return FviSmallKernel<T>{sel_.fvi_small, in, out, epi};
                 });
        break;
      case Schema::kOrthogonalDistinct:
        dispatch(d, results, make_od_cfg(sel_.od, es), sel_.od.decoder,
                 [&](Buf in, Buf out) {
                   return OdKernel<T>{sel_.od, in, out, tex0_, tex1_, epi};
                 });
        break;
      case Schema::kOrthogonalArbitrary:
        dispatch(d, results, make_oa_cfg(sel_.oa, es), sel_.oa.decoder,
                 [&](Buf in, Buf out) {
                   return OaKernel<T>{sel_.oa,  in,    out, tex0_,
                                      tex1_,    tex2_, epi};
                 });
        break;
    }
    // The model predicted the whole grid's time: windows, and captures
    // that defer texture misses to the caller, would pollute the
    // accuracy residuals.
    if (covers_grid(d.window))
      for (const sim::LaunchResult& r : results)
        record_execution(r, /*planned_kernel=*/true);
  }

  /// One engine call for the schema chosen by launch_planned: the
  /// compiled stride program when the plan carries one, else the
  /// generic kernel `make_generic(in, out)`, per member. The specialized
  /// body is bit-identical to the generic kernels in outputs, counters
  /// and simulated times (enforced at build time by the program
  /// verifier) and runs under the identical LaunchConfig; epilogues
  /// read/scale data the compiled copy tables move verbatim, so only
  /// identity launches qualify.
  template <class T, class MakeGeneric>
  void dispatch(const LaunchDescriptor<T>& d,
                std::span<sim::LaunchResult> results, sim::LaunchConfig cfg,
                const GridDecoder& dec, const MakeGeneric& make_generic) const {
    d.window.apply(cfg);
    const auto member = [&d](std::int64_t m) -> const MemberPair<T>& {
      return d.members[static_cast<std::size_t>(m)];
    };
    if (!spec_ || !d.epi.is_identity()) {
      dev_->launch_members(
          [&](std::int64_t m) {
            return make_generic(member(m).first, member(m).second);
          },
          cfg, results);
      return;
    }
    TTLG_ASSERT(spec_->elem_size == static_cast<int>(sizeof(T)),
                "stride program element width mismatch");
    const SpecProgram* prog = spec_.get();
    if (prog->tier == SpecTier::kAffineBulk) {
      dev_->launch_members(
          [&](std::int64_t m) {
            return SpecializedKernel<T, true>{prog, &dec, member(m).first,
                                              member(m).second};
          },
          cfg, results);
    } else {
      dev_->launch_members(
          [&](std::int64_t m) {
            return SpecializedKernel<T, false>{prog, &dec, member(m).first,
                                               member(m).second};
          },
          cfg, results);
    }
  }

  /// validate_launch's non-template halves: the window lies inside the
  /// planned grid; one member's buffers hold the tensor volume, do not
  /// alias and, in functional mode, are materialized.
  void validate_window(const LaunchWindow& win) const;
  void validate_member(Index in_base, Index in_size, bool in_backed,
                       Index out_base, Index out_size, bool out_backed) const;
  /// True when `win` is the whole planned grid with texture misses
  /// counted in place.
  bool covers_grid(const LaunchWindow& win) const;
  /// Lazily build the generic-OA fallback config and upload its offset
  /// arrays; false when infeasible or when the upload itself hits a
  /// retryable failure (the ladder then proceeds to naive).
  bool ensure_exec_oa_fallback() const;
  /// Lazily built naive-kernel config (rung 3).
  const NaiveConfig& naive_config() const;
  /// Telemetry sinks: fallback step (always counted — the path is rare
  /// and the counters are load-bearing for recovery diagnosis),
  /// recovery marker, and per-execution counters/accuracy residuals.
  void note_fallback(const char* stage, const char* to,
                     const Error& cause) const;
  void note_recovered() const;
  void record_execution(const sim::LaunchResult& res,
                        bool planned_kernel) const;

  sim::Device* dev_ = nullptr;
  TransposeProblem problem_;
  KernelSelection sel_;
  // Offset indirection arrays resident in (texture) device memory:
  // OD uses tex0 = in_offset, tex1 = out_offset;
  // OA uses tex0 = input_offset, tex1 = output_offset, tex2 = sm_out.
  sim::DeviceBuffer<Index> tex0_, tex1_, tex2_;
  // Compiled stride program (plan-time specialization); null = generic.
  // Shared so moved-from plans and copies of the launch path never
  // dangle; the program itself stores no pointers into sel_.
  std::shared_ptr<const SpecProgram> spec_;
  double plan_wall_s_ = 0;

  ExecPath path_ = ExecPath::kPlanned;
  bool fallback_enabled_ = true;
  int max_exec_retries_ = 1;
  // Execute-time fallback state, built lazily on first failure and
  // reused by later executions. Concurrent execute() calls on one plan
  // are supported (the parallel engine and the shared PlanCache depend
  // on it): last_path_ is atomic and the lazy fallback state is built
  // under exec_mu_ (behind a unique_ptr so the Plan stays movable).
  // Callers must still hand each concurrent execution its own output
  // buffer — the transposition itself scatters writes.
  mutable std::atomic<ExecPath> last_path_{ExecPath::kPlanned};
  mutable std::unique_ptr<std::mutex> exec_mu_ =
      std::make_unique<std::mutex>();
  mutable std::unique_ptr<OaConfig> fb_oa_;
  mutable sim::DeviceBuffer<Index> fb_tex0_, fb_tex1_, fb_tex2_;
  mutable std::unique_ptr<NaiveConfig> naive_cfg_;
};

/// Full planning pipeline: classify, search slices with the performance
/// model, compute and upload offset arrays. The returned plan remains
/// bound to `dev` (which must outlive it). With opts.enable_fallback
/// (default), retryable materialization failures degrade the plan
/// generic-OA -> naive instead of propagating.
Plan make_plan(sim::Device& dev, const Shape& shape, const Permutation& perm,
               const PlanOptions& opts = {});

/// Non-throwing variant: classified failures come back as a Status.
Expected<Plan> try_make_plan(sim::Device& dev, const Shape& shape,
                             const Permutation& perm,
                             const PlanOptions& opts = {});

/// §V queryable model interface: predicted kernel time for a
/// transposition WITHOUT building or uploading a plan. Intended for
/// higher-level libraries (e.g. TTGT contraction planning).
double predict_transpose_time(const sim::DeviceProperties& props,
                              const Shape& shape, const Permutation& perm,
                              const PlanOptions& opts = {});

/// The paper's reported metric: 2 * volume * elem_size / time, in GB/s.
double achieved_bandwidth_gbps(Index volume, int elem_size, double seconds);

}  // namespace ttlg
