#include "core/plan.hpp"

#include <optional>
#include <sstream>

#include "common/timer.hpp"
#include "gpusim/fault_injector.hpp"
#include "telemetry/accuracy.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace ttlg {
namespace {

// Robustness counters are recorded unconditionally (no
// counters_enabled() gate): fallbacks are rare, so the cost is nil, and
// the counters are the primary post-mortem signal for "did this process
// ever degrade".
void count_robustness(const std::string& name) {
  telemetry::MetricsRegistry::global().counter(name).inc();
}

/// The generic Orthogonal-Arbitrary selection used when the
/// model-chosen schema cannot be materialized: first admissible slice,
/// no model-driven search (the point is feasibility, not speed).
KernelSelection generic_oa_selection(const TransposeProblem& problem,
                                     const PerfModel& model,
                                     const sim::DeviceProperties& props) {
  const Index max_smem_elems =
      props.shared_mem_per_block_bytes / problem.elem_size;
  auto cands = enumerate_oa_slices(problem, max_smem_elems);
  TTLG_CHECK_CODE(!cands.empty(), ErrorCode::kUnsupported,
                  "no feasible Orthogonal-Arbitrary slice for fallback");
  KernelSelection sel;
  sel.schema = Schema::kOrthogonalArbitrary;
  sel.oa = build_oa_config(problem, cands.front(),
                           /*enable_coarsening=*/true);
  sel.predicted_s = model.predict_oa(problem, sel.oa);
  sel.candidates_considered = 1;
  return sel;
}

}  // namespace

const char* to_string(ExecPath path) {
  switch (path) {
    case ExecPath::kPlanned:
      return "planned";
    case ExecPath::kGenericOa:
      return "generic-oa";
    case ExecPath::kNaive:
      return "naive";
  }
  return "?";
}

void Plan::release() {
  if (!dev_) return;
  if (tex0_.valid()) dev_->try_free(tex0_);
  if (tex1_.valid()) dev_->try_free(tex1_);
  if (tex2_.valid()) dev_->try_free(tex2_);
  if (fb_tex0_.valid()) dev_->try_free(fb_tex0_);
  if (fb_tex1_.valid()) dev_->try_free(fb_tex1_);
  if (fb_tex2_.valid()) dev_->try_free(fb_tex2_);
  dev_ = nullptr;
}

void Plan::move_from(Plan& o) {
  dev_ = o.dev_;
  problem_ = std::move(o.problem_);
  sel_ = std::move(o.sel_);
  tex0_ = o.tex0_;
  tex1_ = o.tex1_;
  tex2_ = o.tex2_;
  plan_wall_s_ = o.plan_wall_s_;
  path_ = o.path_;
  fallback_enabled_ = o.fallback_enabled_;
  max_exec_retries_ = o.max_exec_retries_;
  last_path_.store(o.last_path_.load());
  exec_mu_ = std::move(o.exec_mu_);
  spec_ = std::move(o.spec_);
  fb_oa_ = std::move(o.fb_oa_);
  fb_tex0_ = o.fb_tex0_;
  fb_tex1_ = o.fb_tex1_;
  fb_tex2_ = o.fb_tex2_;
  naive_cfg_ = std::move(o.naive_cfg_);
  o.dev_ = nullptr;
  o.tex0_ = o.tex1_ = o.tex2_ = {};
  o.fb_tex0_ = o.fb_tex1_ = o.fb_tex2_ = {};
}

Index Plan::grid_blocks() const {
  TTLG_CHECK(valid(), "querying an empty plan");
  switch (sel_.schema) {
    case Schema::kCopy:
    case Schema::kFviMatchLarge:
      return sel_.fvi_large.grid_blocks;
    case Schema::kFviMatchSmall:
      return sel_.fvi_small.grid_blocks;
    case Schema::kOrthogonalDistinct:
      return sel_.od.grid_blocks;
    case Schema::kOrthogonalArbitrary:
      return sel_.oa.grid_blocks;
  }
  TTLG_ASSERT(false, "unreachable schema");
}

std::string Plan::describe() const {
  std::ostringstream os;
  os << to_string(sel_.schema) << " for " << problem_.shape.to_string()
     << " -> " << problem_.perm.to_string() << " (scaled rank "
     << problem_.scaled_rank() << ")";
  switch (sel_.schema) {
    case Schema::kOrthogonalDistinct:
      os << ", slice " << sel_.od.slice.a_vol << "x" << sel_.od.slice.b_vol
         << " (blockA=" << sel_.od.slice.block_a
         << ", blockB=" << sel_.od.slice.block_b << ")";
      break;
    case Schema::kOrthogonalArbitrary:
      os << ", slice " << sel_.oa.in_vol << "x" << sel_.oa.oos_vol
         << ", coarsen=" << sel_.oa.coarsen_extent;
      break;
    case Schema::kFviMatchSmall:
      os << ", b=" << sel_.fvi_small.b << ", pad=" << sel_.fvi_small.pad;
      break;
    default:
      break;
  }
  os << ", predicted " << sel_.predicted_s * 1e6 << " us";
  os << ", specialization=" << to_string(specialization_tier());
  if (degraded()) os << ", degraded[" << to_string(path_) << "]";
  return os.str();
}

void Plan::finalize_specialization(bool enabled) {
  spec_.reset();
  if (enabled && valid() && path_ == ExecPath::kPlanned) {
    telemetry::TraceSpan span("plan.specialize", "planner");
    SpecBuildInput in;
    in.problem = &problem_;
    in.sel = &sel_;
    in.props = &dev_->props();
    in.tex_base[0] = tex0_.base_addr();
    in.tex_base[1] = tex1_.base_addr();
    in.tex_base[2] = tex2_.base_addr();
    spec_ = build_spec_program(in);
  }
  const SpecTier tier = specialization_tier();
  // Tier counters are always on (robustness-class): whether the fleet
  // actually runs specialized is a dashboard query, not a debug flag.
  telemetry::MetricsRegistry::global()
      .counter(std::string("plan.specialization_tier.") + to_string(tier))
      .inc();
  if (telemetry::log_site_enabled(telemetry::LogLevel::kInfo)) {
    telemetry::LogEvent ev(telemetry::LogLevel::kInfo, "planner",
                           "plan.specialized");
    ev.field("tier", to_string(tier))
        .field("schema", to_string(sel_.schema))
        .field("enabled", enabled ? "1" : "0");
    if (spec_)
      ev.field("program_bytes",
               static_cast<double>(spec_->footprint_bytes()));
    ev.detail(std::string("tier=") + to_string(tier) + " " +
              to_string(sel_.schema));
  }
  if (telemetry::recorder_enabled()) {
    telemetry::FlightRecorder::global().note(
        telemetry::LogLevel::kInfo, "planner", "plan.specialized",
        std::string("tier=") + to_string(tier) + " schema=" +
            to_string(sel_.schema));
  }
}

void Plan::record_execution(const sim::LaunchResult& res,
                            bool planned_kernel) const {
  telemetry::MetricsRegistry::global().counter("plan.executions").inc();
  if (telemetry::counters_enabled())
    telemetry::MetricsRegistry::global()
        .histogram("plan.exec_us", {1.0, 3.0, 10.0, 30.0, 100.0, 300.0,
                                    1000.0, 3000.0, 10000.0})
        .observe(res.time_s * 1e6);
  // Accuracy residuals compare the model's prediction with the kernel
  // it actually predicted — fallback executions would poison them.
  if (planned_kernel)
    telemetry::ModelAccuracy::global().record(to_string(sel_.schema),
                                              sel_.predicted_s, res.time_s);
}

void Plan::note_fallback(const char* stage, const char* to,
                         const Error& cause) const {
  count_robustness(std::string("robustness.fallback.") + stage + "." + to);
  if (telemetry::log_site_enabled(telemetry::LogLevel::kWarn)) {
    telemetry::LogEvent ev(telemetry::LogLevel::kWarn, "robustness",
                           "fallback");
    ev.field("stage", stage)
        .field("to", to)
        .field("code", to_string(cause.code()))
        .field("cause", std::string(cause.what()));
    ev.detail(std::string(stage) + "->" + to + " on " +
              to_string(cause.code()));
  }
  if (telemetry::trace_enabled()) {
    telemetry::Json args = telemetry::Json::object();
    args["stage"] = stage;
    args["to"] = to;
    args["code"] = to_string(cause.code());
    args["cause"] = std::string(cause.what());
    telemetry::TraceCollector::global().instant("robustness.fallback",
                                                "robustness",
                                                std::move(args));
  }
}

void Plan::note_recovered() const {
  count_robustness("robustness.recovered");
}

void Plan::validate_window(const LaunchWindow& win) const {
  const Index nb = grid_blocks();
  const Index count = win.count < 0 ? nb - win.offset : win.count;
  TTLG_CHECK(win.offset >= 0 && count > 0 && win.offset + count <= nb,
             "block window out of range for the planned grid");
}

void Plan::validate_member(Index in_base, Index in_size, bool in_backed,
                           Index out_base, Index out_size,
                           bool out_backed) const {
  TTLG_CHECK(in_size == problem_.volume() && out_size == problem_.volume(),
             "buffer sizes must equal the tensor volume");
  // The library is out-of-place only: every kernel scatters writes while
  // reads are still in flight, so any overlap corrupts data silently.
  const Index in_bytes = in_size * problem_.elem_size;
  const Index out_bytes = out_size * problem_.elem_size;
  TTLG_CHECK(!(in_base < out_base + out_bytes &&
               out_base < in_base + in_bytes),
             "input and output buffers alias (overlap); TTLG "
             "transpositions are out-of-place only");
  // Count-only sweeps legitimately run on alloc_virtual handles; only
  // functional execution dereferences the storage.
  if (dev_->mode() == sim::ExecMode::kFunctional)
    TTLG_CHECK(in_backed && out_backed,
               "functional execution requires materialized device "
               "buffers (Device::alloc), got a null/virtual handle");
}

bool Plan::covers_grid(const LaunchWindow& win) const {
  return win.offset == 0 && (win.count < 0 || win.count == grid_blocks()) &&
         win.tex_capture == nullptr;
}

bool Plan::ensure_exec_oa_fallback() const {
  std::lock_guard<std::mutex> lk(*exec_mu_);
  if (fb_oa_) return true;
  try {
    auto sel = generic_oa_selection(problem_, PerfModel(dev_->props()),
                                    dev_->props());
    auto cfg = std::make_unique<OaConfig>(std::move(sel.oa));
    fb_tex0_ = dev_->alloc_copy<Index>(cfg->input_offset);
    fb_tex1_ = dev_->alloc_copy<Index>(cfg->output_offset);
    fb_tex2_ = dev_->alloc_copy<Index>(cfg->sm_out_offset);
    fb_oa_ = std::move(cfg);
    return true;
  } catch (const Error& e) {
    // Free whatever part of the upload survived, then let the ladder
    // proceed to the naive rung; non-retryable errors still propagate.
    if (fb_tex0_.valid()) dev_->try_free(fb_tex0_);
    if (fb_tex1_.valid()) dev_->try_free(fb_tex1_);
    if (fb_tex2_.valid()) dev_->try_free(fb_tex2_);
    fb_tex0_ = fb_tex1_ = fb_tex2_ = {};
    if (!retryable(e.code())) throw;
    return false;
  }
}

const NaiveConfig& Plan::naive_config() const {
  std::lock_guard<std::mutex> lk(*exec_mu_);
  if (!naive_cfg_)
    naive_cfg_ = std::make_unique<NaiveConfig>(build_naive_config(problem_));
  return *naive_cfg_;
}

Plan Plan::from_selection(sim::Device& dev, TransposeProblem problem,
                          KernelSelection sel) {
  telemetry::TraceSpan span("plan.upload_offsets", "planner");
  Plan plan;
  plan.dev_ = &dev;
  plan.problem_ = std::move(problem);
  plan.sel_ = std::move(sel);

  // Upload the offset indirection arrays (they live in texture memory
  // and are shared by all thread blocks; this is plan-time work). If an
  // upload fails mid-way, `plan` unwinds through ~Plan and frees the
  // buffers that did land.
  switch (plan.sel_.schema) {
    case Schema::kOrthogonalDistinct:
      plan.tex0_ = dev.alloc_copy<Index>(plan.sel_.od.in_offset);
      plan.tex1_ = dev.alloc_copy<Index>(plan.sel_.od.out_offset);
      break;
    case Schema::kOrthogonalArbitrary:
      plan.tex0_ = dev.alloc_copy<Index>(plan.sel_.oa.input_offset);
      plan.tex1_ = dev.alloc_copy<Index>(plan.sel_.oa.output_offset);
      plan.tex2_ = dev.alloc_copy<Index>(plan.sel_.oa.sm_out_offset);
      break;
    default:
      break;
  }
  return plan;
}

Plan Plan::naive_fallback_plan(sim::Device& dev, TransposeProblem problem,
                               KernelSelection sel) {
  Plan plan;
  plan.dev_ = &dev;
  plan.problem_ = std::move(problem);
  plan.sel_ = std::move(sel);
  plan.path_ = ExecPath::kNaive;
  plan.last_path_ = ExecPath::kNaive;
  return plan;
}

Plan make_plan(sim::Device& dev, const Shape& shape, const Permutation& perm,
               const PlanOptions& opts) {
  const telemetry::ScopedLevel scoped_level(opts.telemetry);
  std::optional<sim::ScopedFaults> scoped_faults;
  if (opts.faults) scoped_faults.emplace(*opts.faults);
  telemetry::TraceSpan span("make_plan", "planner");
  WallTimer timer;
  auto problem = TransposeProblem::make(shape, perm, opts.elem_size);
  const PerfModel model(dev.props(), opts.model);
  auto sel = select_kernel(problem, model, opts);

  // Plan-time degradation ladder: model-chosen schema -> generic OA ->
  // naive. Only retryable classified failures descend.
  Plan plan;
  try {
    plan = Plan::from_selection(dev, problem, sel);
  } catch (const Error& e) {
    if (!opts.enable_fallback || !retryable(e.code())) throw;
    // Same contract as the execute-time ladder: a request whose
    // deadline already passed must not pay for fallback plan builds.
    throw_if_past_deadline("make_plan.fallback");
    bool recovered = false;
    if (sel.schema != Schema::kOrthogonalArbitrary) {
      try {
        plan = Plan::from_selection(
            dev, problem, generic_oa_selection(problem, model, dev.props()));
        plan.path_ = ExecPath::kGenericOa;
        plan.note_fallback("plan", "oa", e);
        recovered = true;
      } catch (const Error& e2) {
        if (!retryable(e2.code())) throw;
      }
    }
    if (!recovered) {
      plan = Plan::naive_fallback_plan(dev, problem, sel);
      plan.note_fallback("plan", "naive", e);
    }
    plan.note_recovered();
  }
  plan.fallback_enabled_ = opts.enable_fallback;
  plan.max_exec_retries_ = opts.max_exec_retries;
  // Compile the stride program AFTER the ladder settles (degraded plans
  // stay generic) and inside the plan-wall clock: specialization is
  // plan-time work the repeated-use split is supposed to amortize.
  plan.finalize_specialization(opts.specialize &&
                               specialization_enabled_by_env());
  plan.plan_wall_s_ = timer.seconds();
  if (telemetry::counters_enabled()) {
    auto& reg = telemetry::MetricsRegistry::global();
    reg.counter("plan.created").inc();
    reg.histogram("plan.wall_ms",
                  {0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0})
        .observe(plan.plan_wall_s_ * 1e3);
  }
  if (telemetry::log_site_enabled(telemetry::LogLevel::kInfo)) {
    telemetry::LogEvent ev(telemetry::LogLevel::kInfo, "planner",
                           "plan.created");
    ev.field("shape", shape.to_string())
        .field("perm", perm.to_string())
        .field("schema", to_string(plan.schema()))
        .field("predicted_us", plan.predicted_time_s() * 1e6)
        .field("plan_wall_ms", plan.plan_wall_s() * 1e3);
    if (plan.degraded()) ev.field("degraded", to_string(plan.plan_path()));
    ev.detail(std::string(to_string(plan.schema())) + " " +
              shape.to_string() + "->" + perm.to_string());
  }
  if (span.active()) {
    span.arg("shape", shape.to_string());
    span.arg("perm", perm.to_string());
    span.arg("schema", to_string(plan.schema()));
    span.arg("predicted_us", plan.predicted_time_s() * 1e6);
    span.arg("plan_wall_ms", plan.plan_wall_s() * 1e3);
    if (plan.degraded()) span.arg("degraded", to_string(plan.plan_path()));
  }
  return plan;
}

const Status& note_status_failure(const char* site, const Status& st) {
  if (st.is_ok()) return st;
  if (telemetry::log_site_enabled(telemetry::LogLevel::kError)) {
    telemetry::LogEvent ev(telemetry::LogLevel::kError, "robustness",
                           "status.error");
    ev.field("site", site)
        .field("code", to_string(st.code()))
        .field("message", st.message());
    ev.detail(std::string(site) + ": " + st.to_string());
  }
  telemetry::FlightRecorder::global().dump_on_error(site, st.code(),
                                                    st.message());
  return st;
}

Expected<Plan> try_make_plan(sim::Device& dev, const Shape& shape,
                             const Permutation& perm,
                             const PlanOptions& opts) {
  auto res = capture([&] { return make_plan(dev, shape, perm, opts); });
  if (!res.has_value()) note_status_failure("make_plan", res.status());
  return res;
}

double predict_transpose_time(const sim::DeviceProperties& props,
                              const Shape& shape, const Permutation& perm,
                              const PlanOptions& opts) {
  const telemetry::ScopedLevel scoped_level(opts.telemetry);
  const TransposeProblem problem =
      TransposeProblem::make(shape, perm, opts.elem_size);
  const PerfModel model(props, opts.model);
  return select_kernel(problem, model, opts).predicted_s;
}

double achieved_bandwidth_gbps(Index volume, int elem_size, double seconds) {
  TTLG_CHECK(seconds > 0, "non-positive time");
  return 2.0 * static_cast<double>(volume) * elem_size / (seconds * 1e9);
}

}  // namespace ttlg
