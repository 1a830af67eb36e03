// single_use, repeated_use and accumulate_use: the paper's single-use
// (plan + execute) and repeated-use (execute only) split, plus the
// alpha/beta epilogue on the repeated path. One caller, one simulated
// K40c, telemetry off, device-resident buffers allocated at set-up so an
// op stages nothing. The device runs blocks on the calling thread: with
// two block-execution threads every launch waited on a pool worker's
// wake-up, which on a shared 4-core VM made repeated_use 3x slower and
// its ops/s spread 5.3K-8.4K between runs of one seed (15K-18K with one).
#include <malloc.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>

#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "gpusim/device.hpp"
#include "mix.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ttlg;

enum class Kind { kSingleUse, kRepeatedUse, kAccumulateUse };

// Powers of two: alpha*x + beta*y rounds once whether or not the
// compiler contracts it, so the host oracle is exact.
constexpr double kAlpha = 2.0;
constexpr double kBeta = 0.5;
/// Latency limit of the replayed fixed-schedule caller (max_rate_per_s):
/// above the host stalls seen on a shared 4-core VM (tens of ms), so
/// that the op times, not a stall, set the rate.
constexpr double kReplayLimitUs = 50000;
constexpr int kSetupReps = 11;

template <class T>
struct Resident {
  std::vector<T> expected;  ///< output of one op
  std::vector<T> prior;     ///< accumulate_use: `out` before each op
  sim::DeviceBuffer<T> in, out;
};

struct Case {
  Problem p;
  Resident<float> f32;
  Resident<double> f64;
};

template <class T>
Resident<T>& resident(Case& c) {
  if constexpr (sizeof(T) == 4) {
    return c.f32;
  } else {
    return c.f64;
  }
}

/// Dispatch on the case's element type.
template <class F>
decltype(auto) with_type(const Case& c, F&& f) {
  if (c.p.elem == 4) return f(float{});
  return f(double{});
}

struct Spans {
  std::uint32_t op, problem, select, upload, specialize, cache_get, execute;
  explicit Spans(Tracer& tr)
      : op(tr.intern("op")),
        problem(tr.intern("core.problem")),
        select(tr.intern("core.select")),
        upload(tr.intern("core.upload")),
        specialize(tr.intern("core.specialize")),
        cache_get(tr.intern("core.cache_get")),
        execute(tr.intern("core.execute")) {}
};

/// One set-up: the device, resident cases and (repeated paths) the
/// filled plan cache. Declaration order = destruction order reversed:
/// plans release their device buffers before the device goes.
struct State {
  std::unique_ptr<sim::Device> dev;
  std::vector<Case> cases;
  std::unique_ptr<PlanCache> cache;
  std::vector<double> fill_plan_us;
};

struct OpOut {
  sim::LaunchResult launch;
  SpecTier tier = SpecTier::kGeneric;
  Schema schema = Schema::kCopy;
  Index candidates = 0;
  bool cache_hit = false;
};

class LibraryBench {
 public:
  LibraryBench(const Options& opt, Kind kind)
      : opt_(opt), kind_(kind), tracer_(opt.trace ? 1 << 20 : 0), ids_(tracer_) {}

  RunResult run();

 private:
  std::unique_ptr<State> setup(const std::vector<Problem>& mix,
                               SimTotals& totals, std::vector<double>& tiers,
                               double& candidates);
  /// The measured op. `staged` plans through make_plan's public stages
  /// (the traced path); the plan of a single-use op is moved to `keep`
  /// so that dropping it falls outside the timed interval.
  template <class T>
  OpOut op(State& st, Case& c, std::int64_t id, std::int32_t root,
           bool staged, Plan& keep);
  template <class T>
  void prepare(Case& c);
  template <class T>
  bool verify(Case& c);
  OpOut run_op(State& st, Case& c, std::int64_t id, std::int32_t root,
               bool staged, Plan& keep) {
    return with_type(c, [&](auto tag) {
      return op<decltype(tag)>(st, c, id, root, staged, keep);
    });
  }
  /// One verified pass over every distinct problem.
  void verified_pass(State& st, bool staged, SimTotals& totals,
                     std::vector<double>& tiers, double& candidates);

  const Options& opt_;
  Kind kind_;
  Tracer tracer_;
  Spans ids_;
  std::vector<std::string> errors_;
  std::map<std::string, double> schemas_;  ///< problems per schema
};

template <class T>
void LibraryBench::prepare(Case& c) {
  Resident<T>& r = resident<T>(c);
  if (kind_ == Kind::kAccumulateUse) {
    std::memcpy(r.out.data(), r.prior.data(), r.prior.size() * sizeof(T));
  } else {
    // Poison: all-ones bytes are NaNs, so an element the op fails to
    // write can never compare equal to the oracle.
    std::memset(r.out.data(), 0xFF, static_cast<std::size_t>(r.out.size()) * sizeof(T));
  }
}

template <class T>
bool LibraryBench::verify(Case& c) {
  Resident<T>& r = resident<T>(c);
  return std::memcmp(r.out.data(), r.expected.data(),
                     r.expected.size() * sizeof(T)) == 0;
}

template <class T>
OpOut LibraryBench::op(State& st, Case& c, std::int64_t id, std::int32_t root,
                       bool staged, Plan& keep) {
  Resident<T>& r = resident<T>(c);
  sim::Device& dev = *st.dev;
  PlanOptions popts;
  popts.elem_size = c.p.elem;
  OpOut out;
  if (kind_ == Kind::kSingleUse) {
    if (staged) {
      std::optional<TransposeProblem> problem;
      KernelSelection sel;
      {
        StageSpan s(tracer_, ids_.problem, id, root);
        problem.emplace(TransposeProblem::make(c.p.shape, c.p.perm, c.p.elem));
      }
      {
        StageSpan s(tracer_, ids_.select, id, root);
        const PerfModel model(dev.props(), popts.model);
        sel = select_kernel(*problem, model, popts);
      }
      {
        StageSpan s(tracer_, ids_.upload, id, root);
        keep = Plan::from_selection(dev, std::move(*problem), sel);
      }
      {
        StageSpan s(tracer_, ids_.specialize, id, root);
        keep.finalize_specialization(true);
      }
    } else {
      keep = make_plan(dev, c.p.shape, c.p.perm, popts);
    }
    StageSpan s(tracer_, ids_.execute, id, root);
    out.launch = keep.execute<T>(r.in, r.out);
    out.tier = keep.specialization_tier();
    out.schema = keep.schema();
    out.candidates = keep.selection().candidates_considered;
    return out;
  }
  std::shared_ptr<const Plan> plan;
  {
    StageSpan s(tracer_, ids_.cache_get, id, root);
    plan = st.cache->get_shared(dev, c.p.shape, c.p.perm, popts, &out.cache_hit);
  }
  {
    StageSpan s(tracer_, ids_.execute, id, root);
    out.launch = kind_ == Kind::kAccumulateUse
                     ? plan->execute<T>(r.in, r.out, static_cast<T>(kAlpha),
                                        static_cast<T>(kBeta))
                     : plan->execute<T>(r.in, r.out);
  }
  out.tier = plan->specialization_tier();
  out.schema = plan->schema();
  out.candidates = plan->selection().candidates_considered;
  return out;
}

void LibraryBench::verified_pass(State& st, bool staged, SimTotals& totals,
                                 std::vector<double>& tiers,
                                 double& candidates) {
  totals = SimTotals{};
  schemas_.clear();
  tiers.assign(4, 0);
  candidates = 0;
  for (Case& c : st.cases) {
    Plan keep;
    with_type(c, [&](auto tag) { prepare<decltype(tag)>(c); });
    const OpOut o = run_op(st, c, -1, -1, staged, keep);
    const bool ok = with_type(c, [&](auto tag) { return verify<decltype(tag)>(c); });
    if (!ok) errors_.push_back("set-up verification failed: " + c.p.to_string());
    const sim::LaunchCounters& k = o.launch.counters;
    totals.gld += static_cast<double>(k.gld_transactions);
    totals.gst += static_cast<double>(k.gst_transactions);
    totals.smem_conflicts += static_cast<double>(k.smem_bank_conflicts);
    totals.tex_misses += static_cast<double>(k.tex_misses);
    totals.blocks += static_cast<double>(k.grid_blocks);
    totals.kernel_s += o.launch.time_s;
    totals.gbps.push_back(achieved_bandwidth_gbps(c.p.shape.volume(), c.p.elem,
                                                  o.launch.time_s));
    tiers[static_cast<std::size_t>(o.tier)] += 1;
    candidates += static_cast<double>(o.candidates);
    schemas_["core.schema." + to_string(o.schema)] += 1;
  }
  candidates /= static_cast<double>(st.cases.size());
}

std::unique_ptr<State> LibraryBench::setup(const std::vector<Problem>& mix,
                                           SimTotals& totals,
                                           std::vector<double>& tiers,
                                           double& candidates) {
  auto st = std::make_unique<State>();
  st->dev = std::make_unique<sim::Device>(sim::DeviceProperties::tesla_k40c());
  st->dev->set_num_threads(1);
  st->cases.resize(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    Case& c = st->cases[i];
    c.p = mix[i];
    with_type(c, [&](auto tag) {
      using T = decltype(tag);
      Resident<T>& r = resident<T>(c);
      const std::int64_t n = c.p.shape.volume();
      const std::uint64_t s = opt_.seed * 1000003ull + i;
      const std::vector<T> input = make_values<T>(s, n);
      r.expected = oracle_transpose(input, c.p.shape, c.p.perm);
      if (kind_ == Kind::kAccumulateUse) {
        r.prior = make_values<T>(s ^ 0xA5A5A5A5ull, n);
        for (std::size_t e = 0; e < r.expected.size(); ++e)
          r.expected[e] = static_cast<T>(kAlpha) * r.expected[e] +
                          static_cast<T>(kBeta) * r.prior[e];
      }
      r.in = st->dev->alloc_copy<T>(std::span<const T>(input));
      r.out = st->dev->alloc<T>(n);
    });
  }
  if (kind_ != Kind::kSingleUse) {
    st->cache = std::make_unique<PlanCache>();
    for (Case& c : st->cases) {
      PlanOptions popts;
      popts.elem_size = c.p.elem;
      const std::int64_t t0 = now_ns();
      st->cache->get_shared(*st->dev, c.p.shape, c.p.perm, popts);
      st->fill_plan_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
  }
  verified_pass(*st, opt_.trace, totals, tiers, candidates);
  return st;
}

RunResult LibraryBench::run() {
  RunResult r;
  add_zero_layers(r);
  telemetry::set_level(telemetry::Level::kOff);
  // Keep freed memory in the process (no mmap for large blocks, no
  // trimming), so that repeated set-ups reuse the same pages and the
  // median set-up measures its work, not the host's page-fault cost.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const std::vector<Problem> mix = library_mix();

  // Set up several times and keep the last: the median is steadier than
  // one set-up of a few tens of milliseconds.
  SimTotals totals;
  std::vector<double> tiers, setup_s;
  double candidates = 0;
  std::unique_ptr<State> st;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    const std::int64_t t0 = now_ns();
    st = setup(mix, totals, tiers, candidates);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  r.e2e("setup_s", median(setup_s), "s");
  r.info["setup_reps"] = kSetupReps;
  r.info["setup_min_s"] = *std::min_element(setup_s.begin(), setup_s.end());
  r.info["setup_max_s"] = *std::max_element(setup_s.begin(), setup_s.end());

  // The other path through the planner (make_plan vs its public stages)
  // must give the same simulated results.
  if (kind_ == Kind::kSingleUse) {
    SimTotals other;
    std::vector<double> other_tiers;
    double other_candidates = 0;
    verified_pass(*st, !opt_.trace, other, other_tiers, other_candidates);
    if (other.kernel_s != totals.kernel_s || other.gld != totals.gld ||
        other.tex_misses != totals.tex_misses || other_tiers != tiers ||
        other_candidates != candidates)
      errors_.push_back("staged planning differs from make_plan");
  }
  totals.store(r);
  r.exact.insert(schemas_.begin(), schemas_.end());
  store_planner_choices(r, tiers, candidates);

  // Timed phase: cycles over a fresh seeded shuffle of the mix; in the
  // traced run every other cycle records spans, and the untraced cycles
  // give the baseline for bench.trace_overhead.
  SeedRng order_rng(opt_.seed * 7919 + 3);
  std::vector<std::size_t> order(st->cases.size());
  std::vector<double> op_us, traced_us;
  op_us.reserve(1 << 20);
  double exec_ns = 0, exec_blocks = 0;
  std::int64_t hits = 0, gets = 0, id = 0;
  const std::int64_t inject_at = opt_.inject == "flip" ? 100 : -1;
  const std::int64_t bytes0 = st->dev->bytes_allocated();
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(opt_.seconds * 1e9);
  const ProcessUsage usage0 = ProcessUsage::now();
  for (std::int64_t cycle = 0; now_ns() < deadline; ++cycle) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size() - 1; i > 0; --i)
      std::swap(order[i], order[static_cast<std::size_t>(
                              order_rng.range(0, static_cast<std::int64_t>(i)))]);
    const bool traced = opt_.trace && cycle % 2 == 1;
    tracer_.enabled = traced;
    for (const std::size_t ci : order) {
      Case& c = st->cases[ci];
      with_type(c, [&](auto tag) { prepare<decltype(tag)>(c); });
      Plan keep;
      const std::int64_t t0 = now_ns();
      const std::int32_t root = tracer_.open(ids_.op, id, -1, t0);
      const OpOut o = run_op(*st, c, id, root, traced, keep);
      const std::int64_t t1 = now_ns();
      tracer_.close(root, t1);
      keep = Plan();
      if (id == inject_at) {
        with_type(c, [&](auto tag) {
          using T = decltype(tag);
          T& x = resident<T>(c).out[0];
          x = x + static_cast<T>(1);
        });
      }
      ++r.attempted;
      if (!with_type(c, [&](auto tag) { return verify<decltype(tag)>(c); }))
        ++r.failed;
      (traced ? traced_us : op_us).push_back(static_cast<double>(t1 - t0) * 1e-3);
      if (traced) exec_blocks += static_cast<double>(o.launch.counters.grid_blocks);
      if (kind_ != Kind::kSingleUse) {
        ++gets;
        hits += o.cache_hit ? 1 : 0;
      }
      ++id;
    }
  }
  const ProcessUsage usage = ProcessUsage::now() - usage0;
  tracer_.enabled = false;

  r.e2e("ops_per_s", windowed_rate(op_us, kWindows), "1/s");
  r.e2e("op_p50_us", median(op_us), "us");
  r.e2e("op_p99_us", windowed_quantile(op_us, 0.99, kWindows), "us");
  r.e2e("max_rate_per_s", replay_max_rate(op_us, kReplayLimitUs, kWindows), "1/s");
  r.info["op_samples"] = static_cast<double>(op_us.size());
  r.info["traced_op_samples"] = static_cast<double>(traced_us.size());

  if (opt_.trace) {
    const auto med = [&](const char* name) {
      return median(tracer_.durations_us(name));
    };
    r.layer("core.execute_us", med("core.execute"), "us");
    for (const double d : tracer_.durations_us("core.execute")) exec_ns += d * 1e3;
    r.layer("core.execute_ns_per_block",
            exec_blocks > 0 ? exec_ns / exec_blocks : 0, "ns");
    if (kind_ == Kind::kSingleUse) {
      r.layer("core.problem_us", med("core.problem"), "us");
      r.layer("core.select_us", med("core.select"), "us");
      r.layer("core.upload_us", med("core.upload"), "us");
      r.layer("core.specialize_us", med("core.specialize"), "us");
      // Per-op planning time: the four stages of each traced op.
      std::vector<double> plan_us(static_cast<std::size_t>(id), 0.0);
      for (const auto& s : tracer_.spans()) {
        const std::string& n = tracer_.name(s.name);
        if (n == "core.problem" || n == "core.select" || n == "core.upload" ||
            n == "core.specialize")
          plan_us[static_cast<std::size_t>(s.op)] +=
              static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3;
      }
      std::erase(plan_us, 0.0);
      r.layer("core.plan_us", median(plan_us), "us");
    } else {
      r.layer("core.plan_us", median(st->fill_plan_us), "us");
      r.layer("core.cache_get_us", med("core.cache_get"), "us");
      r.layer("core.cache_hit_ratio",
              gets > 0 ? static_cast<double>(hits) / static_cast<double>(gets) : 0,
              "ratio");
    }
    r.layer("bench.stage_gap", tracer_.median_uncovered_share(), "ratio");
    r.layer("bench.trace_overhead", median(traced_us) / median(op_us) - 1.0,
            "ratio");
    add_process_metrics(r, usage, r.attempted);
    tracer_.write_chrome_trace(opt_.out_dir + "/trace_" + opt_.workload +
                               "_seed" + std::to_string(opt_.seed) + ".json");
  }
  r.layer("gpusim.device_bytes_retained",
          static_cast<double>(st->dev->bytes_allocated() - bytes0), "bytes");
  r.errors.insert(r.errors.end(), errors_.begin(), errors_.end());
  st.reset();
  return r;
}

}  // namespace

RunResult run_library(const Options& opt) {
  const Kind kind = opt.workload == "single_use"     ? Kind::kSingleUse
                    : opt.workload == "repeated_use" ? Kind::kRepeatedUse
                                                     : Kind::kAccumulateUse;
  return LibraryBench(opt, kind).run();
}

}  // namespace perfbench
