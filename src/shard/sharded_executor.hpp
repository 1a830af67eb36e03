// Multi-device sharded execution: split one transposition along the
// outermost non-trivial extent of its planned grid, run the shards
// concurrently on a Fleet of simulated devices, charge cross-device
// transfers, and roll the per-shard hardware counters up.
//
// Two policies (docs/sharding.md):
//
//  - kUniform (default): ONE plan is made against the REFERENCE device
//    (fleet descriptor 0), specialized like any make_plan plan, and
//    every shard launches a disjoint block-id window of its grid on its
//    own device (a windowed Plan::launch descriptor naming that
//    device). Because block ids stay absolute and the counting-relevant
//    DeviceProperties are shared by the shipped profiles, the summed
//    per-shard LaunchCounters — including tex_misses, reconstructed by
//    replaying the captured texture logs through one reference cache in
//    shard order — equal the unsharded launch EXACTLY, failover
//    included (every window charges the texture lines of the one plan).
//
//  - kPerDevice: the split-axis extent is carved into slabs and each
//    slab is re-planned from scratch on its own device (make_plan with
//    that device's PerfModel — per-descriptor planning for
//    heterogeneous fleets). Outputs stay byte-identical; counters are
//    approximate (per-slab plans need not tile the reference grid).
//
// Both policies merge shard outputs into the caller's buffer only
// after EVERY shard succeeded — a failed run never leaves a partially
// written output. A failed shard batch is retried on the next healthy
// device (failover) before the run fails classified. Device-side
// mirrors, slab buffers and the reference plan are per-run scratch,
// released on every path: each device's bytes_allocated() returns to
// its pre-run value.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/plan.hpp"
#include "gpusim/thread_pool.hpp"
#include "shard/fleet.hpp"
#include "shard/shard_counters.hpp"
#include "shard/shard_split.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace ttlg::shard {

enum class ShardPolicy : int { kUniform = 0, kPerDevice = 1 };

const char* to_string(ShardPolicy policy);

struct ShardOptions {
  /// Shard count; 0 = one per fleet device. Clamped to the split
  /// axis's extent (a problem that cannot split that far runs on
  /// fewer shards — never incorrectly).
  int num_shards = 0;
  ShardPolicy policy = ShardPolicy::kUniform;
  PlanOptions plan;  ///< planner knobs (elem_size set per call)
  /// Class-sampled counting for count-only runs (Device::set_sampling):
  /// big grids count in O(classes) instead of O(blocks). Approximate
  /// counters; 0 (default) = exact.
  int sampling = 0;
  /// Retry a failed shard batch on the next fleet device before
  /// failing the run.
  bool failover = true;
};

/// One executed shard: placement, geometry, counters, time.
struct ShardExecution {
  int index = 0;   ///< shard id (range order along the axis)
  int device = 0;  ///< fleet device that finally ran it
  bool failed_over = false;
  Index dim_lo = 0, dim_hi = 0;  ///< split-axis coords (fused output)
  Index block_begin = 0, block_count = 0;  ///< uniform-policy window
  sim::LaunchCounters counters;
  double exec_s = 0;
  double transfer_in_s = 0, transfer_out_s = 0;
  Index bytes_in = 0, bytes_out = 0;
};

struct ShardedResult {
  Schema schema = Schema::kCopy;  ///< reference selection's schema
  ShardPolicy policy = ShardPolicy::kUniform;
  int requested_shards = 0;
  Index axis_out_pos = -1;  ///< fused-output dim of the split (-1 = unsplit)
  std::vector<ShardExecution> shards;
  /// True when the per-shard counter sum is exact (uniform policy, no
  /// sampling).
  bool counters_exact = false;
  double makespan_s = 0;     ///< max over devices: t_in + execs + t_out
  double exec_s = 0;         ///< kernel time only (same max)
  Index transfer_bytes = 0;  ///< total bytes crossing the interconnect

  ShardCounters counters() const {
    ShardCounters c;
    c.per_shard.reserve(shards.size());
    for (const auto& s : shards) c.per_shard.push_back(s.counters);
    return c;
  }

  /// The paper's metric over the whole fleet: payload / makespan.
  double aggregate_bandwidth_gbps(Index volume, int elem_size) const {
    return achieved_bandwidth_gbps(volume, elem_size, makespan_s);
  }
};

class ShardedExecutor {
 public:
  explicit ShardedExecutor(Fleet& fleet, ShardOptions opts = {})
      : fleet_(fleet), opts_(opts) {}

  const ShardOptions& options() const { return opts_; }

  /// Execute out = alpha * permute(in) + beta * out across the fleet.
  /// Classified failures come back as a Status (with a flight-recorder
  /// post-mortem); the output buffer is untouched unless the whole run
  /// succeeded.
  template <class T>
  Expected<ShardedResult> run(const Shape& shape, const Permutation& perm,
                              std::span<const T> in, std::span<T> out,
                              T alpha = T{1}, T beta = T{0}) {
    auto res = capture(
        [&] { return run_impl<T>(shape, perm, &in, &out, alpha, beta); });
    if (!res.has_value()) note_status_failure("shard.run", res.status());
    return res;
  }

  /// Count-only run on virtual buffers: counters, times and the
  /// transfer model without host data (bench scale-out sweeps).
  Expected<ShardedResult> run_count_only(const Shape& shape,
                                         const Permutation& perm,
                                         int elem_size);

 private:
  /// Per-device working state for one run (or one failover retry, or
  /// one per-device slab). Held by unique_ptr so shard->owner pointers
  /// survive container growth when retries append states. The mirrors
  /// are freed with the state — on success, failover, classified
  /// failure and count-only runs alike.
  template <class T>
  struct DeviceState {
    sim::Device* dev = nullptr;    // device holding the mirrors
    sim::DeviceBuffer<T> in, out;  // device-local mirrors
    std::vector<int> shard_ids;    // shards batched on this state

    DeviceState() = default;
    DeviceState(const DeviceState&) = delete;
    DeviceState& operator=(const DeviceState&) = delete;
    ~DeviceState() {
      if (dev == nullptr) return;
      dev->try_free(in);  // no-op for a mirror that was never allocated
      dev->try_free(out);
    }
  };

  /// Scoped execution-mode/sampling switch over the whole fleet.
  class FleetModeGuard {
   public:
    FleetModeGuard(Fleet& fleet, sim::ExecMode mode, int sampling)
        : fleet_(fleet) {
      prev_.reserve(static_cast<std::size_t>(fleet.size()));
      for (int i = 0; i < fleet.size(); ++i) {
        auto& d = fleet.device(i);
        prev_.emplace_back(d.mode(), d.sampling());
        d.set_mode(mode);
        d.set_sampling(sampling);
      }
    }
    ~FleetModeGuard() {
      for (int i = 0; i < fleet_.size(); ++i) {
        fleet_.device(i).set_mode(prev_[static_cast<std::size_t>(i)].first);
        fleet_.device(i).set_sampling(
            prev_[static_cast<std::size_t>(i)].second);
      }
    }

   private:
    Fleet& fleet_;
    std::vector<std::pair<sim::ExecMode, int>> prev_;
  };

  template <class T>
  ShardedResult run_impl(const Shape& shape, const Permutation& perm,
                         std::span<const T>* in, std::span<T>* out, T alpha,
                         T beta);

  template <class T>
  ShardedResult run_uniform(const TransposeProblem& problem,
                            std::span<const T>* in, std::span<T>* out,
                            T alpha, T beta);

  template <class T>
  ShardedResult run_per_device(const TransposeProblem& problem,
                               std::span<const T>* in, std::span<T>* out,
                               T alpha, T beta);

  /// Replay the captured texture logs (shard order) through one
  /// reference-device cache, assigning the misses each shard produced.
  void replay_tex_logs(const std::vector<std::vector<std::int64_t>>& logs,
                       std::vector<ShardExecution>& shards) const;

  /// Recompute per-shard times from final counters, charge the link
  /// model, compute the makespan and emit shard.* telemetry.
  void finalize(ShardedResult& res, const TransposeProblem& problem) const;

  Fleet& fleet_;
  ShardOptions opts_;
};

// ---------------------------------------------------------------------------
// Template implementation.

template <class T>
ShardedResult ShardedExecutor::run_impl(const Shape& shape,
                                        const Permutation& perm,
                                        std::span<const T>* in,
                                        std::span<T>* out, T alpha, T beta) {
  const bool functional = in != nullptr;
  if (functional) {
    TTLG_CHECK(static_cast<Index>(in->size()) == shape.volume() &&
                   static_cast<Index>(out->size()) == shape.volume(),
               "buffer sizes must equal the tensor volume");
  }
  // One run owns the fleet: devices' execution modes and allocation
  // sequences must not interleave with another run's.
  std::lock_guard<std::mutex> lk(fleet_.run_mutex());
  telemetry::TraceSpan span("shard.run", "shard");
  const TransposeProblem problem =
      TransposeProblem::make(shape, perm, static_cast<int>(sizeof(T)));
  FleetModeGuard guard(fleet_,
                       functional ? sim::ExecMode::kFunctional
                                  : sim::ExecMode::kCountOnly,
                       functional ? 0 : opts_.sampling);
  ShardedResult res = opts_.policy == ShardPolicy::kUniform
                          ? run_uniform<T>(problem, in, out, alpha, beta)
                          : run_per_device<T>(problem, in, out, alpha, beta);
  finalize(res, problem);
  return res;
}

template <class T>
ShardedResult ShardedExecutor::run_uniform(const TransposeProblem& problem,
                                           std::span<const T>* in,
                                           std::span<T>* out, T alpha,
                                           T beta) {
  const bool functional = in != nullptr;
  const int fleet_n = fleet_.size();
  const int requested = opts_.num_shards > 0 ? opts_.num_shards : fleet_n;

  // Plan ONCE against the reference device; every shard launches a
  // window of this plan's grid (identical per-block work on every
  // device — the exact-counters invariant). Without the fallback
  // ladder: Plan::launch refuses degraded plans as kUnsupported, which
  // callers do not retry, so a planning fault fails the run with its
  // own (retryable) code instead.
  PlanOptions popts = opts_.plan;
  popts.elem_size = static_cast<int>(sizeof(T));
  popts.enable_fallback = false;
  const Plan plan =
      make_plan(fleet_.device(0), problem.shape, problem.perm, popts);
  const ShardAxis axis = find_shard_axis(problem, plan.selection());
  const std::vector<ShardRange> ranges =
      partition_axis(axis, requested, plan.grid_blocks());
  const int n = static_cast<int>(ranges.size());

  ShardedResult res;
  res.schema = plan.schema();
  res.policy = ShardPolicy::kUniform;
  res.requested_shards = requested;
  res.axis_out_pos = axis.out_pos;
  res.shards.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& s = res.shards[static_cast<std::size_t>(i)];
    const auto& r = ranges[static_cast<std::size_t>(i)];
    s.index = i;
    s.device = i % fleet_n;
    s.dim_lo = r.dim_lo;
    s.dim_hi = r.dim_hi;
    s.block_begin = r.block_begin;
    s.block_count = r.block_count;
  }

  std::vector<std::unique_ptr<DeviceState<T>>> states;
  states.reserve(static_cast<std::size_t>(fleet_n));
  for (int j = 0; j < fleet_n; ++j)
    states.push_back(std::make_unique<DeviceState<T>>());
  for (int i = 0; i < n; ++i)
    states[static_cast<std::size_t>(i % fleet_n)]->shard_ids.push_back(i);
  // shard id -> state holding its executed output mirror.
  std::vector<DeviceState<T>*> owner(static_cast<std::size_t>(n), nullptr);
  std::vector<std::vector<std::int64_t>> tex_logs(
      static_cast<std::size_t>(n));
  std::vector<Status> device_status(static_cast<std::size_t>(fleet_n));

  // Sampled block counting ignores per-launch texture capture, so skip
  // capture there and keep the device's own (approximate) miss counts.
  const bool want_capture = functional || opts_.sampling == 0;

  // Run one shard batch on device j: mirrors + one windowed launch of
  // the reference plan per shard, in shard order. A failover retry
  // launches the same plan, so it replays the same texture addresses
  // and its captured logs keep the fold exact.
  const auto run_batch = [&](int j, DeviceState<T>& st) -> Status {
    return capture([&]() -> int {
             sim::Device& dev = fleet_.device(j);
             st.dev = &dev;
             if (functional) {
               st.in = dev.alloc_copy<T>(*in);
               st.out = dev.alloc_copy<T>(
                   std::span<const T>(out->data(), out->size()));
             } else {
               st.in = dev.alloc_virtual<T>(problem.volume());
               st.out = dev.alloc_virtual<T>(problem.volume());
             }
             for (const int i : st.shard_ids) {
               auto& s = res.shards[static_cast<std::size_t>(i)];
               LaunchWindow win;
               win.offset = s.block_begin;
               win.count = s.block_count;
               win.tex_capture =
                   want_capture ? &tex_logs[static_cast<std::size_t>(i)]
                                : nullptr;
               const MemberPair<T> member{st.in, st.out};
               const sim::LaunchResult r =
                   plan.launch(LaunchDescriptor<T>{
                       {&member, 1}, win, {alpha, beta}, &dev}).front();
               s.counters = r.counters;
               s.exec_s = r.time_s;
             }
             return 0;
           })
        .status();
  };

  // Round 1: every device batch concurrently on the shared pool.
  sim::ThreadPool::global().run_indexed(
      fleet_n, fleet_n, [&](std::int64_t j) {
        auto& st = *states[static_cast<std::size_t>(j)];
        if (st.shard_ids.empty()) return;
        device_status[static_cast<std::size_t>(j)] =
            run_batch(static_cast<int>(j), st);
      });
  for (int j = 0; j < fleet_n; ++j) {
    if (!device_status[static_cast<std::size_t>(j)].is_ok()) continue;
    for (const int i : states[static_cast<std::size_t>(j)]->shard_ids)
      owner[static_cast<std::size_t>(i)] =
          states[static_cast<std::size_t>(j)].get();
  }

  // Failover round (serial): retry each failed batch on the next
  // healthy devices in fleet order, recapturing its texture logs.
  for (int j = 0; j < fleet_n; ++j) {
    Status& st_j = device_status[static_cast<std::size_t>(j)];
    const std::vector<int> failed =
        states[static_cast<std::size_t>(j)]->shard_ids;
    if (st_j.is_ok() || failed.empty()) continue;
    if (opts_.failover && fleet_n > 1 && retryable(st_j.code())) {
      for (int step = 1; step < fleet_n && !st_j.is_ok(); ++step) {
        const int k = (j + step) % fleet_n;
        if (!device_status[static_cast<std::size_t>(k)].is_ok()) continue;
        auto retry = std::make_unique<DeviceState<T>>();
        retry->shard_ids = failed;
        for (const int i : failed)
          tex_logs[static_cast<std::size_t>(i)].clear();
        if (run_batch(k, *retry).is_ok()) {
          for (const int i : failed) {
            res.shards[static_cast<std::size_t>(i)].device = k;
            res.shards[static_cast<std::size_t>(i)].failed_over = true;
            owner[static_cast<std::size_t>(i)] = retry.get();
          }
          states.push_back(std::move(retry));
          st_j = Status::ok();
          telemetry::MetricsRegistry::global()
              .counter("shard.failovers")
              .inc();
        }
      }
    }
    if (!st_j.is_ok()) {
      telemetry::MetricsRegistry::global().counter("shard.failures").inc();
      st_j.raise_if_error();  // classified; caller's output untouched
    }
  }

  // Every shard succeeded: replay texture logs for exact tex_misses,
  // then (functional runs) merge each shard's output region runs.
  replay_tex_logs(tex_logs, res.shards);
  res.counters_exact = want_capture;
  if (functional) {
    for (int i = 0; i < n; ++i) {
      const DeviceState<T>* st = owner[static_cast<std::size_t>(i)];
      TTLG_CHECK(st != nullptr, "shard without an executed mirror");
      const RegionRuns rr =
          region_runs(problem, axis, ranges[static_cast<std::size_t>(i)]);
      for (Index c = 0; c < rr.count; ++c) {
        const Index off = rr.base + c * rr.period;
        std::memcpy(out->data() + off, st->out.data() + off,
                    static_cast<std::size_t>(rr.run) * sizeof(T));
      }
    }
  }
  return res;
}

template <class T>
ShardedResult ShardedExecutor::run_per_device(const TransposeProblem& problem,
                                              std::span<const T>* in,
                                              std::span<T>* out, T alpha,
                                              T beta) {
  const bool functional = in != nullptr;
  const int fleet_n = fleet_.size();
  const int requested = opts_.num_shards > 0 ? opts_.num_shards : fleet_n;
  const Shape& fs = problem.fused.shape;
  const Permutation& fp = problem.fused.perm;
  const Shape& fo = problem.fused_out;

  // Split along the outermost fused INPUT dim with extent > 1: each
  // shard's input slab is then contiguous, and its output region is a
  // strided run set at that dim's output position.
  Index d = -1;
  for (Index k = fs.rank() - 1; k >= 0; --k) {
    if (fs.extent(k) > 1) {
      d = k;
      break;
    }
  }
  const Index extent = d >= 0 ? fs.extent(d) : 1;
  const Index q = d >= 0 ? fp.position_of(d) : -1;
  const Index n = std::clamp<Index>(requested, 1, std::max<Index>(extent, 1));

  ShardedResult res;
  res.policy = ShardPolicy::kPerDevice;
  res.requested_shards = requested;
  res.axis_out_pos = q;
  res.shards.resize(static_cast<std::size_t>(n));

  struct Slab {
    Index lo = 0, hi = 0;
    std::vector<T> out_host;  // executed slab output, merge staging
    Schema schema = Schema::kCopy;
  };
  std::vector<Slab> slabs(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    slabs[static_cast<std::size_t>(i)].lo = extent * i / n;
    slabs[static_cast<std::size_t>(i)].hi = extent * (i + 1) / n;
  }

  PlanOptions popts = opts_.plan;
  popts.elem_size = static_cast<int>(sizeof(T));

  // One slab end-to-end on device `dev_idx`: gather, re-plan against
  // THIS device's descriptor (per-descriptor planning — the point of
  // this policy on heterogeneous fleets), execute, stage the slab
  // output host-side for the post-success merge.
  const auto run_slab = [&](Index i, int dev_idx) -> Status {
    return capture([&]() -> int {
             sim::Device& dev = fleet_.device(dev_idx);
             Slab& slab = slabs[static_cast<std::size_t>(i)];
             auto& s = res.shards[static_cast<std::size_t>(i)];
             const Index w = slab.hi - slab.lo;
             Extents ext = fs.extents();
             if (d >= 0) ext[static_cast<std::size_t>(d)] = w;
             const Shape slab_shape(ext);
             const Index slab_vol = slab_shape.volume();

             DeviceState<T> st;  // frees the slab buffers on every path
             st.dev = &dev;
             if (functional) {
               const Index base = d >= 0 ? slab.lo * fs.stride(d) : 0;
               st.in = dev.alloc_copy<T>(
                   in->subspan(static_cast<std::size_t>(base),
                               static_cast<std::size_t>(slab_vol)));
               if (beta != T{0}) {
                 // beta reads the previous output: gather the caller's
                 // output region into the slab layout first.
                 std::vector<T> prev(static_cast<std::size_t>(slab_vol));
                 if (d >= 0) {
                   const Index stride_q = fo.stride(q);
                   const Index run = w * stride_q;
                   const Index period = stride_q * extent;
                   const Index count = problem.volume() / period;
                   for (Index c = 0; c < count; ++c)
                     std::memcpy(
                         prev.data() + c * run,
                         out->data() + slab.lo * stride_q + c * period,
                         static_cast<std::size_t>(run) * sizeof(T));
                 } else {
                   std::memcpy(
                       prev.data(), out->data(),
                       static_cast<std::size_t>(slab_vol) * sizeof(T));
                 }
                 st.out = dev.alloc_copy<T>(
                     std::span<const T>(prev.data(), prev.size()));
               } else {
                 st.out = dev.alloc<T>(slab_vol);
               }
             } else {
               st.in = dev.alloc_virtual<T>(slab_vol);
               st.out = dev.alloc_virtual<T>(slab_vol);
             }
             Plan plan = make_plan(dev, slab_shape, fp, popts);
             slab.schema = plan.schema();
             const sim::LaunchResult r =
                 plan.execute<T>(st.in, st.out, alpha, beta);
             s.counters = r.counters;
             s.exec_s = r.time_s;
             if (functional) {
               slab.out_host.resize(static_cast<std::size_t>(slab_vol));
               std::memcpy(slab.out_host.data(), st.out.data(),
                           static_cast<std::size_t>(slab_vol) * sizeof(T));
             }
             return 0;
           })
        .status();
  };

  for (Index i = 0; i < n; ++i) {
    auto& s = res.shards[static_cast<std::size_t>(i)];
    s.index = static_cast<int>(i);
    s.device = static_cast<int>(i % fleet_n);
    s.dim_lo = slabs[static_cast<std::size_t>(i)].lo;
    s.dim_hi = slabs[static_cast<std::size_t>(i)].hi;
  }
  std::vector<Status> slab_status(static_cast<std::size_t>(n));
  sim::ThreadPool::global().run_indexed(
      static_cast<std::int64_t>(n), fleet_n, [&](std::int64_t i) {
        slab_status[static_cast<std::size_t>(i)] =
            run_slab(i, static_cast<int>(i % fleet_n));
      });

  for (Index i = 0; i < n; ++i) {
    Status& st = slab_status[static_cast<std::size_t>(i)];
    if (st.is_ok()) continue;
    auto& s = res.shards[static_cast<std::size_t>(i)];
    if (opts_.failover && fleet_n > 1 && retryable(st.code())) {
      for (int step = 1; step < fleet_n && !st.is_ok(); ++step) {
        const int k = (s.device + step) % fleet_n;
        if (run_slab(i, k).is_ok()) {
          st = Status::ok();
          s.device = k;
          s.failed_over = true;
          telemetry::MetricsRegistry::global()
              .counter("shard.failovers")
              .inc();
        }
      }
    }
    if (!st.is_ok()) {
      telemetry::MetricsRegistry::global().counter("shard.failures").inc();
      st.raise_if_error();
    }
  }

  res.schema = slabs.front().schema;
  res.counters_exact = false;  // per-slab plans need not tile one grid
  if (functional) {
    if (d >= 0) {
      const Index stride_q = fo.stride(q);
      const Index period = stride_q * extent;
      const Index count = problem.volume() / period;
      for (Index i = 0; i < n; ++i) {
        const Slab& slab = slabs[static_cast<std::size_t>(i)];
        const Index run = (slab.hi - slab.lo) * stride_q;
        for (Index c = 0; c < count; ++c)
          std::memcpy(out->data() + slab.lo * stride_q + c * period,
                      slab.out_host.data() + c * run,
                      static_cast<std::size_t>(run) * sizeof(T));
      }
    } else {
      // Degenerate all-extent-1 tensor.
      std::memcpy(out->data(), slabs.front().out_host.data(),
                  static_cast<std::size_t>(problem.volume()) * sizeof(T));
    }
  }
  return res;
}

}  // namespace ttlg::shard
