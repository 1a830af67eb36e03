// The simulated GPU device: memory allocator + kernel launch engine.
//
// A kernel is any callable `void(BlockCtx&)`; Device::launch runs it for
// every block of the grid, aggregates hardware-event counters and feeds
// them to the timing model. See block_ctx.hpp for the execution model.
// Device::launch_members is the one engine behind it: a launch is a
// batch of one member, a fused batch is N members of one grid run as a
// single dispatch, and a shard window is a block range of that grid.
//
// Grid blocks are independent by construction, so large grids execute
// on the parallel block-execution engine (thread_pool.hpp): contiguous
// block chunks run on host threads with private counter shards that
// are reduced in block order, keeping results bit-identical to the
// sequential engine at any thread count (docs/parallel-execution.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "gpusim/block_ctx.hpp"
#include "gpusim/fault_injector.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/dbuffer.hpp"
#include "gpusim/device_properties.hpp"
#include "gpusim/thread_pool.hpp"
#include "gpusim/timing_model.hpp"
#include "telemetry/log.hpp"
#include "telemetry/telemetry.hpp"

namespace ttlg::sim {

struct LaunchConfig {
  std::int64_t grid_blocks = 1;
  /// First block id executed by this launch. Non-zero for windowed
  /// launches (the sharded executor runs contiguous block-id ranges of
  /// one logical grid on different devices); block ids handed to the
  /// kernel are ABSOLUTE, so a window executes exactly the same blocks
  /// it would inside the full launch.
  std::int64_t block_offset = 0;
  int block_threads = 256;
  /// Shared memory per block, in elements of size `elem_size`.
  std::int64_t shared_elems = 0;
  int elem_size = 8;
  std::string kernel_name;
  /// Optional block-equivalence classifier for sampled counting: blocks
  /// of one class execute the same access pattern up to base offsets
  /// (full vs remainder chunks). Used only in count-only mode when the
  /// device has sampling enabled.
  std::function<std::int64_t(std::int64_t)> block_class;
  std::int64_t num_classes = 1;
  /// Kernel binds texture offset arrays (OD/OA); gates the `tex`
  /// fault-injection site so texture faults only hit texture users.
  bool uses_texture = false;
  /// When set, texture accesses are RECORDED (appended in block order as
  /// byte addresses) instead of probed against this launch's cache, and
  /// tex_misses stays 0 in the returned counters. A cross-launch owner
  /// (the sharded executor) replays the logs of all windows of one
  /// logical grid through a single TextureCache, which reproduces the
  /// unsharded miss count exactly. Ignored by sampled counting.
  std::vector<std::int64_t>* tex_capture = nullptr;
};

struct LaunchResult {
  LaunchCounters counters;
  TimingBreakdown timing;
  /// Simulated kernel execution time in seconds.
  double time_s = 0.0;
};

class Device {
 public:
  explicit Device(DeviceProperties props = DeviceProperties::tesla_k40c());

  const DeviceProperties& props() const { return props_; }

  ExecMode mode() const { return mode_; }
  void set_mode(ExecMode m) { mode_ = m; }

  /// Enable class-sampled counting: in count-only mode, launches with a
  /// block classifier execute only `samples` blocks per class and scale
  /// the counters by the class multiplicity. 0 disables (default).
  void set_sampling(int samples) { sampling_ = samples; }
  int sampling() const { return sampling_; }

  /// Host threads used to execute grid blocks (the parallel
  /// block-execution engine). 0 (default) = auto: TTLG_THREADS when
  /// set, else hardware_concurrency(). 1 disables parallel execution.
  /// Counter totals, output buffers and simulated times are
  /// bit-identical at every setting (see docs/parallel-execution.md).
  void set_num_threads(int n) { num_threads_ = n; }
  int num_threads() const { return num_threads_; }

  /// Memoized access-pattern analysis (transactions, bank conflicts,
  /// texture-line dedup keyed on the warp's normalized lane pattern —
  /// pattern_cache.hpp). On by default; TTLG_PATTERN_CACHE=0 flips the
  /// process-wide default. Counters, outputs and simulated times are
  /// bit-identical either way.
  void set_pattern_cache(bool on) { pattern_cache_ = on; }
  bool pattern_cache() const { return pattern_cache_; }

  /// Allocate `n` elements of T in simulated device memory.
  template <class T>
  DeviceBuffer<T> alloc(std::int64_t n) {
    TTLG_CHECK(n >= 0, "negative allocation size");
    const std::int64_t bytes = n * static_cast<std::int64_t>(sizeof(T));
    std::byte* p = allocate_bytes(bytes);
    const std::int64_t base = base_of(p);
    return DeviceBuffer<T>(base, reinterpret_cast<T*>(p), n);
  }

  /// Allocate a buffer handle WITHOUT backing storage: valid for
  /// count-only launches (which never dereference data) — lets benches
  /// sweep multi-GB tensors without touching host RAM. Functional-mode
  /// access through such a handle fails an assertion.
  template <class T>
  DeviceBuffer<T> alloc_virtual(std::int64_t n) {
    TTLG_CHECK(n >= 0, "negative allocation size");
    const std::int64_t base = register_virtual(
        n * static_cast<std::int64_t>(sizeof(T)));
    return DeviceBuffer<T>(base, nullptr, n);
  }

  /// Allocate and copy host data in (H2D copies are not part of kernel
  /// time, matching the paper's measurement methodology).
  template <class T>
  DeviceBuffer<T> alloc_copy(std::span<const T> host) {
    auto buf = alloc<T>(static_cast<std::int64_t>(host.size()));
    std::copy(host.begin(), host.end(), buf.data());
    return buf;
  }

  /// Release one allocation by its base address.
  template <class T>
  void free(const DeviceBuffer<T>& buf) {
    free_base(buf.base_addr());
  }

  /// Non-throwing free for owners that may outlive a free_all() (plans).
  /// Returns false when the buffer was already released.
  template <class T>
  bool try_free(const DeviceBuffer<T>& buf) {
    return try_free_base(buf.base_addr());
  }

  /// Release everything (between benchmark cases).
  void free_all();

  /// Bytes currently allocated on the simulated device.
  std::int64_t bytes_allocated() const {
    std::lock_guard<std::mutex> lk(alloc_mu_);
    return bytes_allocated_;
  }

  /// Run `kernel(BlockCtx&)` over the grid (or the block window
  /// cfg.block_offset + [0, cfg.grid_blocks)) and return counters +
  /// simulated time: launch_members() with one member.
  template <class Kernel>
  LaunchResult launch(Kernel&& kernel, const LaunchConfig& cfg) {
    LaunchResult res;
    launch_members(
        [&kernel](std::int64_t) -> const std::remove_reference_t<Kernel>& {
          return kernel;
        },
        cfg, std::span<LaunchResult>(&res, 1));
    return res;
  }

  /// The launch engine: execute `make_kernel(m)` for every member m of
  /// `results` over the block range cfg describes (block ids stay
  /// ABSOLUTE, so a window executes exactly the blocks it would inside
  /// the full launch) and write member m's counters and simulated time
  /// to results[m]. Two or more members form one super-grid of
  /// members * cfg.grid_blocks blocks run through a SINGLE thread-pool
  /// dispatch — the launch-overhead fix for small repeated tensors —
  /// and each member's kernel sees the block ids its own launch would.
  ///
  /// Per-member results are bit-identical to one launch per member at
  /// every thread count: chunk workers stream across member boundaries
  /// with per-segment counter shards reduced in block order, and each
  /// member's texture accesses run through a cache that starts cold,
  /// exactly as its own launch would. Fault-injection sites are rolled
  /// once per call, BEFORE any block runs, so a failed launch has no
  /// side effects (matching real launch failures). In count-only mode
  /// with sampling enabled and a block classifier supplied, only a few
  /// representative blocks per equivalence class execute and counters
  /// are scaled by multiplicity. cfg.tex_capture takes one member only.
  template <class KernelFactory>
  void launch_members(KernelFactory&& make_kernel, const LaunchConfig& cfg,
                      std::span<LaunchResult> results) {
    const std::int64_t members = static_cast<std::int64_t>(results.size());
    TTLG_CHECK(members > 0, "a launch needs at least one member");
    TTLG_CHECK(members == 1 || cfg.tex_capture == nullptr,
               "texture capture records a single member's launch");
    validate(cfg);
    if (FaultInjector::global().armed()) check_injected_launch_faults(cfg);
    // One branch on the off path; everything else lives in device.cpp.
    const bool telem = telemetry::counters_enabled();
    const double telem_start_us = telem ? telemetry_now_us() : 0.0;
    for (LaunchResult& r : results) {
      r = LaunchResult{};
      r.counters.grid_blocks = cfg.grid_blocks;
      r.counters.block_threads = cfg.block_threads;
      r.counters.shared_bytes_per_block = cfg.shared_elems * cfg.elem_size;
    }

    if (mode_ == ExecMode::kCountOnly && sampling_ > 0 && cfg.block_class &&
        cfg.num_classes >= 1) {
      for (std::int64_t m = 0; m < members; ++m)
        run_sampled(make_kernel(m), cfg,
                    results[static_cast<std::size_t>(m)].counters);
    } else if (const int nthreads =
                   launch_parallelism(cfg.grid_blocks * members);
               nthreads > 1) {
      run_parallel(make_kernel, cfg, results, nthreads);
    } else {
      const PatternCachePool::Lease pc = pattern_pool_.acquire(pattern_cache_);
      std::vector<std::byte> smem(
          static_cast<std::size_t>(cfg.shared_elems * cfg.elem_size));
      TextureCache tex(props_.tex_cache_lines, props_.tex_line_bytes);
      for (std::int64_t m = 0; m < members; ++m) {
        if (m > 0) tex.reset();  // each member's own launch starts cold
        run_blocks(make_kernel(m), cfg, cfg.block_offset,
                   cfg.block_offset + cfg.grid_blocks,
                   results[static_cast<std::size_t>(m)].counters, smem.data(),
                   tex, cfg.tex_capture, pc.get());
      }
    }

    for (LaunchResult& r : results) {
      r.timing = kernel_timing(props_, r.counters);
      r.time_s = r.timing.total_s;
    }
    // One telemetry record per call (sim.launches counts dispatches,
    // which is exactly what fusing members reduces).
    if (members == 1) {
      emit_launch_telemetry(cfg, results.front(), telem, telem_start_us);
      return;
    }
    LaunchResult agg;
    for (const LaunchResult& r : results) {
      agg.counters += r.counters;
      agg.time_s += r.time_s;
    }
    agg.counters.block_threads = cfg.block_threads;
    agg.counters.shared_bytes_per_block = cfg.shared_elems * cfg.elem_size;
    agg.timing = kernel_timing(props_, agg.counters);
    LaunchConfig fused = cfg;
    fused.grid_blocks = cfg.grid_blocks * members;
    fused.kernel_name += "+batched";
    emit_launch_telemetry(fused, agg, telem, telem_start_us);
  }

 private:
  /// How many host threads this launch should use: 1 (serial) unless
  /// the grid is big enough to amortize the fan-out and the resolved
  /// thread knob asks for more.
  int launch_parallelism(std::int64_t grid_blocks) const {
    if (grid_blocks < kMinParallelBlocks) return 1;
    const int resolved = resolve_num_threads(num_threads_);
    return static_cast<int>(
        std::min<std::int64_t>(resolved, grid_blocks));
  }

  /// The one block loop every execution path runs: blocks [lo, hi) of
  /// one member in block-id order into `ctr`. A non-null `tex_log`
  /// records texture accesses for a later block-ordered replay instead
  /// of probing `tex` (see BlockCtx).
  template <class Kernel>
  void run_blocks(const Kernel& kernel, const LaunchConfig& cfg,
                  std::int64_t lo, std::int64_t hi, LaunchCounters& ctr,
                  std::byte* smem, TextureCache& tex,
                  std::vector<std::int64_t>* tex_log, PatternCache* pc) {
    for (std::int64_t b = lo; b < hi; ++b) {
      BlockCtx blk(b, cfg.block_threads, mode_, props_, ctr, smem,
                   cfg.shared_elems, tex, tex_log, pc);
      kernel(blk);
    }
  }

  /// The parallel block-execution engine: one run_indexed dispatch over
  /// the super-grid [0, members * cfg.grid_blocks). Each chunk runs its
  /// blocks in order with a private (zero-initialized) shared-memory
  /// arena; a chunk whose range crosses a member boundary opens a new
  /// SEGMENT (member id, counter shard, texture log) and keeps
  /// streaming. After the pool joins, segments are reduced in CHUNK
  /// INDEX order (fixed block-order reduction, never arrival order) and
  /// their texture logs replayed, also in block order, through a cache
  /// that is reset at every member boundary — or, in capture mode,
  /// handed to the caller — so counter totals, tex_misses included, are
  /// bit-identical to the sequential engine at any thread count.
  /// Per-chunk smem arenas are observationally equivalent to the shared
  /// sequential arena because every kernel writes its shared tile
  /// before reading it.
  template <class KernelFactory>
  void run_parallel(const KernelFactory& make_kernel, const LaunchConfig& cfg,
                    std::span<LaunchResult> results, int nthreads) {
    const std::int64_t bpm = cfg.grid_blocks;
    const std::int64_t total =
        bpm * static_cast<std::int64_t>(results.size());
    // A few chunks per thread keeps the atomic-cursor load balancing
    // effective when block costs are skewed (remainder blocks).
    const std::int64_t nchunks = std::min<std::int64_t>(
        total, static_cast<std::int64_t>(nthreads) * 4);
    struct Segment {
      std::int64_t member = 0;
      LaunchCounters ctr;
      std::vector<std::int64_t> tex_log;
    };
    std::vector<std::vector<Segment>> chunks(
        static_cast<std::size_t>(nchunks));
    // Shared across chunks but never probed: every block below carries
    // a texture log, which records instead of accessing.
    TextureCache tex(props_.tex_cache_lines, props_.tex_line_bytes);
    ThreadPool::global().run_indexed(
        nchunks, nthreads, [&](std::int64_t c) {
          const std::int64_t hi = total * (c + 1) / nchunks;
          std::vector<std::byte> smem(
              static_cast<std::size_t>(cfg.shared_elems * cfg.elem_size));
          // One pattern-cache lease per chunk: no sharing between host
          // threads, and cached == recomputed keeps totals bit-identical
          // regardless of which chunk warmed which cache.
          const PatternCachePool::Lease pc =
              pattern_pool_.acquire(pattern_cache_);
          std::vector<Segment>& segs = chunks[static_cast<std::size_t>(c)];
          for (std::int64_t b = total * c / nchunks; b < hi;) {
            const std::int64_t m = b / bpm;
            const std::int64_t seg_hi = std::min(hi, (m + 1) * bpm);
            Segment& sg = segs.emplace_back();
            sg.member = m;
            const std::int64_t first = cfg.block_offset + (b - m * bpm);
            run_blocks(make_kernel(m), cfg, first, first + (seg_hi - b),
                       sg.ctr, smem.data(), tex, &sg.tex_log, pc.get());
            b = seg_hi;
          }
        });
    std::int64_t replaying = 0;
    for (const std::vector<Segment>& segs : chunks) {
      for (const Segment& sg : segs) {
        LaunchResult& r = results[static_cast<std::size_t>(sg.member)];
        r.counters += sg.ctr;
        if (cfg.tex_capture != nullptr) {
          // Capture mode: hand the block-ordered log to the caller
          // instead of replaying it; the caller owns the cross-window
          // replay (and the misses it produces).
          cfg.tex_capture->insert(cfg.tex_capture->end(), sg.tex_log.begin(),
                                  sg.tex_log.end());
          continue;
        }
        if (sg.member != replaying) {
          tex.reset();  // a member's own launch starts cold
          replaying = sg.member;
        }
        for (const std::int64_t addr : sg.tex_log) {
          if (!tex.access(addr)) ++r.counters.tex_misses;
        }
      }
    }
  }

  /// Class-sampled counting for one member: per block class, warm the
  /// texture cache with one representative, run `sampling_` evenly
  /// spread representatives and scale their counters by the class
  /// multiplicity.
  template <class Kernel>
  void run_sampled(const Kernel& kernel, const LaunchConfig& cfg,
                   LaunchCounters& out) {
    const PatternCachePool::Lease pc = pattern_pool_.acquire(pattern_cache_);
    std::vector<std::byte> smem(
        static_cast<std::size_t>(cfg.shared_elems * cfg.elem_size));
    TextureCache tex(props_.tex_cache_lines, props_.tex_line_bytes);
    const std::int64_t nc = cfg.num_classes;
    const std::int64_t b_end = cfg.block_offset + cfg.grid_blocks;
    std::vector<std::int64_t> counts(static_cast<std::size_t>(nc), 0);
    for (std::int64_t b = cfg.block_offset; b < b_end; ++b) {
      const std::int64_t c = cfg.block_class(b);
      TTLG_ASSERT(c >= 0 && c < nc, "block class out of range");
      ++counts[static_cast<std::size_t>(c)];
    }
    for (std::int64_t c = 0; c < nc; ++c) {
      const std::int64_t n = counts[static_cast<std::size_t>(c)];
      if (n == 0) continue;
      const std::int64_t samples =
          std::min<std::int64_t>(sampling_, n);
      // Evenly spread sample occurrence indices within the class.
      std::vector<std::int64_t> targets(static_cast<std::size_t>(samples));
      for (std::int64_t s = 0; s < samples; ++s)
        targets[static_cast<std::size_t>(s)] = s * n / samples;
      LaunchCounters cls;
      std::int64_t occurrence = 0;
      std::size_t next = 0;
      bool warmed = false;
      for (std::int64_t b = cfg.block_offset;
           b < b_end && next < targets.size(); ++b) {
        if (cfg.block_class(b) != c) continue;
        if (occurrence++ != targets[next]) continue;
        ++next;
        if (!warmed) {
          // Warm the texture cache so per-class miss rates reflect the
          // steady state, not the launch's cold start.
          LaunchCounters discard;
          run_blocks(kernel, cfg, b, b + 1, discard, smem.data(), tex,
                     nullptr, pc.get());
          warmed = true;
        }
        run_blocks(kernel, cfg, b, b + 1, cls, smem.data(), tex, nullptr,
                   pc.get());
      }
      const double scale =
          static_cast<double>(n) / static_cast<double>(samples);
      auto scaled = [&](std::int64_t v) {
        return static_cast<std::int64_t>(static_cast<double>(v) * scale + 0.5);
      };
      out.gld_transactions += scaled(cls.gld_transactions);
      out.gst_transactions += scaled(cls.gst_transactions);
      out.smem_load_ops += scaled(cls.smem_load_ops);
      out.smem_store_ops += scaled(cls.smem_store_ops);
      out.smem_bank_conflicts += scaled(cls.smem_bank_conflicts);
      out.tex_transactions += scaled(cls.tex_transactions);
      out.tex_misses += scaled(cls.tex_misses);
      out.special_ops += scaled(cls.special_ops);
      out.fma_ops += scaled(cls.fma_ops);
      out.barriers += scaled(cls.barriers);
      out.payload_bytes += scaled(cls.payload_bytes);
    }
  }

  void emit_launch_telemetry(const LaunchConfig& cfg, const LaunchResult& res,
                             bool telem, double start_us) const {
    if (telem)
      record_launch_telemetry(cfg, res, start_us);
    else if (telemetry::log_site_enabled(telemetry::LogLevel::kDebug))
      log_launch(cfg, res);  // structured log wants launches even when
                             // the counters level is off
  }

  /// Telemetry sinks for launch_members(), kept out of the template:
  /// registry counters at kCounters and a per-launch trace event (with
  /// the full LaunchCounters as args) at kTrace.
  static double telemetry_now_us();
  void record_launch_telemetry(const LaunchConfig& cfg,
                               const LaunchResult& res,
                               double start_us) const;
  /// kDebug structured-log record for one launch (also mirrored into
  /// the flight-recorder ring); gated by the caller.
  void log_launch(const LaunchConfig& cfg, const LaunchResult& res) const;

  /// Raises for the `launch`/`tex` fault-injection sites (slow path,
  /// only entered when the injector is armed).
  void check_injected_launch_faults(const LaunchConfig& cfg) const;

  std::byte* allocate_bytes(std::int64_t bytes);
  std::int64_t register_virtual(std::int64_t bytes);
  std::int64_t base_of(const std::byte* p) const;
  void free_base(std::int64_t base);
  bool try_free_base(std::int64_t base);
  void validate(const LaunchConfig& cfg) const;

  /// Grids smaller than this run serially regardless of the thread
  /// knob: the pool fan-out costs more than the blocks themselves.
  static constexpr std::int64_t kMinParallelBlocks = 4;

  /// Process-wide default for the pattern-cache knob: true unless
  /// TTLG_PATTERN_CACHE=0 (defined in device.cpp).
  static bool default_pattern_cache();

  DeviceProperties props_;
  ExecMode mode_ = ExecMode::kFunctional;
  int sampling_ = 0;
  int num_threads_ = 0;  ///< 0 = auto (TTLG_THREADS / hardware)
  bool pattern_cache_ = default_pattern_cache();
  PatternCachePool pattern_pool_;
  struct Allocation {
    std::unique_ptr<std::byte[]> storage;
    std::int64_t bytes = 0;
  };
  /// Serializes the allocator maps: plans and candidate measurement
  /// may allocate/free from concurrent tasks.
  mutable std::mutex alloc_mu_;
  std::map<std::int64_t, Allocation> allocations_;  // keyed by base addr
  std::map<const std::byte*, std::int64_t> base_by_ptr_;
  std::int64_t next_addr_ = 256;
  std::int64_t bytes_allocated_ = 0;
};

}  // namespace ttlg::sim
