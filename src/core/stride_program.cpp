#include "core/stride_program.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/error.hpp"
#include "core/analysis.hpp"
#include "core/kernels.hpp"
#include "gpusim/block_ctx.hpp"
#include "gpusim/coalescing.hpp"
#include "telemetry/metrics.hpp"

namespace ttlg {

const char* to_string(SpecTier tier) {
  switch (tier) {
    case SpecTier::kGeneric: return "generic";
    case SpecTier::kStrideProgram: return "stride_program";
    case SpecTier::kAffineBulk: return "affine_bulk";
  }
  return "unknown";
}

std::int64_t ClassProgram::footprint_bytes() const {
  return static_cast<std::int64_t>(
      gops.size() * sizeof(SpecGlobalOp) + byte_deltas.size() * 8 +
      tex_lines.size() * 8 + (copy_dst.size() + copy_src.size()) * 8 +
      run_copies.size() * sizeof(SpecRunCopy) +
      (gld_phase.size() + gst_phase.size()) * 4);
}

std::int64_t SpecProgram::footprint_bytes() const {
  std::int64_t total = static_cast<std::int64_t>(sizeof(SpecProgram));
  for (const ClassProgram& c : cls) total += c.footprint_bytes();
  return total;
}

bool specialization_enabled_by_env() {
  const char* env = std::getenv("TTLG_SPECIALIZE");
  return env == nullptr || std::string_view(env) != "0";
}

namespace {

using sim::kWarpSize;

void count_reject(const char* reason) {
  telemetry::MetricsRegistry::global()
      .counter(std::string("plan.spec.reject.") + reason)
      .inc();
}

// Synthetic device base addresses for the in/out views the recorder and
// the build-time self-check run against. 256-byte aligned like real
// Device allocations; recorded offsets are base-relative, so any aligned
// base yields the same program, and the self-check replays against the
// very same bases it records with.
constexpr std::int64_t kRecInBase = std::int64_t{1} << 40;
constexpr std::int64_t kRecOutBase = std::int64_t{3} << 40;

/// Kernel-facing context that compiles the address stream instead of
/// simulating it. Presents the same surface as sim::BlockCtx (the
/// kernels are templated on the context), but:
///   - global accesses are recorded as base-relative runs / offset
///     tables and class-constant counters accumulate into const_delta;
///   - dataflow is shadowed (gld tags LaneValues with source element
///     indices, sst/sld move the tags through a shadow smem image, gst
///     emits copy pairs), producing the fused copy table;
///   - texture loads return REAL offset data (their values feed later
///     address computations) and record the touched lines.
/// Any access the shadow cannot explain (out-of-range smem index, a
/// store of untagged values, an unexpected buffer) flips ok() to false
/// and the plan stays generic.
class RecordingCtx {
 public:
  RecordingCtx(std::int64_t block_id, int block_threads,
               const sim::DeviceProperties& props, std::int64_t smem_elems,
               std::int64_t blk_in_base, std::int64_t blk_out_base)
      : block_id_(block_id),
        block_threads_(block_threads),
        props_(props),
        smem_elems_(smem_elems),
        blk_in_base_(blk_in_base),
        blk_out_base_(blk_out_base),
        shadow_(static_cast<std::size_t>(smem_elems), -1) {}

  std::int64_t block_id() const { return block_id_; }
  int block_dim() const { return block_threads_; }
  int num_warps() const { return block_threads_ / props_.warp_size; }
  const sim::DeviceProperties& props() const { return props_; }
  sim::ExecMode mode() const { return sim::ExecMode::kCountOnly; }

  void sync() { ++prog_.const_delta.barriers; }
  void count_special(std::int64_t n) { prog_.const_delta.special_ops += n; }
  void count_fma(std::int64_t n) { prog_.const_delta.fma_ops += n; }

  bool ok() const { return ok_; }
  ClassProgram take_program() {
    prog_.present = true;
    return std::move(prog_);
  }

  template <class T>
  void gld(const sim::DeviceBuffer<T>& buf, const sim::LaneArray& lanes,
           sim::LaneValues<T>& vals) {
    const int active = lanes.active_count();
    if (active == 0) return;
    if (buf.base_addr() != kRecInBase) {
      // Programs are recorded with the identity epilogue, so the sole
      // global load target is the input buffer; the beta read-back of
      // out is derived from the store ops (build_blend_program).
      ok_ = false;
      return;
    }
    record_gop(true, lanes, blk_in_base_, sizeof(T));
    prog_.const_delta.payload_bytes +=
        static_cast<std::int64_t>(active) * static_cast<std::int64_t>(sizeof(T));
    vals.fill(T{});
    auto& src = src_of_[&vals];
    src.fill(-1);
    for (std::uint64_t m = lanes.active_mask(); m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      src[static_cast<std::size_t>(l)] = lanes[l] - blk_in_base_;
    }
  }

  template <class T>
  void gst(sim::DeviceBuffer<T> buf, const sim::LaneArray& lanes,
           const sim::LaneValues<T>& vals) {
    const int active = lanes.active_count();
    if (active == 0) return;
    if (buf.base_addr() != kRecOutBase) {
      ok_ = false;
      return;
    }
    record_gop(false, lanes, blk_out_base_, sizeof(T));
    prog_.const_delta.payload_bytes +=
        static_cast<std::int64_t>(active) * static_cast<std::int64_t>(sizeof(T));
    const auto it = src_of_.find(&vals);
    for (std::uint64_t m = lanes.active_mask(); m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const std::int64_t src =
          it == src_of_.end() ? -1 : it->second[static_cast<std::size_t>(l)];
      if (src == -1) {
        // Storing a value whose provenance the shadow lost: cannot
        // compile a copy table for this plan.
        ok_ = false;
        return;
      }
      prog_.copy_dst.push_back(lanes[l] - blk_out_base_);
      prog_.copy_src.push_back(src);
    }
  }

  template <class T>
  void tld(const sim::DeviceBuffer<T>& buf, const sim::LaneArray& lanes,
           sim::LaneValues<T>& vals) {
    if (!lanes.any_active()) return;
    std::int64_t lines[kWarpSize];
    const int nlines = sim::collect_tex_lines(lanes, buf.base_addr(), sizeof(T),
                                              props_.tex_line_bytes, lines);
    prog_.const_delta.tex_transactions += nlines;
    for (int s = 0; s < nlines; ++s) prog_.tex_lines.push_back(lines[s]);
    // Offset values feed later address computations: return real data.
    vals.fill(T{});
    if (!buf.valid()) {
      ok_ = false;
      return;
    }
    for (std::uint64_t m = lanes.active_mask(); m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const std::int64_t a = lanes[l];
      if (a < 0 || a >= buf.size()) {
        ok_ = false;
        return;
      }
      vals[static_cast<std::size_t>(l)] = buf[a];
    }
  }

  template <class T>
  void sld(const sim::LaneArray& lanes, sim::LaneValues<T>& vals) {
    if (!lanes.any_active()) return;
    ++prog_.const_delta.smem_load_ops;
    prog_.const_delta.smem_bank_conflicts +=
        sim::count_bank_conflicts(lanes, props_.shared_banks);
    vals.fill(T{});
    auto& src = src_of_[&vals];
    src.fill(-1);
    for (std::uint64_t m = lanes.active_mask(); m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const std::int64_t a = lanes[l];
      if (a < 0 || a >= smem_elems_) {
        ok_ = false;
        return;
      }
      src[static_cast<std::size_t>(l)] = shadow_[static_cast<std::size_t>(a)];
    }
  }

  template <class T>
  void sst(const sim::LaneArray& lanes, const sim::LaneValues<T>& vals) {
    if (!lanes.any_active()) return;
    ++prog_.const_delta.smem_store_ops;
    prog_.const_delta.smem_bank_conflicts +=
        sim::count_bank_conflicts(lanes, props_.shared_banks);
    const auto it = src_of_.find(&vals);
    for (std::uint64_t m = lanes.active_mask(); m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const std::int64_t a = lanes[l];
      if (a < 0 || a >= smem_elems_) {
        ok_ = false;
        return;
      }
      shadow_[static_cast<std::size_t>(a)] =
          it == src_of_.end() ? -1 : it->second[static_cast<std::size_t>(l)];
    }
  }

 private:
  /// Classify and record one global access. Transaction counts are NOT
  /// recorded — they depend on the block base, so execution recomputes
  /// them per block from the run/offset shape in closed form.
  void record_gop(bool is_load, const sim::LaneArray& lanes,
                  std::int64_t rel_base, std::int64_t elem_size) {
    std::array<std::int64_t, kWarpSize> addrs{};
    int n = 0;
    for (std::uint64_t m = lanes.active_mask(); m != 0; m &= m - 1)
      addrs[static_cast<std::size_t>(n++)] = lanes[std::countr_zero(m)];
    std::sort(addrs.begin(), addrs.begin() + n);
    const int nu = static_cast<int>(
        std::unique(addrs.begin(), addrs.begin() + n) - addrs.begin());
    SpecGlobalOp op;
    op.is_load = is_load;
    op.nlanes = nu;
    // Transaction counts are functions of the address SET, so a sorted
    // consecutive range is "a run" regardless of lane order.
    if (addrs[static_cast<std::size_t>(nu - 1)] - addrs[0] + 1 == nu) {
      op.is_run = true;
      op.rel0 = addrs[0] - rel_base;
    } else {
      op.is_run = false;
      op.delta_off = static_cast<std::int32_t>(prog_.byte_deltas.size());
      op.delta_len = nu;
      for (int i = 0; i < nu; ++i)
        prog_.byte_deltas.push_back(
            (addrs[static_cast<std::size_t>(i)] - rel_base) * elem_size);
    }
    prog_.gops.push_back(op);
  }

  std::int64_t block_id_;
  int block_threads_;
  const sim::DeviceProperties& props_;
  std::int64_t smem_elems_;
  std::int64_t blk_in_base_;
  std::int64_t blk_out_base_;
  ClassProgram prog_;
  /// Shadow smem: source element index (into the input) currently held
  /// by each shared slot, or -1 for untagged.
  std::vector<std::int64_t> shadow_;
  /// Source tags for in-flight LaneValues, keyed by object address.
  /// Recording is strictly sequential, so stack-slot reuse is safe:
  /// every store is preceded by the load that (re)tags its operand.
  std::unordered_map<const void*, std::array<std::int64_t, kWarpSize>> src_of_;
  bool ok_ = true;
};

const GridDecoder& decoder_for(const KernelSelection& sel) {
  switch (sel.schema) {
    case Schema::kFviMatchSmall: return sel.fvi_small.decoder;
    case Schema::kOrthogonalDistinct: return sel.od.decoder;
    case Schema::kOrthogonalArbitrary: return sel.oa.decoder;
    default: return sel.fvi_large.decoder;  // kCopy / kFviMatchLarge
  }
}

std::int64_t smem_elems_for(const KernelSelection& sel) {
  switch (sel.schema) {
    case Schema::kFviMatchSmall: return sel.fvi_small.smem_elems;
    case Schema::kOrthogonalDistinct: return 32 * sel.od.tile_pitch;
    case Schema::kOrthogonalArbitrary: return sel.oa.smem_elems();
    default: return 0;
  }
}

int block_threads_for(const KernelSelection& sel) {
  switch (sel.schema) {
    case Schema::kFviMatchSmall: return sel.fvi_small.block_threads;
    case Schema::kOrthogonalDistinct: return sel.od.block_threads;
    case Schema::kOrthogonalArbitrary: return sel.oa.block_threads;
    default: return sel.fvi_large.block_threads;
  }
}

Index grid_blocks_for(const KernelSelection& sel) {
  switch (sel.schema) {
    case Schema::kFviMatchSmall: return sel.fvi_small.grid_blocks;
    case Schema::kOrthogonalDistinct: return sel.od.grid_blocks;
    case Schema::kOrthogonalArbitrary: return sel.oa.grid_blocks;
    default: return sel.fvi_large.grid_blocks;
  }
}

/// Run the planned generic kernel body for one block against any
/// context (the recorder or a real BlockCtx for the self-check), with
/// the given epilogue and synthetic in/out views. Texture views are
/// bound to the plan's REAL offset arrays at the plan's device
/// addresses so recorded lines match execution.
template <class T, class Ctx>
void run_generic_block(const SpecBuildInput& bi, Ctx& ctx,
                       const Epilogue<T>& epi = {}) {
  const KernelSelection& sel = *bi.sel;
  const Index vol = bi.problem->volume();
  const sim::DeviceBuffer<T> in(kRecInBase, nullptr, vol);
  const sim::DeviceBuffer<T> out(kRecOutBase, nullptr, vol);
  switch (sel.schema) {
    case Schema::kFviMatchSmall:
      FviSmallKernel<T>{sel.fvi_small, in, out, epi}(ctx);
      return;
    case Schema::kOrthogonalDistinct: {
      const OdConfig& k = sel.od;
      const sim::DeviceBuffer<Index> t0(
          bi.tex_base[0], const_cast<Index*>(k.in_offset.data()),
          static_cast<Index>(k.in_offset.size()));
      const sim::DeviceBuffer<Index> t1(
          bi.tex_base[1], const_cast<Index*>(k.out_offset.data()),
          static_cast<Index>(k.out_offset.size()));
      OdKernel<T>{k, in, out, t0, t1, epi}(ctx);
      return;
    }
    case Schema::kOrthogonalArbitrary: {
      const OaConfig& k = sel.oa;
      const sim::DeviceBuffer<Index> t0(
          bi.tex_base[0], const_cast<Index*>(k.input_offset.data()),
          static_cast<Index>(k.input_offset.size()));
      const sim::DeviceBuffer<Index> t1(
          bi.tex_base[1], const_cast<Index*>(k.output_offset.data()),
          static_cast<Index>(k.output_offset.size()));
      const sim::DeviceBuffer<Index> t2(
          bi.tex_base[2], const_cast<Index*>(k.sm_out_offset.data()),
          static_cast<Index>(k.sm_out_offset.size()));
      OaKernel<T>{k, in, out, t0, t1, t2, epi}(ctx);
      return;
    }
    default:
      FviLargeKernel<T>{sel.fvi_large, in, out, epi}(ctx);
      return;
  }
}

bool counters_equal(const sim::LaunchCounters& a, const sim::LaunchCounters& b) {
  return a.gld_transactions == b.gld_transactions &&
         a.gst_transactions == b.gst_transactions &&
         a.smem_load_ops == b.smem_load_ops &&
         a.smem_store_ops == b.smem_store_ops &&
         a.smem_bank_conflicts == b.smem_bank_conflicts &&
         a.tex_transactions == b.tex_transactions &&
         a.tex_misses == b.tex_misses && a.special_ops == b.special_ops &&
         a.fma_ops == b.fma_ops && a.barriers == b.barriers &&
         a.payload_bytes == b.payload_bytes;
}

bool gops_equal(const SpecGlobalOp& a, const SpecGlobalOp& b) {
  return a.is_load == b.is_load && a.is_run == b.is_run && a.rel0 == b.rel0 &&
         a.nlanes == b.nlanes && a.delta_off == b.delta_off &&
         a.delta_len == b.delta_len;
}

/// Exact equality of two recorded programs. Everything stored is either
/// base-relative or class-invariant, so two representative blocks of
/// the same class must record identical programs — this is the
/// class-invariance proof obligation.
bool programs_equal(const ClassProgram& a, const ClassProgram& b) {
  if (!counters_equal(a.const_delta, b.const_delta)) return false;
  if (a.gops.size() != b.gops.size()) return false;
  for (std::size_t i = 0; i < a.gops.size(); ++i)
    if (!gops_equal(a.gops[i], b.gops[i])) return false;
  return a.byte_deltas == b.byte_deltas && a.tex_lines == b.tex_lines &&
         a.copy_dst == b.copy_dst && a.copy_src == b.copy_src;
}

/// Per-block transaction replay used by the build-time self-check (the
/// execution path in spec_exec.hpp carries the same arithmetic): the
/// class delta plus every op's closed form; `read_back` charges each
/// store once more as a load of out (the beta epilogue).
sim::LaunchCounters replay_counters(const SpecProgram& prog,
                                    const ClassProgram& cp,
                                    const sim::LaunchCounters& delta,
                                    const GridEntry& e, bool read_back) {
  sim::LaunchCounters c = delta;
  const std::int64_t es = prog.elem_size;
  const std::int64_t in0 = kRecInBase + e.in_base * es;
  const std::int64_t out0 = kRecOutBase + e.out_base * es;
  for (const SpecGlobalOp& op : cp.gops) {
    const std::int64_t base = op.is_load ? in0 : out0;
    const std::int64_t t =
        op.is_run
            ? sim::count_run_transactions(base + op.rel0 * es, op.nlanes,
                                          prog.elem_size, prog.txn_bytes)
            : sim::count_sorted_offset_transactions(
                  base, cp.byte_deltas.data() + op.delta_off, op.delta_len,
                  prog.txn_bytes);
    (op.is_load ? c.gld_transactions : c.gst_transactions) += t;
    if (read_back && !op.is_load) c.gld_transactions += t;
  }
  c.grid_blocks = 0;  // geometry belongs to the launch engine
  return c;
}

std::vector<std::int32_t> build_phase_table(const ClassProgram& cp,
                                            bool loads, int elem_size,
                                            std::int64_t txn) {
  bool any = false;
  for (const SpecGlobalOp& op : cp.gops) any = any || op.is_load == loads;
  if (!any) return {};
  std::vector<std::int32_t> table(static_cast<std::size_t>(txn), 0);
  for (std::int64_t p = 0; p < txn; ++p) {
    std::int64_t sum = 0;
    for (const SpecGlobalOp& op : cp.gops) {
      if (op.is_load != loads) continue;
      std::int64_t ph = (p + op.rel0 * elem_size) % txn;
      if (ph < 0) ph += txn;
      sum += txns_for_run_at_phase(ph, op.nlanes, elem_size, txn);
    }
    table[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(sum);
  }
  return table;
}

/// Compress the elementwise copy table into (dst, src, n) segments and
/// compute the bounds. The segment form wins only when segments are
/// long enough that the per-segment overhead beats per-element indexing.
void compress_copies(ClassProgram& cp) {
  const std::size_t n = cp.copy_dst.size();
  if (n == 0) return;
  cp.min_src = cp.max_src = cp.copy_src[0];
  cp.min_dst = cp.max_dst = cp.copy_dst[0];
  for (std::size_t i = 1; i < n; ++i) {
    cp.min_src = std::min(cp.min_src, cp.copy_src[i]);
    cp.max_src = std::max(cp.max_src, cp.copy_src[i]);
    cp.min_dst = std::min(cp.min_dst, cp.copy_dst[i]);
    cp.max_dst = std::max(cp.max_dst, cp.copy_dst[i]);
  }
  std::vector<SpecRunCopy> runs;
  SpecRunCopy cur{cp.copy_dst[0], cp.copy_src[0], 1};
  for (std::size_t i = 1; i < n; ++i) {
    if (cp.copy_dst[i] == cur.dst0 + cur.n && cp.copy_src[i] == cur.src0 + cur.n) {
      ++cur.n;
    } else {
      runs.push_back(cur);
      cur = SpecRunCopy{cp.copy_dst[i], cp.copy_src[i], 1};
    }
  }
  runs.push_back(cur);
  cp.use_run_copies = runs.size() * 8 <= n;
  if (cp.use_run_copies) {
    cp.run_copies = std::move(runs);
    cp.copy_dst = {};
    cp.copy_src = {};
  }
}

/// The grid layout the block classes live in: extents of the two
/// chunk slots and the number of outer iterations (0 when the grid is
/// not a whole number of chunk planes).
struct RepLayout {
  Index s0 = 1;
  Index s1 = 1;
  Index outer = 0;
};

RepLayout rep_layout(const KernelSelection& sel) {
  const GridDecoder& dec = decoder_for(sel);
  const Index grid = grid_blocks_for(sel);
  RepLayout l;
  l.s0 = dec.slots() >= 1 ? dec.slot_extent(0) : 1;
  l.s1 = dec.slots() >= 2 ? dec.slot_extent(1) : 1;
  if (grid > 0 && grid % (l.s0 * l.s1) == 0) l.outer = grid / (l.s0 * l.s1);
  return l;
}

/// Representative block ids for class c (1-3 blocks): first match, a
/// second one varying a chunk coordinate when the class has more than
/// one, and one in the next outer iteration when the grid repeats.
/// Empty means the class never occurs in this grid.
std::vector<Index> class_rep_bids(int c, const SpecProgram& p,
                                  const RepLayout& l) {
  const Index s0 = l.s0, s1 = l.s1, outer = l.outer;
  const auto cands = [](bool partial, Index chunks, Index rem) {
    std::vector<Index> v;
    if (partial) {
      if (rem != 0) v.push_back(chunks - 1);
      return v;
    }
    const Index lim = rem != 0 ? chunks - 1 : chunks;
    for (Index i = 0; i < lim && v.size() < 2; ++i) v.push_back(i);
    return v;
  };
  const auto i0s = cands((c & 1) != 0, p.a_chunks, p.a_rem);
  const auto i1s = cands((c & 2) != 0, p.b_chunks, p.b_rem);
  if (i0s.empty() || i1s.empty()) return {};
  const auto bid = [&](Index i0, Index i1, Index o) {
    return i0 + s0 * (i1 + s1 * o);
  };
  std::vector<Index> out{bid(i0s[0], i1s[0], 0)};
  if (i0s.size() > 1) out.push_back(bid(i0s[1], i1s[0], 0));
  else if (i1s.size() > 1) out.push_back(bid(i0s[0], i1s[1], 0));
  if (outer > 1) out.push_back(bid(i0s[0], i1s[0], 1));
  return out;
}

template <class T>
ClassProgram record_block(const SpecBuildInput& bi, Index bid, bool* ok) {
  const GridDecoder& dec = decoder_for(*bi.sel);
  const GridEntry e = dec.decode(bid);
  RecordingCtx rc(bid, block_threads_for(*bi.sel), *bi.props,
                  smem_elems_for(*bi.sel), e.in_base, e.out_base);
  run_generic_block<T>(bi, rc);
  *ok = rc.ok();
  return rc.take_program();
}

/// Ground-truth check: run the GENERIC kernel for one block through a
/// real count-only BlockCtx (texture record-and-replay mode) and demand
/// the program replay reproduces its counters and texture-line sequence
/// exactly. For affine classes the phase tables must agree with the
/// per-op replay as well. With `blend` the generic kernel runs a beta
/// != 0 epilogue (values are irrelevant in count-only mode) and the
/// replay uses the blend program's deltas and read-back charges.
template <class T>
bool self_check_block(const SpecBuildInput& bi, const SpecProgram& prog,
                      Index bid, const SpecBlendProgram* blend) {
  const GridDecoder& dec = decoder_for(*bi.sel);
  const GridEntry e = dec.decode(bid);
  const int c = prog.class_of(e);
  const ClassProgram& cp = prog.cls[c];
  if (!cp.present) return false;
  const sim::LaunchCounters& delta =
      blend ? blend->const_delta[c] : cp.const_delta;

  sim::LaunchCounters ref;
  sim::TextureCache scratch(bi.props->tex_cache_lines, bi.props->tex_line_bytes);
  std::vector<std::int64_t> ref_log;
  sim::BlockCtx blk(bid, block_threads_for(*bi.sel), sim::ExecMode::kCountOnly,
                    *bi.props, ref, nullptr, smem_elems_for(*bi.sel), scratch,
                    &ref_log);
  run_generic_block<T>(bi, blk,
                       blend ? Epilogue<T>{T{1}, T{1}} : Epilogue<T>{});
  ref.grid_blocks = 0;

  const sim::LaunchCounters got =
      replay_counters(prog, cp, delta, e, blend != nullptr);
  if (!counters_equal(ref, got)) return false;

  if (ref_log.size() != cp.tex_lines.size()) return false;
  for (std::size_t i = 0; i < ref_log.size(); ++i) {
    if (ref_log[i] != cp.tex_lines[i] * bi.props->tex_line_bytes) return false;
  }

  if (cp.affine && !(cp.gld_phase.empty() && cp.gst_phase.empty())) {
    const std::int64_t es = prog.elem_size;
    const std::int64_t pm = prog.txn_bytes - 1;
    std::int64_t ld = 0, st = 0;
    if (!cp.gld_phase.empty())
      ld = cp.gld_phase[static_cast<std::size_t>((kRecInBase + e.in_base * es) & pm)];
    if (!cp.gst_phase.empty())
      st = cp.gst_phase[static_cast<std::size_t>((kRecOutBase + e.out_base * es) & pm)];
    if (blend) ld += st;
    if (ld != got.gld_transactions - delta.gld_transactions ||
        st != got.gst_transactions - delta.gst_transactions)
      return false;
  }
  return true;
}

/// self_check_block over every representative of every class present.
template <class T>
bool self_check_all(const SpecBuildInput& bi, const SpecProgram& prog,
                    const RepLayout& l, const SpecBlendProgram* blend) {
  for (int c = 0; c < 4; ++c) {
    if (!prog.cls[c].present) continue;
    for (Index bid : class_rep_bids(c, prog, l))
      if (!self_check_block<T>(bi, prog, bid, blend)) return false;
  }
  return true;
}

template <class T>
std::shared_ptr<const SpecProgram> build_impl(const SpecBuildInput& bi) {
  const KernelSelection& sel = *bi.sel;
  auto prog = std::make_shared<SpecProgram>();
  prog->elem_size = static_cast<int>(sizeof(T));
  prog->txn_bytes = bi.props->dram_transaction_bytes;
  switch (sel.schema) {
    case Schema::kFviMatchSmall:
      prog->a_chunks = sel.fvi_small.i1_chunks;
      prog->a_rem = sel.fvi_small.i1_rem;
      prog->b_chunks = sel.fvi_small.ik_chunks;
      prog->b_rem = sel.fvi_small.ik_rem;
      break;
    case Schema::kOrthogonalDistinct:
      prog->a_chunks = sel.od.a_chunks;
      prog->a_rem = sel.od.a_rem;
      prog->b_chunks = sel.od.b_chunks;
      prog->b_rem = sel.od.b_rem;
      break;
    case Schema::kOrthogonalArbitrary:
      prog->a_chunks = sel.oa.a_chunks;
      prog->a_rem = sel.oa.a_rem;
      prog->b_chunks = sel.oa.b_chunks;
      prog->b_rem = sel.oa.b_rem;
      break;
    default:
      prog->a_chunks = sel.fvi_large.segs;
      prog->a_rem = sel.fvi_large.n0 % sel.fvi_large.seg_len;
      prog->b_chunks = sel.fvi_large.batch_chunks;
      prog->b_rem = sel.fvi_large.batch_rem;
      break;
  }

  // The class_of classifier reads idx0/idx1 straight off the decoded
  // GridEntry, which is only equivalent to the launch classifier's
  // (bid % a_chunks, bid / a_chunks % b_chunks) when the grid's first
  // two slots ARE the chunk dimensions. Verify that layout instead of
  // assuming it.
  const RepLayout layout = rep_layout(sel);
  if (layout.s0 != prog->a_chunks || layout.s1 != prog->b_chunks ||
      layout.outer == 0) {
    count_reject("layout");
    return nullptr;
  }

  bool all_affine = true;
  for (int c = 0; c < 4; ++c) {
    const auto reps = class_rep_bids(c, *prog, layout);
    if (reps.empty()) continue;
    bool ok = false;
    ClassProgram first = record_block<T>(bi, reps[0], &ok);
    if (!ok) {
      count_reject("untraceable");
      return nullptr;
    }
    for (std::size_t r = 1; r < reps.size(); ++r) {
      const ClassProgram other = record_block<T>(bi, reps[r], &ok);
      if (!ok || !programs_equal(first, other)) {
        count_reject("class_mismatch");
        return nullptr;
      }
    }
    first.affine = true;
    for (const SpecGlobalOp& op : first.gops)
      first.affine = first.affine && op.is_run;
    all_affine = all_affine && first.affine;
    prog->cls[c] = std::move(first);
  }

  const bool txn_pow2 =
      prog->txn_bytes > 0 && prog->txn_bytes <= 4096 &&
      std::has_single_bit(static_cast<std::uint64_t>(prog->txn_bytes));
  if (all_affine && txn_pow2) {
    for (ClassProgram& cp : prog->cls) {
      if (!cp.present) continue;
      cp.gld_phase = build_phase_table(cp, true, prog->elem_size, prog->txn_bytes);
      cp.gst_phase = build_phase_table(cp, false, prog->elem_size, prog->txn_bytes);
    }
  }
  for (ClassProgram& cp : prog->cls) {
    if (cp.present) compress_copies(cp);
  }

  if (prog->footprint_bytes() > kSpecProgramMaxBytes) {
    count_reject("footprint");
    return nullptr;
  }

  // Ground-truth self-check on every class representative.
  if (!self_check_all<T>(bi, *prog, layout, nullptr)) {
    count_reject("self_check");
    return nullptr;
  }

  prog->tier = all_affine && txn_pow2 ? SpecTier::kAffineBulk
                                      : SpecTier::kStrideProgram;
  return prog;
}

template <class T>
std::optional<SpecBlendProgram> build_blend_impl(const SpecBuildInput& bi,
                                                 const SpecProgram& base) {
  SpecBlendProgram blend;
  for (int c = 0; c < 4; ++c) {
    const ClassProgram& cp = base.cls[c];
    if (!cp.present) continue;
    // The copy table holds one entry per active store lane, the store
    // ops their distinct addresses: equal counts mean no store op
    // writes an element twice, so blending in place is exact.
    std::int64_t stored = static_cast<std::int64_t>(cp.copy_dst.size());
    if (cp.use_run_copies) {
      stored = 0;
      for (const SpecRunCopy& rc : cp.run_copies) stored += rc.n;
    }
    std::int64_t distinct = 0;
    for (const SpecGlobalOp& op : cp.gops)
      if (!op.is_load) distinct += op.nlanes;
    if (stored != distinct) {
      count_reject("blend_alias");
      return std::nullopt;
    }
    blend.const_delta[c] = cp.const_delta;
    blend.const_delta[c].payload_bytes +=
        stored * static_cast<std::int64_t>(sizeof(T));
  }
  if (!self_check_all<T>(bi, base, rep_layout(*bi.sel), &blend)) {
    count_reject("blend_self_check");
    return std::nullopt;
  }
  telemetry::MetricsRegistry::global().counter("plan.spec.blend_built").inc();
  return blend;
}

}  // namespace

std::shared_ptr<const SpecProgram> build_spec_program(const SpecBuildInput& in) {
  TTLG_CHECK(in.problem != nullptr && in.sel != nullptr && in.props != nullptr,
             "build_spec_program: null input");
  switch (in.problem->elem_size) {
    case 1: return build_impl<std::uint8_t>(in);
    case 2: return build_impl<std::uint16_t>(in);
    case 4: return build_impl<float>(in);
    case 8: return build_impl<double>(in);
    default:
      count_reject("width");
      return nullptr;
  }
}

std::optional<SpecBlendProgram> build_blend_program(const SpecBuildInput& in,
                                                    const SpecProgram& base) {
  TTLG_CHECK(in.problem != nullptr && in.sel != nullptr && in.props != nullptr,
             "build_blend_program: null input");
  switch (base.elem_size) {
    case 1: return build_blend_impl<std::uint8_t>(in, base);
    case 2: return build_blend_impl<std::uint16_t>(in, base);
    case 4: return build_blend_impl<float>(in, base);
    default: return build_blend_impl<double>(in, base);
  }
}

}  // namespace ttlg
