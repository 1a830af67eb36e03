// Execution of compiled stride programs (core/stride_program.hpp).
//
// A specialized launch presents the IDENTICAL LaunchConfig the generic
// kernel would have used (same grid/block geometry, shared size, kernel
// name, classifier, window, texture flag), so fault injection, sampled
// counting, windowing, parallel chunking and telemetry all behave the
// same; only the per-block body changes. Per block it:
//   1. decodes the GridEntry (block table or FastDiv),
//   2. bulk-charges the class's block-invariant counter delta,
//   3. charges global transactions — per recorded access in closed form,
//      or, on the affine tier, one phase-table lookup per direction for
//      the whole tile,
//   4. replays the texture-line touches, and
//   5. in functional mode, runs the fused copy table under the launch's
//      epilogue.
// A beta != 0 epilogue reads `out` back at every store's lanes: the
// blend instantiation charges each store's transactions once more as
// loads, takes its per-class counter delta (read-back payload included)
// from the plan's SpecBlendProgram, and copies out = alpha * in +
// beta * out in place.
#pragma once

#include <cstdint>

#include "core/kernels.hpp"
#include "core/stride_program.hpp"
#include "gpusim/block_ctx.hpp"

namespace ttlg {

/// The epilogue a specialized launch applies (Epilogue<T> decides):
/// kIdentity moves data verbatim; kScale multiplies by alpha (beta == 0,
/// no extra events); kBlend reads the previous output back.
enum class SpecEpi { kIdentity, kScale, kBlend };

/// The specialized kernel body: the compiled program of the block's
/// class, replayed for one element width. Affine selects whole-tile
/// phase-table charging (tier kAffineBulk) over per-access closed forms
/// (tier kStrideProgram).
template <class T, bool Affine, SpecEpi E = SpecEpi::kIdentity>
struct SpecializedKernel {
  const SpecProgram* prog;
  const GridDecoder* dec;
  sim::DeviceBuffer<T> in;
  sim::DeviceBuffer<T> out;
  Epilogue<T> epi{};
  /// kBlend: the plan's blend program (per-class counter deltas).
  const SpecBlendProgram* blend = nullptr;

  void operator()(sim::BlockCtx& blk) const {
    const GridEntry e = dec->decode(blk.block_id());
    const int c = prog->class_of(e);
    const ClassProgram& cp = prog->cls[c];
    if constexpr (E == SpecEpi::kBlend) {
      blk.bulk_charge(blend->const_delta[c]);
    } else {
      blk.bulk_charge(cp.const_delta);
    }

    constexpr std::int64_t es = sizeof(T);
    const std::int64_t in0 = in.base_addr() + e.in_base * es;
    const std::int64_t out0 = out.base_addr() + e.out_base * es;
    if constexpr (Affine) {
      const std::int64_t pm = prog->txn_bytes - 1;
      if (!cp.gld_phase.empty())
        blk.add_gld_transactions(cp.gld_phase[static_cast<std::size_t>(in0 & pm)]);
      if (!cp.gst_phase.empty()) {
        const std::int64_t st = cp.gst_phase[static_cast<std::size_t>(out0 & pm)];
        blk.add_gst_transactions(st);
        if constexpr (E == SpecEpi::kBlend) blk.add_gld_transactions(st);
      }
    } else {
      std::int64_t ld = 0, st = 0;
      for (const SpecGlobalOp& op : cp.gops) {
        const std::int64_t base = op.is_load ? in0 : out0;
        const std::int64_t t =
            op.is_run
                ? sim::count_run_transactions(base + op.rel0 * es, op.nlanes,
                                              static_cast<int>(es),
                                              prog->txn_bytes)
                : sim::count_sorted_offset_transactions(
                      base, cp.byte_deltas.data() + op.delta_off, op.delta_len,
                      prog->txn_bytes);
        if (op.is_load) ld += t;
        else st += t;
      }
      blk.add_gld_transactions(E == SpecEpi::kBlend ? ld + st : ld);
      blk.add_gst_transactions(st);
    }
    if (!cp.tex_lines.empty()) {
      blk.touch_tex_lines(cp.tex_lines.data(),
                          static_cast<std::int64_t>(cp.tex_lines.size()));
    }

    if (blk.mode() != sim::ExecMode::kFunctional || cp.max_src < 0) return;
    TTLG_ASSERT(in.valid() && out.valid(),
                "functional access through a storage-free (virtual) buffer");
    TTLG_ASSERT(e.in_base + cp.min_src >= 0 && e.in_base + cp.max_src < in.size(),
                "global load out of bounds");
    TTLG_ASSERT(
        e.out_base + cp.min_dst >= 0 && e.out_base + cp.max_dst < out.size(),
        "global store out of bounds");
    const T* ip = in.data() + e.in_base;
    sim::DeviceBuffer<T> ob = out;  // the view is const inside operator()
    T* op = ob.data() + e.out_base;
    // A local copy of the coefficients: stores into `out` cannot alias
    // it, so the loops keep alpha and beta in registers.
    const Epilogue<T> ep = epi;
    if (cp.use_run_copies) {
      for (const SpecRunCopy& rc : cp.run_copies) {
        const T* s = ip + rc.src0;
        T* d = op + rc.dst0;
        for (std::int64_t i = 0; i < rc.n; ++i) put(ep, d[i], s[i]);
      }
    } else {
      const std::int64_t n = static_cast<std::int64_t>(cp.copy_dst.size());
      const std::int64_t* dst = cp.copy_dst.data();
      const std::int64_t* src = cp.copy_src.data();
      for (std::int64_t i = 0; i < n; ++i) put(ep, op[dst[i]], ip[src[i]]);
    }
  }

  /// One element of the fused copy under epilogue `ep`. Blending in
  /// place equals the generic read-then-store because no store op
  /// writes one element twice (checked by build_blend_program).
  static void put(const Epilogue<T>& ep, T& d, T s) {
    if constexpr (E == SpecEpi::kIdentity) {
      d = s;
    } else if constexpr (E == SpecEpi::kScale) {
      d = ep.scale(s);
    } else {
      d = ep.blend(s, d);
    }
  }
};

}  // namespace ttlg
