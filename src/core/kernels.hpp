// The four TTLG transposition kernels (paper Algs. 2, 5, 6, 7), written
// against the gpusim warp-collective execution model. Each kernel is a
// callable object passed to sim::Device::launch; lane address vectors
// reproduce the exact global-coalescing / shared-bank behaviour the
// CUDA originals are designed around.
#pragma once

#include <array>
#include <bit>

#include "core/fvi_config.hpp"
#include "core/grid_decode.hpp"
#include "core/oa_config.hpp"
#include "core/od_config.hpp"
#include "gpusim/block_ctx.hpp"
#include "gpusim/dbuffer.hpp"

namespace ttlg {

/// Transposition epilogue: out = alpha * permute(in) + beta * out —
/// the scaling interface cuTT and TTC expose. beta != 0 reads the
/// previous output contents, which costs real load transactions (and
/// the simulator charges them).
template <class T>
struct Epilogue {
  T alpha{1};
  T beta{0};
  bool is_identity() const { return alpha == T{1} && beta == T{0}; }
};

/// Apply the epilogue and store: fetches old output values only when
/// beta demands them. Templated on the execution context so the same
/// kernel source runs against sim::BlockCtx (simulation) or the stride
/// program recorder (plan-time specialization, core/stride_program.cpp).
template <class Ctx, class T>
inline void store_with_epilogue(Ctx& blk, sim::DeviceBuffer<T> out,
                                const sim::LaneArray& ga,
                                sim::LaneValues<T>& v,
                                const Epilogue<T>& epi) {
  if (epi.beta != T{0}) {
    sim::LaneValues<T> old{};
    blk.gld(out, ga, old);
    for (std::uint64_t m = ga.active_mask(); m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      v[l] = epi.alpha * v[l] + epi.beta * old[l];
    }
  } else if (epi.alpha != T{1}) {
    for (std::uint64_t m = ga.active_mask(); m != 0; m &= m - 1) {
      v[static_cast<std::size_t>(std::countr_zero(m))] *= epi.alpha;
    }
  }
  blk.gst(out, ga, v);
}

/// Decompose the block id over the grid slots and accumulate the
/// input/output base offsets — the paper's decode() + compute_base()
/// pair. The host-side arithmetic is strength-reduced (block table or
/// FastDiv, see GridDecoder), but the SIMULATED cost is unchanged: the
/// modeled kernel still pays one mod/div pair per grid slot, so the
/// special-instruction charge is identical to the reference decode.
template <class Ctx>
inline GridEntry decode_block(Ctx& blk, const GridDecoder& dec) {
  blk.count_special(2 * dec.slots());
  return dec.decode(blk.block_id());
}

// ---------------------------------------------------------------------
// Orthogonal-Distinct (Alg. 2)
// ---------------------------------------------------------------------
template <class T>
struct OdKernel {
  const OdConfig& cfg;
  sim::DeviceBuffer<T> in;
  sim::DeviceBuffer<T> out;
  sim::DeviceBuffer<Index> in_offset;   // texture: size b_vol
  sim::DeviceBuffer<Index> out_offset;  // texture: size a_vol
  Epilogue<T> epi{};

  template <class Ctx>
  void operator()(Ctx& blk) const {
    const GridEntry dec = decode_block(blk, cfg.decoder);
    const Index A = cfg.a_eff(dec.idx0);
    const Index B = cfg.b_eff(dec.idx1);
    const int nwarps = blk.num_warps();
    const Index ws = sim::kWarpSize;

    const Index b_tiles = (B + ws - 1) / ws;
    const Index a_tiles = (A + ws - 1) / ws;
    for (Index tb = 0; tb < b_tiles; ++tb) {
      const Index bh = std::min<Index>(ws, B - tb * ws);
      for (Index ta = 0; ta < a_tiles; ++ta) {
        const Index aw = std::min<Index>(ws, A - ta * ws);

        // Phase 1: coalesced copy-in. Warp w handles output-combined
        // row b = tb*32 + r0 + w; lanes walk the contiguous input run.
        for (Index r0 = 0; r0 < bh; r0 += nwarps) {
          for (int w = 0; w < nwarps; ++w) {
            const Index r = r0 + w;
            if (r >= bh) break;
            const Index b = tb * ws + r;
            sim::LaneArray toff;
            sim::LaneValues<Index> offv{};
            toff.set(0, b);  // warp-uniform read of in_offset[b] (broadcast)
            blk.tld(in_offset, toff, offv);
            blk.count_special(cfg.extra_row_specials);
            sim::LaneArray ga, sa;
            sim::LaneValues<T> v{};
            ga.fill_run(dec.in_base + offv[0] + ta * ws,
                        static_cast<int>(aw));
            sa.fill_run(r * cfg.tile_pitch, static_cast<int>(aw));
            blk.gld(in, ga, v);
            blk.sst(sa, v);
          }
        }
        blk.sync();

        // Phase 2: coalesced write-out. Warp w handles input-combined
        // column a = ta*32 + c0 + w; lanes walk a padded smem column
        // (conflict-free) and the contiguous output run.
        for (Index c0 = 0; c0 < aw; c0 += nwarps) {
          for (int w = 0; w < nwarps; ++w) {
            const Index c = c0 + w;
            if (c >= aw) break;
            const Index a = ta * ws + c;
            sim::LaneArray toff;
            sim::LaneValues<Index> offv{};
            toff.set(0, a);
            blk.tld(out_offset, toff, offv);
            blk.count_special(cfg.extra_row_specials);
            sim::LaneArray sa, ga;
            sim::LaneValues<T> v{};
            sa.fill_strided(c, cfg.tile_pitch, static_cast<int>(bh));
            ga.fill_run(dec.out_base + offv[0] + tb * ws,
                        static_cast<int>(bh));
            blk.sld(sa, v);
            store_with_epilogue(blk, out, ga, v, epi);
          }
        }
        blk.sync();
      }
    }
  }
};

// ---------------------------------------------------------------------
// Orthogonal-Arbitrary (Alg. 5)
// ---------------------------------------------------------------------
template <class T>
struct OaKernel {
  const OaConfig& cfg;
  sim::DeviceBuffer<T> in;
  sim::DeviceBuffer<T> out;
  sim::DeviceBuffer<Index> input_offset;    // texture: size oos_vol
  sim::DeviceBuffer<Index> output_offset;   // texture: size slice_vol
  sim::DeviceBuffer<Index> sm_out_offset;   // texture: size slice_vol
  Epilogue<T> epi{};

  template <class Ctx>
  void operator()(Ctx& blk) const {
    const GridEntry dec = decode_block(blk, cfg.decoder);
    const Index c_eff = cfg.c_eff(dec.idx0);
    const Index r_eff = cfg.r_eff(dec.idx1);
    const bool partial = c_eff < cfg.in_vol || r_eff < cfg.oos_vol;
    const int nthreads = blk.block_dim();
    const int nwarps = blk.num_warps();
    const Index ws = sim::kWarpSize;
    // start_col = threadid % inp_vol / start_row = threadid / inp_vol
    // (Alg. 5 lines 7-8): one mod+div per warp at kernel entry.
    blk.count_special(2 * nwarps);

    for (Index ci = 0; ci < cfg.coarsen_extent; ++ci) {
      const Index in_base = dec.in_base + ci * cfg.coarsen_in_stride;
      const Index out_base = dec.out_base + ci * cfg.coarsen_out_stride;

      // Phase 1: copy-in. Lanes walk slice positions s = r*in_vol + c in
      // input order; the c-run is contiguous in global memory. One
      // FastDiv divmod splits the warp base; lanes advance (r, c) as an
      // odometer instead of re-dividing per lane.
      for (Index s0 = 0; s0 < cfg.slice_vol; s0 += nthreads) {
        for (int w = 0; w < nwarps; ++w) {
          const Index base = s0 + static_cast<Index>(w) * ws;
          if (base >= cfg.slice_vol) break;
          const DivMod rc = cfg.in_vol_div.divmod(base);
          Index r = rc.quot;
          Index c = rc.rem;
          // Lanes form runs of constant r with consecutive c: fill each
          // run as a strip instead of stepping the odometer per lane.
          const Index nlane = std::min<Index>(ws, cfg.slice_vol - base);
          std::array<Index, sim::kWarpSize> ca{};
          sim::LaneArray ra;
          for (Index l = 0; l < nlane;) {
            const Index seg = std::min<Index>(nlane - l, cfg.in_vol - c);
            if (r < r_eff && c < c_eff) {
              const int run =
                  static_cast<int>(std::min<Index>(seg, c_eff - c));
              ra.fill_const_at(static_cast<int>(l), run, r);
              for (int i = 0; i < run; ++i)
                ca[static_cast<std::size_t>(l + i)] = c + i;
            }
            l += seg;
            c += seg;
            if (c == cfg.in_vol) {
              c = 0;
              ++r;
            }
          }
          if (!ra.any_active()) continue;
          sim::LaneValues<Index> offv{};
          blk.tld(input_offset, ra, offv);
          sim::LaneArray ga, sa;
          sim::LaneValues<T> v{};
          // base is warp-aligned, so pad_index(base + l) == pad_base + l
          // for every lane of this warp.
          const Index pad_base = cfg.pad_index(base);
          for (std::uint64_t m = ra.active_mask(); m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            ga.set(l, in_base + offv[static_cast<std::size_t>(l)] +
                          ca[static_cast<std::size_t>(l)]);
            sa.set(l, pad_base + l);
          }
          blk.gld(in, ga, v);
          blk.sst(sa, v);
        }
      }
      blk.sync();

      // Phase 2: copy-out in output-linear slice order p, via the two
      // indirection arrays. Partial chunks mask by re-deriving the
      // blocked dims' indices with mod/div (the paper's "special
      // instructions ... used for boundary checking in remainder code").
      for (Index s0 = 0; s0 < cfg.slice_vol; s0 += nthreads) {
        for (int w = 0; w < nwarps; ++w) {
          const Index base = s0 + static_cast<Index>(w) * ws;
          if (base >= cfg.slice_vol) break;
          const Index nlane = std::min<Index>(ws, cfg.slice_vol - base);
          sim::LaneArray pa;
          if (!partial) {
            // Full block: p runs consecutively — one strip fill, and the
            // downstream texture loads hit the dense-range fast path.
            pa.fill_run(base, static_cast<int>(nlane));
          } else {
            for (Index l = 0; l < nlane; ++l) {
              const Index p = base + l;
              if (c_eff < cfg.in_vol && cfg.mask_a_stride > 0) {
                const Index idx =
                    cfg.mask_a_extent_div.mod(cfg.mask_a_stride_div.div(p));
                if (idx >= cfg.a_rem) continue;
              }
              if (r_eff < cfg.oos_vol && cfg.mask_b_stride > 0) {
                const Index idx =
                    cfg.mask_b_extent_div.mod(cfg.mask_b_stride_div.div(p));
                if (idx >= cfg.b_rem) continue;
              }
              pa.set(static_cast<int>(l), p);
            }
            blk.count_special(4);
          }
          if (!pa.any_active()) continue;
          sim::LaneValues<Index> smoff{}, gooff{};
          blk.tld(sm_out_offset, pa, smoff);
          blk.tld(output_offset, pa, gooff);
          sim::LaneArray sa, ga;
          sim::LaneValues<T> v{};
          for (std::uint64_t m = pa.active_mask(); m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            sa.set(l, cfg.pad_index(smoff[static_cast<std::size_t>(l)]));
            ga.set(l, out_base + gooff[static_cast<std::size_t>(l)]);
          }
          blk.sld(sa, v);
          store_with_epilogue(blk, out, ga, v, epi);
        }
      }
      blk.sync();
    }
  }
};

// ---------------------------------------------------------------------
// FVI-Match-Small (Alg. 6)
// ---------------------------------------------------------------------
template <class T>
struct FviSmallKernel {
  const FviSmallConfig& cfg;
  sim::DeviceBuffer<T> in;
  sim::DeviceBuffer<T> out;
  Epilogue<T> epi{};

  template <class Ctx>
  void operator()(Ctx& blk) const {
    const GridEntry dec = decode_block(blk, cfg.decoder);
    const Index i1_eff =
        (cfg.i1_rem != 0 && dec.idx0 == cfg.i1_chunks - 1) ? cfg.i1_rem
                                                           : cfg.b;
    const Index ik_eff =
        (cfg.ik_rem != 0 && dec.idx1 == cfg.ik_chunks - 1) ? cfg.ik_rem
                                                           : cfg.b;
    const int nwarps = blk.num_warps();
    const Index ws = sim::kWarpSize;

    for (Index ci = 0; ci < cfg.coarsen_extent; ++ci) {
      const Index in_base = dec.in_base + ci * cfg.coarsen_in_stride;
      const Index out_base = dec.out_base + ci * cfg.coarsen_out_stride;

      // Phase 1: each warp w copies the contiguous b x N0 input chunk
      // for its own ik value into buffer row w.
      const Index in_run = i1_eff * cfg.n0;
      for (int w = 0; w < nwarps; ++w) {
        if (w >= ik_eff) break;
        const Index row_base = in_base + w * cfg.in_stride_ik;
        for (Index j0 = 0; j0 < in_run; j0 += ws) {
          const int n = static_cast<int>(std::min<Index>(ws, in_run - j0));
          sim::LaneArray ga, sa;
          sim::LaneValues<T> v{};
          ga.fill_run(row_base + j0, n);
          sa.fill_run(w * cfg.row_pitch + j0, n);
          blk.gld(in, ga, v);
          blk.sst(sa, v);
        }
      }
      blk.sync();

      // Phase 2: each warp w' gathers b "pencils" along ik from the
      // padded buffer (conflict-free by construction) and writes the
      // contiguous b x N0 output chunk for its own i1 value.
      const Index out_run = ik_eff * cfg.n0;
      for (int w = 0; w < nwarps; ++w) {
        if (w >= i1_eff) break;
        const Index row_base = out_base + w * cfg.out_stride_i1;
        for (Index q0 = 0; q0 < out_run; q0 += ws) {
          const int n = static_cast<int>(std::min<Index>(ws, out_run - q0));
          sim::LaneArray sa, ga;
          sim::LaneValues<T> v{};
          ga.fill_run(row_base + q0, n);
          // One FastDiv divmod for the first lane; (jk, e) advances as
          // an odometer across the warp's consecutive q values.
          DivMod jke = cfg.n0_div.divmod(q0);
          for (int l = 0; l < n; ++l) {
            sa.set(l, jke.quot * cfg.row_pitch + w * cfg.n0 + jke.rem);
            if (++jke.rem == cfg.n0) {
              jke.rem = 0;
              ++jke.quot;
            }
          }
          blk.sld(sa, v);
          store_with_epilogue(blk, out, ga, v, epi);
        }
      }
      blk.sync();
    }
  }
};

// ---------------------------------------------------------------------
// FVI-Match-Large (Alg. 7) — also the pure-copy degenerate kernel
// ---------------------------------------------------------------------
template <class T>
struct FviLargeKernel {
  const FviLargeConfig& cfg;
  sim::DeviceBuffer<T> in;
  sim::DeviceBuffer<T> out;
  Epilogue<T> epi{};

  template <class Ctx>
  void operator()(Ctx& blk) const {
    const GridEntry dec = decode_block(blk, cfg.decoder);
    const Index seg = dec.idx0;
    const Index len =
        std::min<Index>(cfg.seg_len, cfg.n0 - seg * cfg.seg_len);
    const int nthreads = blk.block_dim();
    const int nwarps = blk.num_warps();
    const Index ws = sim::kWarpSize;
    const Index rows =
        (cfg.batch_rem != 0 && dec.idx1 == cfg.batch_chunks - 1)
            ? cfg.batch_rem
            : cfg.batch;
    (void)nthreads;

    // Distribute (row, 32-chunk) pairs across the block's warps so both
    // short-and-batched and long-unbatched rows keep every warp busy.
    // g walks 0..total-1 strictly sequentially, so its (row, chunk)
    // split is maintained as an odometer — no division at all.
    const Index jchunks = (len + ws - 1) / ws;
    const Index total = rows * jchunks;
    Index ci = 0, jc = 0;  // g == ci * jchunks + jc
    for (Index g0 = 0; g0 < total; g0 += nwarps) {
      for (int w = 0; w < nwarps; ++w) {
        const Index g = g0 + w;
        if (g >= total) break;
        const Index base = jc * ws;
        const Index in_base = dec.in_base + ci * cfg.batch_in_stride;
        const Index out_base = dec.out_base + ci * cfg.batch_out_stride;
        if (++jc == jchunks) {
          jc = 0;
          ++ci;
        }
        const int n = static_cast<int>(std::min<Index>(ws, len - base));
        sim::LaneArray ga, go;
        sim::LaneValues<T> v{};
        ga.fill_run(in_base + base, n);
        go.fill_run(out_base + base, n);
        blk.gld(in, ga, v);
        store_with_epilogue(blk, out, go, v, epi);
      }
    }
  }
};

}  // namespace ttlg
