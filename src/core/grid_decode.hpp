// Strength-reduced grid decode: the block-id -> (base offsets, chunk
// coordinates) mapping every kernel performs at block entry.
//
// The reference formulation (paper Alg. 2/5/6/7 preambles) peels one
// grid slot per `%`/`/` pair. This class precomputes, at make_plan
// time, one Granlund–Montgomery FastDiv per slot — so the per-block
// decode costs multiplies and shifts only — and, for repeated-use plans
// with small grids, goes one step further in the spirit of Alg. 4: the
// whole decode is tabulated into a per-plan array of GridEntry, making
// block entry a single indexed load. Large grids keep the FastDiv path
// (the table would not amortize); both paths produce identical values,
// and the simulated special-instruction charge is unchanged either way
// (host-side strength reduction must never alter simulated counters).
#pragma once

#include <cstdint>
#include <vector>

#include "common/fastdiv.hpp"
#include "core/problem.hpp"

namespace ttlg {

/// Default block-table size cap: 65536 entries x 32 B = 2 MB per plan.
/// Grids beyond the cap use the FastDiv fallback path. The effective
/// cap is runtime-tunable via TTLG_GRID_TABLE_MAX (positive integer;
/// anything unparsable or non-positive falls back to this default), and
/// every init() outcome is exported as grid_decode.table_built /
/// grid_decode.table_capped counters so the table hit rate is
/// observable instead of a silent compile-time constant.
inline constexpr Index kGridTableMaxBlocks = Index{1} << 16;

/// The cap init() applies right now: TTLG_GRID_TABLE_MAX when set and
/// valid, kGridTableMaxBlocks otherwise. Re-read on every call so tests
/// and long-lived services can retune without rebuilding.
Index grid_table_max_blocks();

/// One precomputed block decode: the decode() + compute_base() pair
/// collapsed. Kernels only consume the two base offsets and the first
/// two slot coordinates (the chunked A/B dims that drive remainder
/// handling), so only those are materialized.
struct GridEntry {
  Index in_base = 0;
  Index out_base = 0;
  Index idx0 = 0;  ///< slot-0 coordinate (chunk A / segment)
  Index idx1 = 0;  ///< slot-1 coordinate (chunk B / batch chunk)
};

class GridDecoder {
 public:
  GridDecoder() = default;

  /// Precompute the per-slot FastDivs and, when `build_table` and the
  /// grid fits under kGridTableMaxBlocks, the full block table.
  void init(const std::vector<Index>& extents,
            const std::vector<Index>& in_strides,
            const std::vector<Index>& out_strides, Index grid_blocks,
            bool build_table);

  /// Number of grid slots (the simulator charges 2 special instructions
  /// per slot, table or not — identical to the reference decode).
  Index slots() const { return static_cast<Index>(divs_.size()); }
  bool has_table() const { return !table_.empty(); }

  /// Extent of grid slot i (the FastDiv divisor). The specialization
  /// builder cross-checks these against the kernel's chunk classifier
  /// before trusting idx0/idx1-based block classes.
  Index slot_extent(std::size_t i) const { return divs_[i].divisor(); }

  GridEntry decode(Index block_id) const {
    if (!table_.empty()) return table_[static_cast<std::size_t>(block_id)];
    return decode_fastdiv(block_id);
  }

  /// The division-free path, exposed separately so tests can pin
  /// table-vs-fastdiv equivalence.
  GridEntry decode_fastdiv(Index block_id) const {
    GridEntry e;
    Index rest = block_id;
    for (std::size_t i = 0; i < divs_.size(); ++i) {
      const DivMod dm = divs_[i].divmod(rest);
      rest = dm.quot;
      if (i == 0) e.idx0 = dm.rem;
      if (i == 1) e.idx1 = dm.rem;
      e.in_base += dm.rem * in_strides_[i];
      e.out_base += dm.rem * out_strides_[i];
    }
    return e;
  }

 private:
  std::vector<FastDiv> divs_;
  std::vector<Index> in_strides_;
  std::vector<Index> out_strides_;
  std::vector<GridEntry> table_;
};

}  // namespace ttlg
