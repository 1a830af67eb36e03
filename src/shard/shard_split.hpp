// Shard geometry: where a planned transposition can be split, how the
// split partitions the block-id space, and which output-memory runs
// each shard owns.
//
// The split axis is the OUTERMOST grid slot with extent > 1 of the
// planned kernel's grid. Every kernel config orders its grid slots
// fastest-first — [chunkA, chunkB, outer fused dims in input order] —
// and decodes block ids per-slot, so a contiguous coordinate range
// [lo, hi) of the outermost (slowest) non-trivial slot is exactly the
// contiguous block-id range [lo, hi) * inner_blocks. Each slot walks
// one fused-OUTPUT dimension in units of its chunk size (block_a /
// block_b / seg_len / batch / 1), which makes a shard's output
// footprint a strided run set — disjoint across shards, exhaustive
// over the tensor (the no-gap/no-overlap property the tests pin).
#pragma once

#include <vector>

#include "core/planner.hpp"
#include "core/problem.hpp"

namespace ttlg::shard {

/// The splittable axis of a kernel selection, or splittable == false
/// when the grid has a single block (or a single non-trivial slot
/// coordinate): such problems run as one shard.
struct ShardAxis {
  bool splittable = false;
  Index slot = -1;         ///< grid slot index being partitioned
  Index slot_extent = 1;   ///< partitionable slot coordinates
  Index inner_blocks = 1;  ///< contiguous blocks per slot coordinate
  Index out_pos = -1;      ///< fused-OUTPUT dim the slot walks
  Index unit = 1;          ///< dim coordinates per slot coordinate
  Index dim_extent = 1;    ///< fused-output extent at out_pos
};

/// Locate the split axis of `sel` for `problem`. Never throws: configs
/// that expose no clean axis (single-block grids, fully coarsened
/// outer dims) come back splittable == false.
ShardAxis find_shard_axis(const TransposeProblem& problem,
                          const KernelSelection& sel);

/// Total blocks of the selection's chosen kernel config (the block-id
/// space the shards' Plan::launch windows partition).
Index selection_grid_blocks(const KernelSelection& sel);

/// One shard's slice of the axis: slot coordinates, block-id window
/// and fused-output dim coordinates (unit-scaled, remainder-clamped).
struct ShardRange {
  Index slot_lo = 0, slot_hi = 0;
  Index block_begin = 0, block_count = 0;
  Index dim_lo = 0, dim_hi = 0;
};

/// Split the axis into min(shards, slot_extent) balanced contiguous
/// ranges (the i-th gets slot coords [E*i/N, E*(i+1)/N)). The ranges
/// partition both the slot coordinates and the block-id space exactly.
/// For an unsplittable axis returns the single whole-grid range; pass
/// `grid_blocks` so that range can cover the full block-id space.
std::vector<ShardRange> partition_axis(const ShardAxis& axis, int shards,
                                       Index grid_blocks);

/// The output-memory footprint of one shard, as `count` runs of `run`
/// contiguous elements starting at `base`, one per `period` elements.
/// For an unsplittable axis (out_pos < 0) the single run covers the
/// whole tensor.
struct RegionRuns {
  Index base = 0;
  Index run = 0;
  Index period = 1;
  Index count = 0;

  Index elems() const { return run * count; }
};

RegionRuns region_runs(const TransposeProblem& problem, const ShardAxis& axis,
                       const ShardRange& range);

}  // namespace ttlg::shard
