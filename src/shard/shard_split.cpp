#include "shard/shard_split.hpp"

#include <algorithm>

namespace ttlg::shard {
namespace {

/// Per-schema view of the planned grid: slot extents/output strides
/// plus the (output dim, unit) walked by the two chunked slots.
struct GridView {
  const std::vector<Index>* extents = nullptr;
  const std::vector<Index>* out_strides = nullptr;
  /// Slot 0 / slot 1 mapping; in_dim == -1 when the slot indexes
  /// nothing (e.g. FVI-Large batch slot on a rank-1 fused problem).
  Index in_dim0 = -1, unit0 = 1;
  Index in_dim1 = -1, unit1 = 1;
  /// Slot 1 of OD is specified by OUTPUT position directly.
  Index out_pos1 = -1;
};

GridView grid_view(const TransposeProblem& p, const KernelSelection& sel) {
  const Index rank = p.fused.shape.rank();
  GridView v;
  switch (sel.schema) {
    case Schema::kCopy:
    case Schema::kFviMatchLarge: {
      const FviLargeConfig& k = sel.fvi_large;
      v.extents = &k.grid_extents;
      v.out_strides = &k.grid_out_strides;
      v.in_dim0 = 0;
      v.unit0 = k.seg_len;
      if (rank > 1) {
        v.in_dim1 = 1;
        v.unit1 = k.batch;
      }
      break;
    }
    case Schema::kFviMatchSmall: {
      const FviSmallConfig& k = sel.fvi_small;
      v.extents = &k.grid_extents;
      v.out_strides = &k.grid_out_strides;
      v.in_dim0 = 1;
      v.unit0 = k.b;
      v.in_dim1 = k.dim_ik;
      v.unit1 = k.b;
      break;
    }
    case Schema::kOrthogonalDistinct: {
      const OdConfig& k = sel.od;
      v.extents = &k.grid_extents;
      v.out_strides = &k.grid_out_strides;
      v.in_dim0 = k.in_blocked_dim;
      v.unit0 = k.slice.block_a;
      v.out_pos1 = k.out_blocked_pos;
      v.unit1 = k.slice.block_b;
      break;
    }
    case Schema::kOrthogonalArbitrary: {
      const OaConfig& k = sel.oa;
      v.extents = &k.grid_extents;
      v.out_strides = &k.grid_out_strides;
      v.in_dim0 = k.in_blocked_dim;
      v.unit0 = k.slice.block_a;
      v.in_dim1 = k.oos_blocked_dim;  // -1 when OOS is empty
      v.unit1 = k.slice.block_b;
      break;
    }
  }
  return v;
}

}  // namespace

ShardAxis find_shard_axis(const TransposeProblem& problem,
                          const KernelSelection& sel) {
  const GridView v = grid_view(problem, sel);
  ShardAxis axis;
  if (v.extents == nullptr || v.extents->empty()) return axis;

  // The outermost (slowest-decoded) slot with extent > 1: every slot
  // above it has extent 1, so a coordinate range of this slot is a
  // contiguous block-id range.
  Index slot = -1;
  for (Index s = static_cast<Index>(v.extents->size()) - 1; s >= 0; --s) {
    if ((*v.extents)[static_cast<std::size_t>(s)] > 1) {
      slot = s;
      break;
    }
  }
  if (slot < 0) return axis;  // single-block grid

  const Shape& fo = problem.fused_out;
  const Permutation& fp = problem.fused.perm;
  Index out_pos = -1;
  Index unit = 1;
  if (slot == 0 && v.in_dim0 >= 0) {
    out_pos = fp.position_of(v.in_dim0);
    unit = v.unit0;
  } else if (slot == 1 && v.out_pos1 >= 0) {
    out_pos = v.out_pos1;
    unit = v.unit1;
  } else if (slot == 1 && v.in_dim1 >= 0) {
    out_pos = fp.position_of(v.in_dim1);
    unit = v.unit1;
  } else if (slot >= 2) {
    // Outer slots carry whole fused dims with unit stride: recover the
    // dim by matching (output stride, extent). Extents > 1 make the
    // match unique in a dense layout.
    const Index stride = (*v.out_strides)[static_cast<std::size_t>(slot)];
    const Index extent = (*v.extents)[static_cast<std::size_t>(slot)];
    for (Index q = 0; q < fo.rank(); ++q) {
      if (fo.stride(q) == stride && fo.extent(q) == extent) {
        out_pos = q;
        break;
      }
    }
  }
  if (out_pos < 0) return axis;  // no clean mapping: run unsharded

  axis.slot = slot;
  axis.slot_extent = (*v.extents)[static_cast<std::size_t>(slot)];
  axis.inner_blocks = 1;
  for (Index s = 0; s < slot; ++s)
    axis.inner_blocks *= (*v.extents)[static_cast<std::size_t>(s)];
  axis.out_pos = out_pos;
  axis.unit = unit;
  axis.dim_extent = fo.extent(out_pos);
  // Defensive: the slot coordinates must tile the dim in `unit` chunks;
  // anything else means the config walks the dim differently than the
  // model above assumes, and we refuse to split.
  if ((axis.dim_extent + unit - 1) / unit != axis.slot_extent) return axis;
  axis.splittable = axis.slot_extent > 1;
  return axis;
}

std::vector<ShardRange> partition_axis(const ShardAxis& axis, int shards,
                                       Index grid_blocks) {
  std::vector<ShardRange> out;
  if (!axis.splittable) {
    ShardRange r;
    r.slot_lo = 0;
    r.slot_hi = axis.slot_extent;
    r.block_begin = 0;
    r.block_count = grid_blocks;
    r.dim_lo = 0;
    r.dim_hi = axis.dim_extent;
    out.push_back(r);
    return out;
  }
  const Index e = axis.slot_extent;
  const Index n = std::clamp<Index>(shards, 1, e);
  out.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    ShardRange r;
    r.slot_lo = e * i / n;
    r.slot_hi = e * (i + 1) / n;
    r.block_begin = r.slot_lo * axis.inner_blocks;
    r.block_count = (r.slot_hi - r.slot_lo) * axis.inner_blocks;
    r.dim_lo = r.slot_lo * axis.unit;
    r.dim_hi = std::min(r.slot_hi * axis.unit, axis.dim_extent);
    out.push_back(r);
  }
  return out;
}

RegionRuns region_runs(const TransposeProblem& problem, const ShardAxis& axis,
                       const ShardRange& range) {
  RegionRuns runs;
  if (axis.out_pos < 0) {
    runs.base = 0;
    runs.run = problem.volume();
    runs.period = std::max<Index>(problem.volume(), 1);
    runs.count = 1;
    return runs;
  }
  const Shape& fo = problem.fused_out;
  const Index stride = fo.stride(axis.out_pos);
  runs.base = range.dim_lo * stride;
  runs.run = (range.dim_hi - range.dim_lo) * stride;
  runs.period = stride * fo.extent(axis.out_pos);
  runs.count = problem.volume() / runs.period;
  return runs;
}

}  // namespace ttlg::shard
