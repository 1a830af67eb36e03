// Property tests for the sharded executor's two structural invariants:
//
//  1. Counter additivity — the shard-order fold of the per-shard
//     LaunchCounters (ShardCounters::total, via operator+=, which sums
//     every additive field including grid_blocks) equals the counters
//     of the SAME problem executed unsharded on a fresh reference
//     device, exactly, for every schema and shard count.
//
//  2. Exact partition — the shard ranges tile both the block-id space
//     and the split dimension with no gap and no overlap, including
//     prime extents and size-1 extents, and the per-shard output
//     region runs cover every element of the tensor exactly once.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/ttlg.hpp"
#include "shard/sharded_executor.hpp"

namespace ttlg::shard {
namespace {

// One directed problem per taxonomy schema.
const std::vector<std::pair<Extents, std::vector<Index>>>& schema_cases() {
  static const std::vector<std::pair<Extents, std::vector<Index>>> cases = {
      {{64, 64}, {0, 1}},                    // Copy
      {{64, 16, 16}, {0, 2, 1}},             // FVI-Match-Large
      {{16, 8, 24}, {0, 2, 1}},              // FVI-Match-Small
      {{40, 9, 40}, {2, 1, 0}},              // Orthogonal-Distinct
      {{8, 2, 24, 24, 24}, {2, 1, 3, 0, 4}}  // Orthogonal-Arbitrary
  };
  return cases;
}

/// Unsharded reference counters, produced with the IDENTICAL pinned
/// selection and the identical allocation order (in mirror, out
/// mirror, then the plan's texture arrays) the sharded executor uses
/// on each fresh fleet device — the precondition for texture-miss
/// equality (docs/sharding.md).
sim::LaunchCounters reference_counters(const Shape& shape,
                                       const Permutation& perm,
                                       const std::vector<double>& in_host,
                                       const std::vector<double>& out_host) {
  sim::Device ref;
  const TransposeProblem problem =
      TransposeProblem::make(shape, perm, sizeof(double));
  PlanOptions popts;
  popts.elem_size = sizeof(double);
  const PerfModel model(ref.props(), popts.model);
  const KernelSelection sel = select_kernel(problem, model, popts);
  auto in = ref.alloc_copy<double>(in_host);
  auto out = ref.alloc_copy<double>(
      std::span<const double>(out_host.data(), out_host.size()));
  Plan plan = Plan::from_selection(ref, problem, sel);
  const MemberPair<double> member{in, out};
  return plan.launch<double>({{&member, 1}, {}, {}}).front().counters;
}

TEST(ShardCounterAdditivity, SumsExactlyToUnshardedForEverySchema) {
  Rng rng(11);
  for (const auto& [ext, perm_v] : schema_cases()) {
    const Shape shape(ext);
    const Permutation perm(perm_v);
    std::vector<double> in_host(static_cast<std::size_t>(shape.volume()));
    std::vector<double> out_host(static_cast<std::size_t>(shape.volume()),
                                 0.0);
    for (auto& x : in_host) x = rng.uniform01();

    const sim::LaunchCounters ref =
        reference_counters(shape, perm, in_host, out_host);

    for (int n : {1, 2, 3, 4, 7}) {
      Fleet fleet = Fleet::homogeneous(n);  // FRESH devices per run
      ShardOptions sopts;
      sopts.num_shards = n;
      ShardedExecutor ex(fleet, sopts);
      std::vector<double> out = out_host;
      auto res = ex.run<double>(
          shape, perm,
          std::span<const double>(in_host.data(), in_host.size()),
          std::span<double>(out.data(), out.size()));
      ASSERT_TRUE(res.has_value()) << res.status().message();
      EXPECT_TRUE(res->counters_exact);
      const sim::LaunchCounters total = res->counters().total();
      EXPECT_EQ(total.to_json().dump(), ref.to_json().dump())
          << shape.to_string() << perm.to_string() << " at " << n
          << " shards (" << res->shards.size() << " executed)";
      // The fold's additive grid size must cover the full grid.
      EXPECT_EQ(total.grid_blocks, ref.grid_blocks);
    }
  }
}

TEST(ShardCounterAdditivity, CountOnlyRunsMatchFunctionalCounters) {
  // run_count_only uses virtual buffers and kCountOnly mode; with
  // sampling off its summed counters must match the functional run's.
  const Shape shape({40, 9, 40});
  const Permutation perm({2, 1, 0});
  Rng rng(12);
  std::vector<double> in_host(static_cast<std::size_t>(shape.volume()));
  std::vector<double> out_host(static_cast<std::size_t>(shape.volume()));
  for (auto& x : in_host) x = rng.uniform01();

  // Both runs release their per-device mirrors and window plans:
  // every device ends with the bytes it started with.
  const auto expect_no_retained_bytes = [](Fleet& fleet, const char* what) {
    for (int d = 0; d < fleet.size(); ++d)
      EXPECT_EQ(fleet.device(d).bytes_allocated(), 0)
          << what << " run left memory on device " << d;
  };
  for (int n : {2, 3}) {
    Fleet ffleet = Fleet::homogeneous(n);
    ShardOptions sopts;
    sopts.num_shards = n;
    ShardedExecutor fex(ffleet, sopts);
    std::vector<double> out = out_host;
    auto fres = fex.run<double>(
        shape, perm, std::span<const double>(in_host.data(), in_host.size()),
        std::span<double>(out.data(), out.size()));
    ASSERT_TRUE(fres.has_value());
    expect_no_retained_bytes(ffleet, "functional");

    Fleet cfleet = Fleet::homogeneous(n);
    ShardedExecutor cex(cfleet, sopts);
    auto cres = cex.run_count_only(shape, perm, sizeof(double));
    ASSERT_TRUE(cres.has_value());
    expect_no_retained_bytes(cfleet, "count-only");
    EXPECT_TRUE(cres->counters_exact);
    EXPECT_EQ(cres->counters().total().to_json().dump(),
              fres->counters().total().to_json().dump());
  }
}

/// Pins the partition invariants for one problem at every shard count
/// up to past the axis extent.
void check_partition(const Shape& shape, const Permutation& perm) {
  sim::Device probe;  // descriptor source only
  const TransposeProblem problem =
      TransposeProblem::make(shape, perm, sizeof(double));
  PlanOptions popts;
  popts.elem_size = sizeof(double);
  const PerfModel model(probe.props(), popts.model);
  const KernelSelection sel = select_kernel(problem, model, popts);
  const ShardAxis axis = find_shard_axis(problem, sel);
  const Index grid_blocks = selection_grid_blocks(sel);

  for (int n = 1; n <= 9; ++n) {
    const std::vector<ShardRange> ranges =
        partition_axis(axis, n, grid_blocks);
    ASSERT_FALSE(ranges.empty());

    // Block-id space: contiguous, ordered, gap-free, covers [0, grid).
    Index next_block = 0;
    for (const auto& r : ranges) {
      EXPECT_EQ(r.block_begin, next_block);
      EXPECT_GT(r.block_count, 0);
      next_block += r.block_count;
    }
    EXPECT_EQ(next_block, grid_blocks)
        << shape.to_string() << perm.to_string() << " n=" << n;

    // Split dimension: gap-free tiling of [0, dim_extent).
    Index next_dim = 0;
    for (const auto& r : ranges) {
      EXPECT_EQ(r.dim_lo, next_dim);
      EXPECT_GT(r.dim_hi, r.dim_lo);
      next_dim = r.dim_hi;
    }
    EXPECT_EQ(next_dim, axis.dim_extent);

    // Output regions: every element covered exactly once.
    std::vector<int> hits(static_cast<std::size_t>(problem.volume()), 0);
    for (const auto& r : ranges) {
      const RegionRuns rr = region_runs(problem, axis, r);
      for (Index c = 0; c < rr.count; ++c) {
        for (Index k = 0; k < rr.run; ++k)
          ++hits[static_cast<std::size_t>(rr.base + c * rr.period + k)];
      }
    }
    for (std::size_t i = 0; i < hits.size(); ++i) {
      if (hits[i] != 1) {
        ADD_FAILURE() << shape.to_string() << perm.to_string() << " n=" << n
                      << ": element " << i << " covered " << hits[i]
                      << " times";
        return;
      }
    }
  }
}

TEST(ShardPartition, ExactForEverySchema) {
  for (const auto& [ext, perm_v] : schema_cases())
    check_partition(Shape(ext), Permutation(perm_v));
}

TEST(ShardPartition, ExactForPrimeExtents) {
  // Prime extents: no shard count divides them evenly, so remainder
  // clamping must carry the partition.
  check_partition(Shape({31, 7, 13}), Permutation({2, 1, 0}));
  check_partition(Shape({13, 31}), Permutation({1, 0}));
  check_partition(Shape({7, 11, 5, 3}), Permutation({3, 0, 2, 1}));
}

TEST(ShardPartition, ExactForSizeOneExtents) {
  check_partition(Shape({1, 64, 1, 64}), Permutation({3, 2, 1, 0}));
  check_partition(Shape({1, 1, 37}), Permutation({2, 0, 1}));
  check_partition(Shape({5, 1, 1}), Permutation({0, 2, 1}));
  check_partition(Shape({1, 1, 1}), Permutation({0, 1, 2}));
}

TEST(ShardPartition, UnsplittableProblemsRunAsOneShard) {
  // A single-block grid exposes no split axis; the executor must fall
  // back to one whole-grid shard rather than fail.
  const Shape shape({4, 4});
  const Permutation perm({1, 0});
  Fleet fleet = Fleet::homogeneous(4);
  ShardedExecutor ex(fleet, {});
  Rng rng(5);
  std::vector<double> in_host(static_cast<std::size_t>(shape.volume()));
  for (auto& x : in_host) x = rng.uniform01();
  std::vector<double> out(in_host.size(), 0.0);
  auto res = ex.run<double>(
      shape, perm, std::span<const double>(in_host.data(), in_host.size()),
      std::span<double>(out.data(), out.size()));
  ASSERT_TRUE(res.has_value());
  EXPECT_GE(res->shards.size(), 1u);
  const sim::LaunchCounters ref =
      reference_counters(shape, perm, in_host,
                         std::vector<double>(in_host.size(), 0.0));
  EXPECT_EQ(res->counters().total().to_json().dump(), ref.to_json().dump());
}

}  // namespace
}  // namespace ttlg::shard
