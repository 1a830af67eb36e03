#include <gtest/gtest.h>

#include "gpusim/device.hpp"

namespace ttlg::sim {
namespace {

/// Toy kernel: each block's warp 0 copies 32 consecutive doubles.
struct CopyBlockKernel {
  DeviceBuffer<double> in, out;
  void operator()(BlockCtx& blk) const {
    LaneArray a;
    LaneValues<double> v{};
    for (int l = 0; l < kWarpSize; ++l)
      a.set(l, blk.block_id() * kWarpSize + l);
    blk.gld(in, a, v);
    blk.gst(out, a, v);
  }
};

TEST(Device, AllocCopyRoundTrip) {
  Device dev;
  std::vector<double> host{1, 2, 3, 4};
  auto buf = dev.alloc_copy<double>(host);
  EXPECT_EQ(buf.size(), 4);
  EXPECT_EQ(buf[2], 3.0);
  EXPECT_GT(buf.base_addr(), 0);
  EXPECT_EQ(dev.bytes_allocated(), 32);
  dev.free(buf);
  EXPECT_EQ(dev.bytes_allocated(), 0);
}

TEST(Device, AllocZeroFills) {
  // alloc() must hand out zeros even where the host allocator reuses
  // freed, dirty memory: a beta != 0 launch into a fresh output reads
  // it (the server's single-device route does). alloc_copy() may skip
  // the fill because it overwrites every byte.
  Device dev;
  constexpr std::int64_t kBytes = 4096;
  for (int round = 0; round < 4; ++round) {
    const std::vector<std::uint8_t> dirty(kBytes, 0xA5);
    dev.free(dev.alloc_copy<std::uint8_t>(dirty));
    const auto buf = dev.alloc<std::uint8_t>(kBytes);
    for (std::int64_t i = 0; i < kBytes; ++i)
      ASSERT_EQ(buf[i], 0) << "round " << round << " byte " << i;
    dev.free(buf);
  }
  const std::vector<double> host{1.5, -2.0, 3.25};
  const auto copy = dev.alloc_copy<double>(host);
  for (std::size_t i = 0; i < host.size(); ++i)
    EXPECT_EQ(copy[static_cast<std::int64_t>(i)], host[i]);
}

TEST(Device, DistinctBaseAddresses) {
  Device dev;
  auto a = dev.alloc<double>(100);
  auto b = dev.alloc<double>(100);
  EXPECT_NE(a.base_addr(), b.base_addr());
  // Disjoint 256-aligned address ranges.
  EXPECT_EQ(a.base_addr() % 256, 0);
  EXPECT_GE(std::abs(b.base_addr() - a.base_addr()), 800);
}

TEST(Device, DoubleFreeThrows) {
  Device dev;
  auto buf = dev.alloc<float>(8);
  dev.free(buf);
  EXPECT_THROW(dev.free(buf), Error);
  EXPECT_FALSE(dev.try_free(buf));
}

TEST(Device, FreeAllReleasesEverything) {
  Device dev;
  auto a = dev.alloc<double>(10);
  dev.alloc<double>(20);
  dev.free_all();
  EXPECT_EQ(dev.bytes_allocated(), 0);
  EXPECT_FALSE(dev.try_free(a));
}

TEST(Device, LaunchValidation) {
  Device dev;
  auto in = dev.alloc<double>(64);
  auto out = dev.alloc<double>(64);
  LaunchConfig cfg;
  cfg.grid_blocks = 2;

  cfg.block_threads = 0;
  EXPECT_THROW((dev.launch(CopyBlockKernel{in, out}, cfg)), Error);
  cfg.block_threads = 33;  // not a warp multiple
  EXPECT_THROW((dev.launch(CopyBlockKernel{in, out}, cfg)), Error);
  cfg.block_threads = 2048;  // beyond device limit
  EXPECT_THROW((dev.launch(CopyBlockKernel{in, out}, cfg)), Error);
  cfg.block_threads = 32;
  cfg.shared_elems = 1 << 20;  // 8 MB smem
  EXPECT_THROW((dev.launch(CopyBlockKernel{in, out}, cfg)), Error);
  cfg.shared_elems = 0;
  cfg.grid_blocks = 0;
  EXPECT_THROW((dev.launch(CopyBlockKernel{in, out}, cfg)), Error);
}

TEST(Device, FunctionalLaunchMovesDataAndCounts) {
  Device dev;
  std::vector<double> host(64);
  for (std::size_t i = 0; i < host.size(); ++i) host[i] = double(i) * 1.5;
  auto in = dev.alloc_copy<double>(host);
  auto out = dev.alloc<double>(64);
  LaunchConfig cfg;
  cfg.grid_blocks = 2;
  cfg.block_threads = 32;
  const auto res = dev.launch(CopyBlockKernel{in, out}, cfg);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], host[i]);
  // 2 blocks x (2 ld + 2 st) transactions of 32 aligned doubles.
  EXPECT_EQ(res.counters.gld_transactions, 4);
  EXPECT_EQ(res.counters.gst_transactions, 4);
  EXPECT_EQ(res.counters.payload_bytes, 2 * 64 * 8);
  EXPECT_GT(res.time_s, 0.0);
}

TEST(Device, CountOnlySkipsDataButCounts) {
  Device dev;
  dev.set_mode(ExecMode::kCountOnly);
  auto in = dev.alloc_virtual<double>(64);
  auto out = dev.alloc_virtual<double>(64);
  LaunchConfig cfg;
  cfg.grid_blocks = 2;
  cfg.block_threads = 32;
  const auto res = dev.launch(CopyBlockKernel{in, out}, cfg);
  EXPECT_EQ(res.counters.gld_transactions, 4);
  dev.free(in);  // virtual allocations are tracked and freeable
  dev.free(out);
  EXPECT_EQ(dev.bytes_allocated(), 0);
}

TEST(Device, SampledCountingMatchesFullCounting) {
  Device dev;
  dev.set_mode(ExecMode::kCountOnly);
  auto in = dev.alloc_virtual<double>(32 * 1000);
  auto out = dev.alloc_virtual<double>(32 * 1000);
  LaunchConfig cfg;
  cfg.grid_blocks = 1000;
  cfg.block_threads = 32;
  const auto full = dev.launch(CopyBlockKernel{in, out}, cfg);

  dev.set_sampling(4);
  cfg.block_class = [](std::int64_t) { return 0; };  // all equivalent
  cfg.num_classes = 1;
  const auto sampled = dev.launch(CopyBlockKernel{in, out}, cfg);
  EXPECT_EQ(sampled.counters.gld_transactions,
            full.counters.gld_transactions);
  EXPECT_EQ(sampled.counters.gst_transactions,
            full.counters.gst_transactions);
  EXPECT_NEAR(sampled.time_s, full.time_s, full.time_s * 1e-6);
}

}  // namespace
}  // namespace ttlg::sim
