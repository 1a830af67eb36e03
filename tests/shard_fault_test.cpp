// Fault injection against the sharded executor: with TTLG_FAULTS-style
// specs armed, a sharded run must either (a) fail over the faulted
// shard batch to a healthy device and return a degraded-but-correct
// result, or (b) surface a classified Expected error with a
// flight-recorder post-mortem — and in NO case leave a partially
// written output buffer or device memory behind: every fleet device's
// bytes_allocated() returns to its pre-run value.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <vector>

#include "common/rng.hpp"
#include "core/ttlg.hpp"
#include "gpusim/fault_injector.hpp"
#include "shard/sharded_executor.hpp"
#include "telemetry/flight_recorder.hpp"

namespace ttlg::shard {
namespace {

namespace fs = std::filesystem;

const Shape kShape({40, 9, 40});
const Permutation kPerm({2, 1, 0});

struct Buffers {
  std::vector<double> in, out, sentinel, expected;
};

Buffers make_buffers() {
  Buffers b;
  Rng rng(99);
  Tensor<double> host(kShape);
  for (auto& x : host.vec()) x = rng.uniform01();
  b.in = host.vec();
  b.sentinel.assign(static_cast<std::size_t>(kShape.volume()), -777.25);
  b.out = b.sentinel;
  b.expected = host_transpose(host, kPerm).vec();
  return b;
}

std::vector<std::int64_t> device_bytes(Fleet& fleet) {
  std::vector<std::int64_t> bytes;
  for (int d = 0; d < fleet.size(); ++d)
    bytes.push_back(fleet.device(d).bytes_allocated());
  return bytes;
}

Expected<ShardedResult> run_sharded(Fleet& fleet, ShardOptions sopts,
                                    Buffers& b) {
  ShardedExecutor ex(fleet, sopts);
  return ex.run<double>(kShape, kPerm,
                        std::span<const double>(b.in.data(), b.in.size()),
                        std::span<double>(b.out.data(), b.out.size()));
}

TEST(ShardFault, TransientLaunchFaultFailsOverAndStaysCorrect) {
  Buffers b = make_buffers();
  Fleet fleet = Fleet::homogeneous(3);
  auto& reg = telemetry::MetricsRegistry::global();
  const auto failovers_before = reg.counter_value("shard.failovers");
  const auto bytes_before = device_bytes(fleet);

  Expected<ShardedResult> res = [&] {
    // One launch fault in the whole process: exactly one shard batch
    // fails, and the failover round must re-run it elsewhere.
    sim::ScopedFaults faults("seed=3,launch.nth=1");
    return run_sharded(fleet, ShardOptions{.num_shards = 3}, b);
  }();

  ASSERT_TRUE(res.has_value()) << res.status().message();
  EXPECT_EQ(0, std::memcmp(b.out.data(), b.expected.data(),
                           b.out.size() * sizeof(double)));
  int failed_over = 0;
  for (const auto& s : res->shards) failed_over += s.failed_over ? 1 : 0;
  EXPECT_GE(failed_over, 1);
  EXPECT_FALSE(res->counters_exact)
      << "failover forfeits the exact-counters guarantee";
  EXPECT_EQ(reg.counter_value("shard.failovers"), failovers_before + 1);
  EXPECT_EQ(device_bytes(fleet), bytes_before)
      << "failed-over run left device memory behind";
}

TEST(ShardFault, PersistentLaunchFaultFailsClassifiedWithPostMortem) {
  Buffers b = make_buffers();
  Fleet fleet = Fleet::homogeneous(2);
  auto& fr = telemetry::FlightRecorder::global();
  const bool was_on = telemetry::recorder_enabled();
  fr.set_enabled(true);
  const fs::path dir =
      fs::temp_directory_path() / "ttlg_shard_fault_dumps";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fr.set_dump_dir(dir.string());
  const std::int64_t dumps_before = fr.dumps();
  auto& reg = telemetry::MetricsRegistry::global();
  const auto failures_before = reg.counter_value("shard.failures");
  const auto bytes_before = device_bytes(fleet);

  Expected<ShardedResult> res = [&] {
    sim::ScopedFaults faults("launch.every=1");  // no device can launch
    return run_sharded(fleet, ShardOptions{.num_shards = 2}, b);
  }();
  fr.set_dump_dir("");
  fr.set_enabled(was_on);

  ASSERT_FALSE(res.has_value());
  EXPECT_EQ(res.status().code(), ErrorCode::kFaultInjected);
  // Classified failure, post-mortem on disk, output buffer untouched.
  EXPECT_GT(fr.dumps(), dumps_before);
  EXPECT_FALSE(fs::is_empty(dir));
  EXPECT_GE(reg.counter_value("shard.failures"), failures_before + 1);
  EXPECT_EQ(0, std::memcmp(b.out.data(), b.sentinel.data(),
                           b.out.size() * sizeof(double)))
      << "failed sharded run must not write the output buffer";
  EXPECT_EQ(device_bytes(fleet), bytes_before)
      << "failed run left device memory behind";
  fs::remove_all(dir);
}

TEST(ShardFault, FailoverDisabledSurfacesTransientFaults) {
  Buffers b = make_buffers();
  Fleet fleet = Fleet::homogeneous(3);
  Expected<ShardedResult> res = [&] {
    sim::ScopedFaults faults("seed=3,launch.nth=1");
    ShardOptions sopts;
    sopts.num_shards = 3;
    sopts.failover = false;
    return run_sharded(fleet, sopts, b);
  }();
  ASSERT_FALSE(res.has_value());
  EXPECT_EQ(res.status().code(), ErrorCode::kFaultInjected);
  EXPECT_EQ(0, std::memcmp(b.out.data(), b.sentinel.data(),
                           b.out.size() * sizeof(double)))
      << "failed sharded run must not write the output buffer";
}

TEST(ShardFault, SingleDeviceFleetCannotFailOver) {
  Buffers b = make_buffers();
  Fleet fleet = Fleet::homogeneous(1);
  Expected<ShardedResult> res = [&] {
    sim::ScopedFaults faults("seed=5,launch.nth=1");
    return run_sharded(fleet, ShardOptions{.num_shards = 1}, b);
  }();
  ASSERT_FALSE(res.has_value());
  EXPECT_EQ(res.status().code(), ErrorCode::kFaultInjected);
  EXPECT_EQ(0, std::memcmp(b.out.data(), b.sentinel.data(),
                           b.out.size() * sizeof(double)));
}

TEST(ShardFault, PerDevicePolicyLadderAbsorbsTransientFault) {
  // Under the per-device policy each slab runs through Plan::execute,
  // whose degradation ladder retries transient launch faults itself —
  // the run must succeed without even needing shard failover.
  Buffers b = make_buffers();
  Fleet fleet = Fleet::homogeneous(3);
  const auto bytes_before = device_bytes(fleet);
  Expected<ShardedResult> res = [&] {
    sim::ScopedFaults faults("seed=7,launch.nth=1");
    ShardOptions sopts;
    sopts.num_shards = 3;
    sopts.policy = ShardPolicy::kPerDevice;
    return run_sharded(fleet, sopts, b);
  }();
  ASSERT_TRUE(res.has_value()) << res.status().message();
  EXPECT_EQ(0, std::memcmp(b.out.data(), b.expected.data(),
                           b.out.size() * sizeof(double)));
  EXPECT_EQ(device_bytes(fleet), bytes_before)
      << "per-device run left slab buffers behind";
}

TEST(ShardFault, AllocFaultDuringMirroringIsClassified) {
  Buffers b = make_buffers();
  Fleet fleet = Fleet::homogeneous(2);
  const auto bytes_before = device_bytes(fleet);
  Expected<ShardedResult> res = [&] {
    sim::ScopedFaults faults("alloc.every=1");  // no mirror can be staged
    return run_sharded(fleet, ShardOptions{.num_shards = 2}, b);
  }();
  ASSERT_FALSE(res.has_value());
  // Alloc-site faults surface with device-OOM semantics.
  EXPECT_EQ(res.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(0, std::memcmp(b.out.data(), b.sentinel.data(),
                           b.out.size() * sizeof(double)));
  EXPECT_EQ(device_bytes(fleet), bytes_before)
      << "failed mirroring left device memory behind";
}

}  // namespace
}  // namespace ttlg::shard
