// The comparison libraries must be functionally correct too — their
// bandwidth numbers are meaningless otherwise.
#include <gtest/gtest.h>

#include <string>

#include "baselines/backend.hpp"
#include "baselines/naive.hpp"
#include "tensor/host_transpose.hpp"

namespace ttlg::baselines {
namespace {

void check_backend(Backend& backend, const Extents& ext,
                   const std::vector<Index>& perm_v) {
  const Shape shape(ext);
  const Permutation perm(perm_v);
  Tensor<double> host_in(shape);
  host_in.fill_iota();

  sim::Device dev;  // functional mode: data really moves
  auto in = dev.alloc_copy<double>(host_in.vec());
  auto out = dev.alloc<double>(shape.volume());
  const auto res = backend.run(dev, in, out, shape, perm);

  EXPECT_GT(res.kernel_s, 0.0) << backend.name();
  EXPECT_GE(res.plan_s, 0.0) << backend.name();
  const Tensor<double> expected = host_transpose(host_in, perm);
  for (Index i = 0; i < shape.volume(); ++i) {
    ASSERT_EQ(out[i], expected.at(i))
        << backend.name() << " at " << i << " for " << shape.to_string()
        << perm.to_string();
  }
}

class AllBackends : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Backend> make() const {
    switch (GetParam()) {
      case 0:
        return make_ttlg_backend();
      case 1:
        return make_cutt_backend(CuttMode::kHeuristic);
      case 2:
        return make_cutt_backend(CuttMode::kMeasure);
      case 3:
        return make_ttc_backend();
      default:
        return make_naive_backend();
    }
  }
};

TEST_P(AllBackends, CorrectAcrossSchemas) {
  auto backend = make();
  check_backend(*backend, {40, 40}, {1, 0});
  check_backend(*backend, {64, 6, 8}, {0, 2, 1});        // matching FVI
  check_backend(*backend, {16, 6, 8}, {0, 2, 1});        // small FVI
  check_backend(*backend, {8, 2, 8, 8}, {2, 1, 3, 0});   // overlapping
  check_backend(*backend, {9, 10, 11}, {2, 0, 1});       // remainders
  check_backend(*backend, {6, 6, 6}, {0, 1, 2});         // identity
}

INSTANTIATE_TEST_SUITE_P(Backends, AllBackends, ::testing::Range(0, 5));

TEST(CuttBackend, MeasureNeverSlowerThanHeuristicKernel) {
  // Measure mode executes a superset of candidates, so its chosen
  // kernel time is <= the heuristic's choice.
  auto h = make_cutt_backend(CuttMode::kHeuristic);
  auto m = make_cutt_backend(CuttMode::kMeasure);
  for (auto [ext, perm] :
       std::vector<std::pair<Extents, std::vector<Index>>>{
           {{16, 16, 16, 16}, {3, 1, 0, 2}},
           {{40, 40, 12}, {2, 0, 1}},
           {{16, 16, 16}, {0, 2, 1}},
       }) {
    const Shape shape(ext);
    sim::Device dev;
    dev.set_mode(sim::ExecMode::kCountOnly);
    auto in = dev.alloc_virtual<double>(shape.volume());
    auto out = dev.alloc_virtual<double>(shape.volume());
    const auto rh = h->run(dev, in, out, shape, Permutation(perm));
    const auto rm = m->run(dev, in, out, shape, Permutation(perm));
    EXPECT_LE(rm.kernel_s, rh.kernel_s * 1.0001) << Shape(ext).to_string();
    // ...but its plan pays for every candidate execution: N candidates,
    // none faster than the chosen kernel. (Comparing with the
    // heuristic's plan_s would compare two host wall-clock readings.)
    const std::string tag = "measured best of ";
    const std::size_t at = rm.detail.find(tag);
    ASSERT_NE(at, std::string::npos) << rm.detail;
    const int n = std::stoi(rm.detail.substr(at + tag.size()));
    EXPECT_GT(n, 1) << rm.detail;
    EXPECT_GE(rm.plan_s, n * rm.kernel_s) << Shape(ext).to_string();
  }
}

TEST(TtcBackend, ChargesOfflineCodegen) {
  auto ttc = make_ttc_backend();
  sim::Device dev;
  dev.set_mode(sim::ExecMode::kCountOnly);
  auto in = dev.alloc_virtual<double>(1600);
  auto out = dev.alloc_virtual<double>(1600);
  const auto r = ttc->run(dev, in, out, Shape({40, 40}), Permutation({1, 0}));
  EXPECT_GE(r.plan_s, 8.0);  // the paper's ~8 s offline generation
}

TEST(NaiveBackend, UncoalescedWritesShowInCounters) {
  auto naive = make_naive_backend();
  sim::Device dev;
  const Shape shape({64, 64});
  Tensor<double> host(shape);
  host.fill_iota();
  auto in = dev.alloc_copy<double>(host.vec());
  auto out = dev.alloc<double>(shape.volume());
  const auto r = naive->run(dev, in, out, shape, Permutation({1, 0}));
  // Transposed writes scatter: far more store than load transactions.
  EXPECT_GT(r.counters.gst_transactions, 4 * r.counters.gld_transactions);
}

TEST(Backends, LeaveNoDeviceAllocationsBehind) {
  for (int k = 0; k < 5; ++k) {
    auto backend = [&]() -> std::unique_ptr<Backend> {
      switch (k) {
        case 0:
          return make_ttlg_backend();
        case 1:
          return make_cutt_backend(CuttMode::kHeuristic);
        case 2:
          return make_cutt_backend(CuttMode::kMeasure);
        case 3:
          return make_ttc_backend();
        default:
          return make_naive_backend();
      }
    }();
    sim::Device dev;
    const Shape shape({16, 16, 16});
    auto in = dev.alloc<double>(shape.volume());
    auto out = dev.alloc<double>(shape.volume());
    const std::int64_t before = dev.bytes_allocated();
    backend->run(dev, in, out, shape, Permutation({2, 0, 1}));
    EXPECT_EQ(dev.bytes_allocated(), before) << backend->name();
  }
}

}  // namespace
}  // namespace ttlg::baselines
