// Concurrency battery: host threads hammering the shared components
// the parallel engine and concurrent planning rely on — the worker
// pool itself, a shared PlanCache, the global metrics registry and the
// global fault injector. Designed to run under ThreadSanitizer (the
// ci.sh TTLG_SANITIZE=thread pass builds exactly this binary).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/ttlg.hpp"
#include "gpusim/fault_injector.hpp"
#include "gpusim/thread_pool.hpp"
#include "telemetry/metrics.hpp"

namespace ttlg {
namespace {

// --- ThreadPool contract -------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  const std::int64_t n = 10000;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  sim::ThreadPool::global().run_indexed(n, 8, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < n; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
}

TEST(ThreadPool, RethrowsLowestThrowingIndex) {
  // The serial loop would surface index 3 first; the pool must agree
  // regardless of which worker hit its exception first.
  for (int rep = 0; rep < 20; ++rep) {
    try {
      sim::ThreadPool::global().run_indexed(64, 8, [](std::int64_t i) {
        if (i == 3 || i == 40 || i == 63)
          throw Error("index " + std::to_string(i), ErrorCode::kInternal);
      });
      FAIL() << "expected an exception";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("index 3"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ThreadPool, NestedCallsRunInline) {
  // A worker that itself calls run_indexed must not deadlock; the
  // nested call degrades to the serial loop.
  std::atomic<std::int64_t> total{0};
  sim::ThreadPool::global().run_indexed(16, 4, [&](std::int64_t) {
    sim::ThreadPool::global().run_indexed(
        8, 4, [&](std::int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16 * 8);
}

TEST(ThreadPool, ConcurrentExternalCallersAllComplete) {
  // run_indexed from several plain std::threads at once: one wins the
  // pool, the others run inline — all indices still execute.
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<std::int64_t> total{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      sim::ThreadPool::global().run_indexed(
          500, 4, [&](std::int64_t) { total.fetch_add(1); });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), kThreads * 500);
}

TEST(ThreadPool, ThreadKnobResolution) {
  EXPECT_GE(sim::default_num_threads(), 1);
  EXPECT_EQ(sim::resolve_num_threads(3), 3);
  EXPECT_EQ(sim::resolve_num_threads(1), 1);
  EXPECT_EQ(sim::resolve_num_threads(0), sim::default_num_threads());
  EXPECT_EQ(sim::resolve_num_threads(-5), sim::default_num_threads());
}

// --- Shared PlanCache ----------------------------------------------------

TEST(Concurrency, SharedPlanCacheHammer) {
  // N threads × M iterations against one cache and one device, over a
  // small key pool so hits, misses and racing duplicate builds all
  // occur. Every thread executes the plan it got with its own output
  // buffer and checks the result.
  sim::Device dev;
  PlanCache cache;
  const std::vector<std::pair<Extents, std::vector<Index>>> keys = {
      {{32, 16}, {1, 0}},
      {{16, 8, 12}, {2, 0, 1}},
      {{24, 10, 8}, {0, 2, 1}},
      {{8, 8, 8, 4}, {3, 1, 2, 0}},
  };

  // Host-side inputs and expected outputs, computed once up front.
  struct Fixture {
    Shape shape;
    Permutation perm;
    sim::DeviceBuffer<double> in;
    Tensor<double> expected;
  };
  std::vector<Fixture> fx;
  for (const auto& [ext, perm_v] : keys) {
    const Shape shape(ext);
    const Permutation perm(perm_v);
    Tensor<double> host(shape);
    host.fill_random(7 + shape.volume());
    fx.push_back({shape, perm, dev.alloc_copy<double>(host.vec()),
                  host_transpose(host, perm)});
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int it = 0; it < kIters; ++it) {
        const Fixture& f =
            fx[static_cast<std::size_t>(rng.uniform(0, fx.size() - 1))];
        auto plan = cache.get_shared(dev, f.shape, f.perm);
        auto out = dev.alloc<double>(f.shape.volume());
        plan->execute<double>(f.in, out);
        for (Index i = 0; i < f.shape.volume(); ++i) {
          if (out[i] != f.expected.at(i)) {
            failures.fetch_add(1);
            break;
          }
        }
        dev.free(out);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const auto stats = cache.stats();
  // Every iteration is either a hit or a miss (no degradation here);
  // racing duplicate builds count as misses too, so >= keys misses and
  // the totals must at least cover all iterations.
  EXPECT_GE(stats.misses, static_cast<std::int64_t>(keys.size()));
  EXPECT_GE(stats.hits + stats.misses,
            static_cast<std::int64_t>(kThreads) * kIters);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(cache.size(), keys.size());
}

TEST(Concurrency, FirstBetaLaunchOnASharedPlanBuildsItsProgramOnce) {
  // Several threads make the first beta != 0 launch on one plan shared
  // through the PlanCache at the same moment: the blend program must be
  // built exactly once, and every result must be bit-identical to the
  // same launch on a generic plan.
  sim::Device dev;
  dev.set_num_threads(1);
  PlanCache cache;
  const Shape shape({40, 9, 40});
  const Permutation perm({2, 1, 0});
  Tensor<double> host(shape);
  host.fill_random(21);
  Tensor<double> prior(perm.apply(shape));
  prior.fill_random(22);
  const auto in = dev.alloc_copy<double>(host.vec());

  PlanOptions generic;
  generic.specialize = false;
  const Plan ref_plan = make_plan(dev, shape, perm, generic);
  auto ref_out = dev.alloc_copy<double>(prior.vec());
  const auto ref = ref_plan.execute<double>(in, ref_out, 2.0, 0.5);

  const auto plan = cache.get_shared(dev, shape, perm);  // no beta launch yet
  ASSERT_NE(plan->specialization_tier(), SpecTier::kGeneric);
  ASSERT_EQ(plan->blend_tier(), SpecTier::kGeneric);
  auto& built = telemetry::MetricsRegistry::global().counter(
      "plan.spec.blend_built");
  const std::int64_t before = built.value();

  constexpr int kThreads = 6;
  std::vector<sim::DeviceBuffer<double>> outs;
  for (int t = 0; t < kThreads; ++t)
    outs.push_back(dev.alloc_copy<double>(prior.vec()));
  std::atomic<int> ready{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto shared = cache.get_shared(dev, shape, perm);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const auto out = outs[static_cast<std::size_t>(t)];
      const auto res = shared->execute<double>(in, out, 2.0, 0.5);
      bool same = std::bit_cast<std::uint64_t>(res.time_s) ==
                      std::bit_cast<std::uint64_t>(ref.time_s) &&
                  res.counters.gld_transactions ==
                      ref.counters.gld_transactions &&
                  res.counters.gst_transactions ==
                      ref.counters.gst_transactions &&
                  res.counters.payload_bytes == ref.counters.payload_bytes &&
                  res.counters.tex_misses == ref.counters.tex_misses;
      for (Index i = 0; same && i < shape.volume(); ++i)
        same = std::bit_cast<std::uint64_t>(out[i]) ==
               std::bit_cast<std::uint64_t>(ref_out[i]);
      if (!same) failures.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(built.value(), before + 1);
  EXPECT_EQ(plan->blend_tier(), plan->specialization_tier());
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(Concurrency, PlanCacheEvictionUnderContention) {
  // A capacity-1 cache maximizes eviction churn while executions from
  // other threads still hold the evicted plans alive via shared_ptr.
  sim::Device dev;
  PlanCache cache(1);
  const std::vector<std::pair<Extents, std::vector<Index>>> keys = {
      {{16, 16}, {1, 0}},
      {{8, 8, 8}, {2, 1, 0}},
      {{12, 6, 10}, {1, 2, 0}},
  };
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) * 31 + 5);
      for (int it = 0; it < 15; ++it) {
        const auto& [ext, perm_v] =
            keys[static_cast<std::size_t>(rng.uniform(0, keys.size() - 1))];
        const Shape shape(ext);
        const Permutation perm(perm_v);
        auto plan = cache.get_shared(dev, shape, perm);
        auto in = dev.alloc<double>(shape.volume());
        auto out = dev.alloc<double>(shape.volume());
        for (Index i = 0; i < shape.volume(); ++i)
          in.data()[i] = static_cast<double>(i);
        plan->execute<double>(in, out);
        if (plan->problem().volume() != shape.volume()) failures.fetch_add(1);
        dev.free(in);
        dev.free(out);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.size(), 1u);
  EXPECT_GE(cache.stats().evictions, 1);
}

// --- Metrics registry ----------------------------------------------------

TEST(Concurrency, MetricsRegistryHammer) {
  telemetry::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& ctr = reg.counter("hammer.count");
      auto& gauge = reg.gauge("hammer.gauge");
      auto& hist = reg.histogram("hammer.hist", {1.0, 10.0, 100.0});
      for (int i = 0; i < kIters; ++i) {
        ctr.inc();
        gauge.add(1.0);
        hist.observe(static_cast<double>((t * kIters + i) % 200));
        // Registry lookups race against updates on other threads.
        if (i % 64 == 0) reg.counter_value("hammer.count");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter_value("hammer.count"),
            static_cast<std::int64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(reg.gauge_value("hammer.gauge"),
                   static_cast<double>(kThreads) * kIters);
  const auto& hist = reg.histogram("hammer.hist");
  EXPECT_EQ(hist.count(), static_cast<std::int64_t>(kThreads) * kIters);
  std::int64_t bucket_total = 0;
  for (const auto c : hist.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, hist.count());
}

// --- Fault injector ------------------------------------------------------

TEST(Concurrency, FaultInjectorHammer) {
  // Threads query all sites of an armed injector while others read its
  // counters; the query/injection accounting must stay consistent.
  // All four sites armed: the injector only counts queries on armed
  // sites (the disarmed path is the zero-cost production fast path).
  sim::ScopedFaults scoped(
      "seed=11,alloc.p=0.25,launch.every=7,tex.nth=100,smem.every=9");
  auto& inj = sim::FaultInjector::global();
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  std::atomic<std::int64_t> fired{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const auto site = static_cast<sim::FaultSite>((t + i) % 4);
        if (inj.fire(site)) fired.fetch_add(1);
        if (i % 128 == 0) {
          inj.total_injected();
          inj.queries(site);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::int64_t queries = 0;
  for (int s = 0; s < sim::kNumFaultSites; ++s)
    queries += inj.queries(static_cast<sim::FaultSite>(s));
  EXPECT_EQ(queries, static_cast<std::int64_t>(kThreads) * kIters);
  EXPECT_EQ(inj.total_injected(), fired.load());
  EXPECT_GT(fired.load(), 0);
}

TEST(Concurrency, ParallelLaunchesWithArmedInjectorSurviveOrClassify) {
  // Parallel execution with a probabilistic launch fault: every
  // execute() either succeeds with the right answer (the degradation
  // ladder recovered) or raises a classified error — never corruption.
  sim::ScopedFaults scoped("seed=3,launch.p=0.05");
  sim::Device dev;
  const Shape shape({24, 18, 10});
  const Permutation perm({2, 0, 1});
  Tensor<double> host(shape);
  host.fill_random(99);
  auto in = dev.alloc_copy<double>(host.vec());
  const Tensor<double> expected = host_transpose(host, perm);

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<int> corrupt{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int it = 0; it < 8; ++it) {
        auto out = dev.alloc<double>(shape.volume());
        try {
          Plan plan = make_plan(dev, shape, perm);
          plan.execute<double>(in, out);
          for (Index i = 0; i < shape.volume(); ++i) {
            if (out[i] != expected.at(i)) {
              corrupt.fetch_add(1);
              break;
            }
          }
        } catch (const Error&) {
          // A classified failure is an acceptable outcome under faults.
        }
        dev.free(out);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(corrupt.load(), 0);
}

}  // namespace
}  // namespace ttlg
