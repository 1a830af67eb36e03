// scale_out: the library behind service::Server with a two-device fleet,
// as an operator would run it (telemetry at counters, one Prometheus
// scrape per second). Every request takes the sharded route. Op times
// and spans come from the Response's server-side stamps: an op is the
// worker's time on one request, from dequeue to response.
#include <malloc.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "core/plan.hpp"
#include "gpusim/device.hpp"
#include "mix.hpp"
#include "service/server.hpp"
#include "shard/fleet.hpp"
#include "shard/sharded_executor.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ttlg;
using service::Request;
using service::Response;
using service::Server;
using service::ServerConfig;

/// Requests per round. Each round leaks the per-device mirrors of the
/// sharded route, so the count (not the run length) sets the memory a
/// round retains.
constexpr int kRoundOps = 96;
/// Mid-size problems: the seed draws one for every request of a round
/// but the large ones.
constexpr int kProblems = 12;
/// Large problems: every round carries each of them once (1 request in
/// 24), so the p99 lands inside their latencies.
constexpr int kLargeProblems = 4;
/// Requests the client keeps in flight: the worker always finds the next
/// one queued, so neither a thread wake-up nor a late client leaves it
/// idle between requests.
constexpr std::size_t kWindow = 16;
/// Latency limit of the replayed fixed-schedule caller (max_rate_per_s).
constexpr double kReplayLimitUs = 100000;

/// A submitted request the client has not collected yet.
struct Pending {
  std::future<Response> fut;
  std::size_t case_index = 0;
  std::int64_t op = 0;
  std::int64_t submit_ns = 0;
};

struct Case {
  Problem p;
  std::shared_ptr<const std::vector<double>> input;
  std::vector<double> expected;
};

std::vector<Case> make_cases(const std::vector<Problem>& mix,
                             std::uint64_t seed) {
  std::vector<Case> cases(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    Case& c = cases[i];
    c.p = mix[i];
    auto in = std::make_shared<std::vector<double>>(
        make_values<double>(seed * 1000003ull + 77 + i, c.p.shape.volume()));
    c.expected = oracle_transpose(*in, c.p.shape, c.p.perm);
    c.input = std::move(in);
  }
  return cases;
}

Request make_request(const Case& c) {
  Request req;
  req.tenant = "bench";
  req.shape = c.p.shape;
  req.perm = c.p.perm;
  req.input = c.input;
  return req;
}

bool output_ok(const Response& res, const Case& c) {
  return res.served() && res.sharded &&
         res.output.size() == c.expected.size() &&
         std::memcmp(res.output.data(), c.expected.data(),
                     c.expected.size() * sizeof(double)) == 0;
}

/// Times one Prometheus scrape of the global registry per second.
class Scraper {
 public:
  Scraper() : thread_([this] { loop(); }) {}
  ~Scraper() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;
  std::vector<double> durations_us() {
    std::lock_guard<std::mutex> lk(mu_);
    return us_;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!cv_.wait_for(lk, std::chrono::seconds(1), [this] { return stop_; })) {
      lk.unlock();
      const std::int64_t t0 = now_ns();
      const std::string text =
          telemetry::to_prometheus(telemetry::MetricsRegistry::global());
      const double us = static_cast<double>(now_ns() - t0) * 1e-3;
      lk.lock();
      if (!text.empty()) us_.push_back(us);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> us_;
  std::thread thread_;  // last: starts after the members it uses exist
};

/// Exact simulator totals of one pass over the distinct problems
/// (count-only sharded runs on a private fleet, no host data) and the
/// tier and candidate count make_plan picks for each problem.
void exact_pass(const std::vector<Problem>& mix, RunResult& r) {
  SimTotals totals;
  shard::Fleet fleet = shard::Fleet::homogeneous(2);
  fleet.set_num_threads(1);
  shard::ShardedExecutor ex(fleet);
  for (const Problem& p : mix) {
    const auto run = ex.run_count_only(p.shape, p.perm, 8);
    if (!run.has_value()) {
      r.errors.push_back("count-only sharded run failed: " + p.to_string());
      continue;
    }
    for (const shard::ShardExecution& s : run->shards) {
      totals.gld += static_cast<double>(s.counters.gld_transactions);
      totals.gst += static_cast<double>(s.counters.gst_transactions);
      totals.smem_conflicts += static_cast<double>(s.counters.smem_bank_conflicts);
      totals.tex_misses += static_cast<double>(s.counters.tex_misses);
      totals.blocks += static_cast<double>(s.counters.grid_blocks);
      totals.kernel_s += s.exec_s;
    }
  }
  totals.store(r);

  sim::Device dev(sim::DeviceProperties::tesla_k40c());
  dev.set_num_threads(1);
  std::vector<double> tiers(4, 0);
  double candidates = 0;
  for (const Problem& p : mix) {
    PlanOptions popts;
    popts.elem_size = 8;
    const Plan plan = make_plan(dev, p.shape, p.perm, popts);
    tiers[static_cast<std::size_t>(plan.specialization_tier())] += 1;
    candidates += static_cast<double>(plan.selection().candidates_considered);
  }
  store_planner_choices(r, tiers, candidates / static_cast<double>(mix.size()));
}

}  // namespace

RunResult run_scale_out(const Options& opt) {
  RunResult r;
  add_zero_layers(r);
  telemetry::set_level(telemetry::Level::kCounters);
  // Mostly doubles of 2^13-2^14 (about 0.6 ms of worker time each), and
  // 4 of every 96 requests of 1.5*2^16-2^17 (about 6 ms, rank 4: lower
  // ranks cannot reach that volume within the catalogue's extents). With
  // mid-size requests only, the p99 was set by host stalls: on a shared
  // VM with 1-10% CPU steal they pushed about 1% of the requests to
  // 2-4 ms, and the p99 spread 0.40 (IQR over median) across seeds.
  // Stalls rarely reach the large requests' times, so the p99 measures
  // those.
  std::vector<Problem> mix = double_mix(
      1, kProblems, std::int64_t{1} << 13, std::int64_t{1} << 14);
  for (Problem& p : double_mix(2, kLargeProblems, std::int64_t{3} << 15,
                               std::int64_t{1} << 17, 4))
    mix.push_back(std::move(p));
  exact_pass(mix, r);
  SeedRng rng(opt.seed * 104729 + 9);
  std::vector<double> setup_s, queue_us, work_us, submit_us, retained;
  std::vector<double> gap_us;  ///< time between completions
  std::vector<double> sim_s;
  std::int64_t sharded = 0, served = 0;
  // Spans: each request from submit to completion (the server's stamps),
  // with its queue wait and worker time as children.
  Tracer tr(opt.trace ? 1 << 16 : 0);
  tr.enabled = opt.trace;
  const std::uint32_t id_op = tr.intern("request"),
                      id_q = tr.intern("service.queue_wait"),
                      id_w = tr.intern("service.work");
  std::vector<Case> cases;
  const std::int64_t inject_at = opt.inject.empty() ? -1 : 20;
  std::int64_t op_id = 0;
  Scraper scraper;
  const ProcessUsage usage0 = ProcessUsage::now();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  // Rounds: a fresh fleet and server, a verified pass, then a fixed
  // number of timed requests. The sharded route never frees its
  // per-device mirrors, so memory grows with each request; the fixed
  // round size keeps peak RSS independent of how fast the route is.
  while (setup_s.size() < 3 || now_ns() < deadline) {
    // Hand the last round's freed mirrors back to the OS, so that every
    // round's peak starts from the same resident base.
    malloc_trim(0);
    const std::int64_t t0 = now_ns();
    shard::Fleet fleet = shard::Fleet::homogeneous(2);
    fleet.set_num_threads(1);
    sim::Device dev(sim::DeviceProperties::tesla_k40c());
    dev.set_num_threads(1);
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.fleet = &fleet;
    cfg.shard_min_volume = 1;
    Server server(dev, cfg);
    server.start();
    cases = make_cases(mix, opt.seed);
    sim_s.clear();
    for (const Case& c : cases) {
      const Response res = server.submit(make_request(c)).get();
      if (!output_ok(res, c))
        r.errors.push_back("set-up verification failed: " + c.p.to_string() +
                           " (" + service::to_string(res.outcome) + ")");
      sim_s.push_back(res.sim_time_s);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

    const auto bytes = [&] {
      std::int64_t b = dev.bytes_allocated();
      for (int d = 0; d < fleet.size(); ++d) b += fleet.device(d).bytes_allocated();
      return b;
    };
    const std::int64_t bytes0 = bytes();
    std::deque<Pending> inflight;
    std::int64_t last_done_ns = now_ns();
    const auto retire = [&] {
      Pending p = std::move(inflight.front());
      inflight.pop_front();
      Response res = p.fut.get();
      const std::int64_t t = now_ns();
      gap_us.push_back(static_cast<double>(t - last_done_ns) * 1e-3);
      last_done_ns = t;
      ++r.attempted;
      // Self-test faults: a flipped output element, or a response
      // dropped unverified; either must count as a failed op.
      if (p.op == inject_at) {
        if (opt.inject == "drop") {
          ++r.failed;
          return;
        }
        if (!res.output.empty()) res.output[0] += 1.0;
      }
      if (!output_ok(res, cases[p.case_index])) {
        ++r.failed;
        return;
      }
      queue_us.push_back(static_cast<double>(res.queue_wait_us));
      work_us.push_back(static_cast<double>(res.latency_us - res.queue_wait_us));
      const std::int64_t q_end = p.submit_ns + res.queue_wait_us * 1000;
      const std::int32_t root = tr.open(id_op, p.op, -1, p.submit_ns);
      tr.close(tr.open(id_q, p.op, root, p.submit_ns), q_end);
      tr.close(tr.open(id_w, p.op, root, q_end), p.submit_ns + res.latency_us * 1000);
      tr.close(root, p.submit_ns + res.latency_us * 1000);
      sharded += res.sharded ? 1 : 0;
      ++served;
    };
    // Each large problem once per round, at seeded positions.
    std::vector<int> large(kRoundOps, -1);
    for (int l = 0; l < kLargeProblems;) {
      const auto at = static_cast<std::size_t>(rng.range(0, kRoundOps - 1));
      if (large[at] < 0) large[at] = kProblems + l++;
    }
    for (int k = 0; k < kRoundOps; ++k, ++op_id) {
      if (inflight.size() == kWindow) {
        // Collect the older half at once: the client wakes once per
        // kWindow / 2 requests rather than once per request.
        inflight[kWindow / 2 - 1].fut.wait();
        for (std::size_t i = 0; i < kWindow / 2; ++i) retire();
      }
      const int l = large[static_cast<std::size_t>(k)];
      const auto ci = static_cast<std::size_t>(
          l >= 0 ? l : rng.range(0, kProblems - 1));
      const std::int64_t s0 = now_ns();
      std::future<Response> fut = server.submit(make_request(cases[ci]));
      submit_us.push_back(static_cast<double>(now_ns() - s0) * 1e-3);
      inflight.push_back(Pending{std::move(fut), ci, op_id, s0});
    }
    while (!inflight.empty()) retire();
    retained.push_back(static_cast<double>(bytes() - bytes0));
    server.stop();
  }  // The fleet and every leaked mirror go here.
  const ProcessUsage usage = ProcessUsage::now() - usage0;

  r.e2e("setup_s", median(setup_s), "s");
  r.e2e("ops_per_s", windowed_rate(gap_us, kWindows), "1/s");
  r.e2e("op_p50_us", median(work_us), "us");
  r.e2e("op_p99_us", windowed_quantile(work_us, 0.99, kWindows), "us");
  r.e2e("max_rate_per_s", replay_max_rate(work_us, kReplayLimitUs, kWindows),
        "1/s");
  r.info["op_samples"] = static_cast<double>(work_us.size());
  r.info["rounds"] = static_cast<double>(setup_s.size());
  std::vector<double> gbps;
  double makespan_us = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    gbps.push_back(achieved_bandwidth_gbps(cases[i].p.shape.volume(), 8, sim_s[i]));
    makespan_us += sim_s[i] * 1e6;
  }
  r.e2e("sim_gbps_geomean", geomean(gbps), "GB/s");
  r.exact["sim_gbps_geomean"] = geomean(gbps);
  r.exact["shard.sim_makespan_us"] = makespan_us;

  if (opt.trace) {
    r.layer("service.submit_us", median(submit_us), "us");
    r.layer("service.queue_wait_us", median(queue_us), "us");
    r.layer("service.queue_wait_p99_us", quantile(queue_us, 0.99), "us");
    r.layer("service.work_us", median(work_us), "us");
    r.layer("shard.work_us", median(work_us), "us");
    r.layer("shard.sim_makespan_us", makespan_us, "us");
    r.layer("shard.sharded_share",
            static_cast<double>(sharded) /
                static_cast<double>(std::max<std::int64_t>(served, 1)),
            "ratio");
    r.layer("telemetry.scrape_us", median(scraper.durations_us()), "us");
    r.layer("gpusim.device_bytes_retained", median(retained), "bytes");
    r.layer("bench.stage_gap", tr.median_uncovered_share(), "ratio");
    add_process_metrics(r, usage, r.attempted);
    tr.write_chrome_trace(opt.out_dir + "/trace_scale_out_seed" +
                          std::to_string(opt.seed) + ".json");
  }
  return r;
}

}  // namespace perfbench
