// Scaling of the sharded parallel event engine: the same multi-region
// traffic workload executed with 1/2/4/8 worker threads. The partition
// (8 regions) is fixed, so every thread count executes bit-identical
// event sequences -- the bench verifies that via the order digest while
// measuring wall-clock throughput.
//
// The BM_EventCore_* cases time the engine underneath: one standalone
// EventScheduler scheduling, firing and cancelling events, reported as
// ns per event (escape_bench_event_core_ns_per_event in BENCH_parallel.json).
#include "bench_common.hpp"

#include <chrono>

#include "netemu/network.hpp"
#include "util/sharded_event.hpp"

namespace escape {
namespace {

constexpr int kRegions = 8;
constexpr int kPairsPerRegion = 2;
constexpr std::uint64_t kFramesPerFlow = 4000;

std::string region_name(int r, const std::string& suffix) {
  return "r" + std::to_string(r) + "_" + suffix;
}

/// kRegions islands of host pairs exchanging local traffic, chained by
/// gateway host pairs whose links carry the cross-region (cross-shard)
/// latency. Partitioned by region -> one shard per region.
void build_and_run(std::size_t threads, std::uint64_t* executed, std::uint64_t* digest,
                   double* virtual_ms) {
  ShardedScheduler sched;
  netemu::Network net{sched.shard(0)};

  netemu::LinkConfig intra;
  intra.bandwidth_bps = 10'000'000'000ULL;
  intra.delay = 20 * timeunit::kMicrosecond;
  netemu::LinkConfig inter = intra;
  inter.delay = 200 * timeunit::kMicrosecond;  // the conservative lookahead

  for (int r = 0; r < kRegions; ++r) {
    for (int p = 0; p < kPairsPerRegion; ++p) {
      const std::string a = region_name(r, "src" + std::to_string(p));
      const std::string b = region_name(r, "dst" + std::to_string(p));
      net.add_host(a);
      net.add_host(b);
      (void)net.add_link(a, 0, b, 0, intra);
    }
  }
  // Ring of gateway pairs: r0_gw1 - r1_gw0, r1_gw1 - r2_gw0, ...
  for (int r = 0; r < kRegions; ++r) {
    net.add_host(region_name(r, "gw1"));
    net.add_host(region_name((r + 1) % kRegions, "gw0" + std::to_string(r)));
    (void)net.add_link(region_name(r, "gw1"), 0,
                       region_name((r + 1) % kRegions, "gw0" + std::to_string(r)), 0, inter);
  }

  net.partition(sched, netemu::ShardBy::kRegion, threads);

  for (int r = 0; r < kRegions; ++r) {
    for (int p = 0; p < kPairsPerRegion; ++p) {
      auto* src = net.host(region_name(r, "src" + std::to_string(p)));
      auto* dst = net.host(region_name(r, "dst" + std::to_string(p)));
      src->start_udp_flow(dst->mac(), dst->ip(), 5000, 7777, kFramesPerFlow,
                          /*rate_pps=*/1'000'000, /*frame_size=*/1400);
    }
    auto* gw = net.host(region_name(r, "gw1"));
    auto* peer = net.host(region_name((r + 1) % kRegions, "gw0" + std::to_string(r)));
    gw->start_udp_flow(peer->mac(), peer->ip(), 6000, 8888, kFramesPerFlow / 4,
                       /*rate_pps=*/250'000, /*frame_size=*/1400);
  }

  sched.run();
  *executed = sched.executed_events();
  *digest = sched.order_digest();
  *virtual_ms = static_cast<double>(sched.now()) / timeunit::kMillisecond;
}

void BM_ParallelTraffic(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  static std::uint64_t reference_digest = 0;  // set by the threads=1 run

  std::uint64_t total_events = 0;
  std::uint64_t executed = 0, digest = 0;
  double virtual_ms = 0;
  for (auto _ : state) {
    build_and_run(threads, &executed, &digest, &virtual_ms);
    total_events += executed;
  }
  if (threads == 1) {
    reference_digest = digest;
  } else if (reference_digest != 0 && digest != reference_digest) {
    state.SkipWithError("order digest diverged from the single-thread run");
    return;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(total_events));
  state.counters["events"] = static_cast<double>(executed);
  state.counters["virtual_ms"] = virtual_ms;
  state.counters["threads"] = static_cast<double>(threads);

  // Mirror the workload size into the registry so BENCH_parallel.json
  // records the scaling runs (timing lives in the benchmark output).
  obs::MetricsRegistry::global()
      .gauge("bench_parallel_events_total", {{"threads", std::to_string(threads)}})
      .set(static_cast<double>(executed));
}
BENCHMARK(BM_ParallelTraffic)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

/// Records ns per event for one event-core case, in the benchmark output
/// and in the registry.
void report_event_core(benchmark::State& state, const char* name, std::uint64_t events,
                       double seconds) {
  const double ns = events ? seconds * 1e9 / static_cast<double>(events) : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["ns_per_event"] = ns;
  obs::MetricsRegistry::global()
      .gauge("escape_bench_event_core_ns_per_event",
             {{"case", name}, {"pending", std::to_string(state.range(0))}})
      .set(ns);
}

/// Deterministic delay stream (LCG) so heap shapes repeat run to run.
struct Delays {
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  SimDuration next() {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return 1 + (x >> 54);  // 1..1024 ns
  }
};

/// Steady state with `pending` events queued: every fired event
/// schedules its replacement, so the heap never shrinks.
void BM_EventCore_ScheduleFire(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  double seconds = 0;
  for (auto _ : state) {
    EventScheduler sched;
    Delays delays;
    std::uint64_t budget = 1 << 16;
    struct Fire {
      EventScheduler* sched;
      Delays* delays;
      std::uint64_t* budget;
      void operator()() const {
        if (*budget > 0) {
          --*budget;
          sched->schedule(delays->next(), *this);
        }
      }
    };
    for (std::size_t i = 0; i < pending; ++i) {
      sched.schedule(delays.next(), Fire{&sched, &delays, &budget});
    }
    const auto t0 = std::chrono::steady_clock::now();
    events += sched.run();
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  report_event_core(state, "schedule_fire", events, seconds);
}
BENCHMARK(BM_EventCore_ScheduleFire)->Arg(16)->Arg(64)->Arg(1024);

/// Timer refresh, the flow-idle-timeout pattern: `pending` timers, and
/// every fired event cancels and re-arms four of them, so most queued
/// entries die cancelled and are reaped lazily.
void BM_EventCore_TimerRefresh(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  double seconds = 0;
  for (auto _ : state) {
    EventScheduler sched;
    Delays delays;
    std::vector<EventHandle> timers(pending);
    std::uint64_t budget = 1 << 14;
    std::uint64_t cursor = 0;
    std::function<void()> tick = [&] {
      if (budget == 0) return;
      --budget;
      for (int k = 0; k < 4; ++k) {
        EventHandle& t = timers[cursor++ % pending];
        t.cancel();
        t = sched.schedule(1000 + delays.next(), [] {});
      }
      sched.schedule(delays.next(), [&] { tick(); });
    };
    for (auto& t : timers) t = sched.schedule(1000 + delays.next(), [] {});
    sched.schedule(0, [&] { tick(); });
    const auto t0 = std::chrono::steady_clock::now();
    events += sched.run();
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  report_event_core(state, "timer_refresh", events, seconds);
}
BENCHMARK(BM_EventCore_TimerRefresh)->Arg(64);

}  // namespace
}  // namespace escape

ESCAPE_BENCH_MAIN("parallel");
