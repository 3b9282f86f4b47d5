// Per-packet dispatch vs bursts: packets/second through the same
// 4-element Click chain (Counter -> IPFilter -> Counter -> Discard),
// once pushed as batches of one freshly copied packet and once pushed as
// PacketBatch bursts built from pooled buffers. Compare items_per_second
// between BM_Batching_PerPacketChain and BM_Batching_BatchChain; the
// burst path amortizes virtual dispatch per hop and recycles buffers
// through the Discard sink, so it should win comfortably (>= 1.3x).
#include "bench_common.hpp"
#include <benchmark/benchmark.h>

#include "click/config.hpp"
#include "click/elements.hpp"
#include "net/builder.hpp"
#include "net/packet_batch.hpp"
#include "net/packet_pool.hpp"

using namespace escape;
using namespace escape::click;

namespace {

constexpr const char* kChainConfig = R"(
  c0 :: Counter;
  f :: IPFilter(udp);
  c1 :: Counter;
  sink :: Discard;
  c0 -> f;
  f[0] -> c1;
  c1 -> sink;
)";

Packet bench_packet(std::size_t size) {
  return net::make_udp_packet(net::MacAddr::from_u64(1), net::MacAddr::from_u64(2),
                              net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2), 1000,
                              2000, size);
}

}  // namespace

/// Baseline: one fresh copy + one push_batch of one packet per element.
static void BM_Batching_PerPacketChain(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  EventScheduler sched;
  auto router = build_router(kChainConfig, sched);
  if (!router.ok()) {
    state.SkipWithError(router.error().message.c_str());
    return;
  }
  Element* head = (*router)->element("c0");
  const Packet tmpl = bench_packet(size);

  for (auto _ : state) {
    head->push_batch(0, net::PacketBatch::of(Packet(tmpl)));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Batching_PerPacketChain)->Arg(64)->Arg(1500);

/// Batched: bursts of pooled packets, one push_batch per hop per burst.
/// The Discard sink recycles every buffer, so steady state allocates
/// nothing on the packet path.
static void BM_Batching_BatchChain(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto burst = static_cast<std::size_t>(state.range(1));
  EventScheduler sched;
  auto router = build_router(kChainConfig, sched);
  if (!router.ok()) {
    state.SkipWithError(router.error().message.c_str());
    return;
  }
  Element* head = (*router)->element("c0");
  const Packet tmpl = bench_packet(size);
  auto& pool = net::default_packet_pool();

  for (auto _ : state) {
    net::PacketBatch batch(burst);
    for (std::size_t i = 0; i < burst; ++i) {
      batch.push_back(pool.acquire_copy(tmpl));
    }
    head->push_batch(0, std::move(batch));
  }
  const auto packets = static_cast<std::int64_t>(state.iterations()) *
                       static_cast<std::int64_t>(burst);
  state.SetItemsProcessed(packets);
  state.SetBytesProcessed(packets * static_cast<std::int64_t>(size));
  state.counters["burst"] = static_cast<double>(burst);
}
BENCHMARK(BM_Batching_BatchChain)
    ->ArgsProduct({{64, 1500}, {8, 32, 128}});

/// Micro: buffer sourcing cost in isolation -- a fresh deep copy per
/// packet vs acquire_copy from the recycling pool.
static void BM_Batching_FreshCopy(benchmark::State& state) {
  const Packet tmpl = bench_packet(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Packet p = tmpl;
    benchmark::DoNotOptimize(p.bytes().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Batching_FreshCopy)->Arg(64)->Arg(1500);

static void BM_Batching_PooledCopy(benchmark::State& state) {
  const Packet tmpl = bench_packet(static_cast<std::size_t>(state.range(0)));
  auto& pool = net::default_packet_pool();
  for (auto _ : state) {
    Packet p = pool.acquire_copy(tmpl);
    benchmark::DoNotOptimize(p.bytes().data());
    pool.recycle(std::move(p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Batching_PooledCopy)->Arg(64)->Arg(1500);

ESCAPE_BENCH_MAIN("batching");
