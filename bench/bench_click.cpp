// Experiment E3: Click data-plane throughput.
//
// Measures host packets/second through element chains of varying depth
// (throughput degrades ~1/depth -- each element touches the packet) and
// through each catalog VNF configuration.
#include "bench_common.hpp"
#include <benchmark/benchmark.h>

#include "click/config.hpp"
#include "click/elements.hpp"
#include "net/builder.hpp"
#include "service/catalog.hpp"

using namespace escape;
using namespace escape::click;

namespace {

Packet bench_packet(std::size_t size) {
  return net::make_udp_packet(net::MacAddr::from_u64(1), net::MacAddr::from_u64(2),
                              net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2), 1000,
                              2000, size);
}

}  // namespace

/// Push-path chain of `depth` Counter elements.
static void BM_Click_ElementChainDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const auto size = static_cast<std::size_t>(state.range(1));

  std::string config;
  std::string prev = "e0";
  config += "e0 :: Counter;\n";
  for (int i = 1; i < depth; ++i) {
    config += "e" + std::to_string(i) + " :: Counter;\n";
  }
  config += "sink :: Discard;\n";
  for (int i = 1; i < depth; ++i) {
    config += "e" + std::to_string(i - 1) + " -> e" + std::to_string(i) + ";\n";
  }
  config += "e" + std::to_string(depth - 1) + " -> sink;\n";

  EventScheduler sched;
  auto router = build_router(config, sched);
  if (!router.ok()) {
    state.SkipWithError(router.error().message.c_str());
    return;
  }
  Element* head = (*router)->element("e0");
  const Packet tmpl = bench_packet(size);

  for (auto _ : state) {
    head->push_batch(0, net::PacketBatch::of(Packet(tmpl)));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
  state.counters["depth"] = depth;
}
BENCHMARK(BM_Click_ElementChainDepth)
    ->ArgsProduct({{1, 2, 4, 8, 16, 32}, {64, 1500}});

/// Classification costs: IPClassifier with N rules, miss on all but last.
static void BM_Click_IPClassifierRules(benchmark::State& state) {
  const int rules = static_cast<int>(state.range(0));
  std::string args;
  for (int i = 0; i < rules - 1; ++i) {
    args += "udp && dst port " + std::to_string(10000 + i) + ", ";
  }
  args += "-";
  std::string config = "cl :: IPClassifier(" + args + ");\n";
  for (int i = 0; i < rules; ++i) {
    config += "cl[" + std::to_string(i) + "] -> Discard;\n";
  }
  EventScheduler sched;
  auto router = build_router(config, sched);
  if (!router.ok()) {
    state.SkipWithError(router.error().message.c_str());
    return;
  }
  Element* cl = (*router)->element("cl");
  const Packet tmpl = bench_packet(98);  // dst port 2000: misses every rule
  for (auto _ : state) {
    cl->push_batch(0, net::PacketBatch::of(Packet(tmpl)));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rules"] = rules;
}
BENCHMARK(BM_Click_IPClassifierRules)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

/// Each catalog VNF: packets/second through FromDevice -> ... -> ToDevice.
static void BM_Click_CatalogVnf(benchmark::State& state,
                                const std::string& type,
                                const std::map<std::string, std::string>& params) {
  auto catalog = service::VnfCatalog::with_builtins();
  auto config = catalog.render(type, params);
  if (!config.ok()) {
    state.SkipWithError(config.error().message.c_str());
    return;
  }
  EventScheduler sched;
  auto router = build_router(*config, sched);
  if (!router.ok()) {
    state.SkipWithError(router.error().message.c_str());
    return;
  }
  FromDevice* in = nullptr;
  for (Element* e : (*router)->elements_in_order()) {
    if (auto* from = dynamic_cast<FromDevice*>(e)) {
      if (from->devname() == "in0") in = from;
    } else if (auto* to = dynamic_cast<ToDevice*>(e)) {
      to->set_sink([](Packet&&) {});
    }
  }
  if (!in) {
    state.SkipWithError("no in0 FromDevice");
    return;
  }
  const Packet tmpl = bench_packet(98);
  std::uint64_t injected = 0;
  for (auto _ : state) {
    Packet p = tmpl;
    in->inject(std::move(p));
    // Drain any scheduled work (ratelimiter queues etc.) in bulk.
    if (++injected % 1024 == 0) sched.run_for(timeunit::kMillisecond);
  }
  sched.run_for(timeunit::kSecond);
  state.SetItemsProcessed(state.iterations());
}

#define CATALOG_BENCH(NAME, TYPE, ...)                                        \
  static void NAME(benchmark::State& state) {                                 \
    BM_Click_CatalogVnf(state, TYPE, __VA_ARGS__);                            \
  }                                                                           \
  BENCHMARK(NAME)

CATALOG_BENCH(BM_Vnf_Monitor, "monitor", {});
CATALOG_BENCH(BM_Vnf_Firewall, "firewall",
              {{"rules", "deny udp && dst port 23; deny tcp && syn; allow ip"},
               {"default", "deny"}});
CATALOG_BENCH(BM_Vnf_Dpi, "dpi", {{"patterns", "exploit;beacon;malware"}});
CATALOG_BENCH(BM_Vnf_HeaderRewriter, "headerrewriter",
              {{"spec", "SRC_IP 192.0.2.7, DST_PORT 8080"}});
CATALOG_BENCH(BM_Vnf_Delay, "delay", {{"ns", "1000"}});

ESCAPE_BENCH_MAIN("click");
