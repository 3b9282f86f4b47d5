// The data-plane stage stack of the traced run. The same frame stream
// goes through stacks that grow one layer at a time; the delta between
// two stages is the added layer's host cost per packet:
//
//   1. bare EventScheduler, one no-op event per frame
//   1b. host endpoint: frame copy + Host::deliver on a lone host
//   2. host -> link -> host
//   3. host -> switch (one proactive rule) -> host
//   4. host -> switch -> container (empty Click router) -> switch -> host
//   5. each catalog VNF of the forwarding chain as a standalone Click router
//   6. the full Environment chain of chain_forwarding
//
// The counts of stage 6 (link hops, table lookups and containers per
// packet) weight the stage deltas; what they leave unexplained of stage
// 6's ns/packet is `unattributed_share`.
#include <cstdio>

#include "click/config.hpp"
#include "click/elements.hpp"
#include "net/packet_pool.hpp"
#include "netemu/network.hpp"
#include "service/catalog.hpp"
#include "workloads.hpp"

namespace perf {
namespace {

constexpr std::size_t kStageFrames = 20'000;
constexpr int kRepeats = 7;
constexpr SimDuration kGap = 5 * timeunit::kMicrosecond;  // 200k frames/s
constexpr const char* kEmptyRouter =
    "from :: FromDevice(DEVNAME in0);\nto :: ToDevice(DEVNAME out0);\nfrom -> to;\n";

using Frames = std::vector<std::pair<std::uint16_t, std::uint16_t>>;

struct StageResult {
  double ns_per_pkt = 0;
  double events_per_pkt = 0;
};

/// One generator send per frame from `src` to `dst`, at a fixed gap.
Generator stream(const Frames& frames, netemu::Host& src, netemu::Host& dst, SimTime start) {
  Generator gen;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    gen.tuples.push_back({&src, udp_frame(src, dst, frames[i].first, frames[i].second)});
    gen.schedule.push_back({start + static_cast<SimTime>(i + 1) * kGap,
                            static_cast<std::uint32_t>(i)});
  }
  return gen;
}

/// Times one run of `gen` to completion on `sched`; checks delivery.
StageResult time_stream(Generator& gen, EventScheduler& sched, const netemu::Host& dst,
                        std::string& error) {
  const std::uint64_t rx0 = dst.rx_packets();
  const std::uint64_t ev0 = sched.executed_events();
  const auto t0 = Clock::now();
  gen.start(sched);
  sched.run_until(gen.last_send() + 10 * timeunit::kMillisecond);
  const double ns = seconds_since(t0) * 1e9;
  const auto n = static_cast<double>(gen.schedule.size());
  if (dst.rx_packets() - rx0 != gen.schedule.size()) error = "stage lost frames";
  return {ns / n, static_cast<double>(sched.executed_events() - ev0) / n};
}

StageResult median_of(const std::vector<StageResult>& runs) {
  std::vector<double> ns, ev;
  for (const auto& r : runs) {
    ns.push_back(r.ns_per_pkt);
    ev.push_back(r.events_per_pkt);
  }
  return {median(ns), median(ev)};
}

// Each stage is built once and then timed kRepeats times, round-robin
// with the others, so a slow phase of the host hits every stage alike.
using Stage = std::function<StageResult()>;

Stage stage_events(std::size_t n) {
  return [n] {
    EventScheduler sched;
    std::size_t left = n;
    std::function<void()> fire = [&] {
      if (--left > 0) sched.schedule(kGap, fire);
    };
    const auto t0 = Clock::now();
    sched.schedule(kGap, fire);
    sched.run();
    return StageResult{seconds_since(t0) * 1e9 / static_cast<double>(n), 1.0};
  };
}

struct NetFixture {
  EventScheduler sched;
  netemu::Network net{sched};
  std::vector<net::Packet> protos;
};

/// Stage 1b: what one frame costs at its two ends -- the pooled copy the
/// generator makes and the sink host's receive accounting.
Stage stage_host(const Frames& frames) {
  auto f = std::make_shared<NetFixture>();
  auto& h1 = f->net.add_host("h1");
  auto& h2 = f->net.add_host("h2");
  for (const auto& [sport, dport] : frames) f->protos.push_back(udp_frame(h1, h2, sport, dport));
  return [f, &h2] {
    const auto t0 = Clock::now();
    for (const net::Packet& proto : f->protos) {
      net::Packet p = net::default_packet_pool().acquire_copy(proto);
      p.set_timestamp(f->sched.now());
      h2.deliver(0, std::move(p));
    }
    return StageResult{seconds_since(t0) * 1e9 / static_cast<double>(f->protos.size()), 0.0};
  };
}

openflow::FlowMod forward(std::uint16_t in, std::uint16_t out) {
  openflow::FlowMod mod;
  mod.match.in_port(in).dl_type(net::ethertype::kIpv4);
  mod.actions.push_back(openflow::ActionOutput{out});
  return mod;
}

/// Stages 2-4 on one private network: `switched` adds the switch,
/// `contained` the container behind it.
Stage stage_network(const Frames& frames, bool switched, bool contained, std::string& error) {
  auto f = std::make_shared<NetFixture>();
  auto& net = f->net;
  auto& h1 = net.add_host("h1");
  auto& h2 = net.add_host("h2");
  netemu::LinkConfig cfg;
  cfg.delay = 100 * timeunit::kMicrosecond;
  if (!switched) {
    (void)net.add_link("h1", 0, "h2", 0, cfg);
  } else {
    auto& table = net.add_switch("s1").datapath().flow_table();
    (void)net.add_link("h1", 0, "s1", 1, cfg);
    (void)net.add_link("h2", 0, "s1", 2, cfg);
    if (!contained) {
      table.apply(forward(1, 2), 0);
    } else {
      auto& c = net.add_container("c1", 4.0, 4);
      (void)net.add_link("c1", 0, "s1", 3, cfg);
      (void)net.add_link("c1", 1, "s1", 4, cfg);
      if (!c.init_vnf("v", "empty", kEmptyRouter, 0.5).ok() || !c.start_vnf("v").ok() ||
          !c.connect_vnf("v", "in0", 0).ok() || !c.connect_vnf("v", "out0", 1).ok()) {
        error = "stage container set-up failed";
      }
      table.apply(forward(1, 3), 0);
      table.apply(forward(4, 2), 0);
    }
  }
  return [f, &frames, &h1, &h2, &error] {
    Generator gen = stream(frames, h1, h2, f->sched.now());
    return time_stream(gen, f->sched, h2, error);
  };
}

/// Stage 5: a standalone Click router of `config`, fed the frames at in0.
Stage stage_click(const Frames& frames, const std::string& config, std::string& error) {
  struct ClickFixture {
    EventScheduler sched;
    std::unique_ptr<click::Router> router;
    click::FromDevice* in = nullptr;
    std::vector<net::Packet> protos;
  };
  auto f = std::make_shared<ClickFixture>();
  auto router = click::build_router(config, f->sched);
  if (!router.ok()) {
    error = "click: " + router.error().message;
    return [] { return StageResult{}; };
  }
  f->router = std::move(*router);
  for (click::Element* e : f->router->elements_in_order()) {
    if (auto* from = dynamic_cast<click::FromDevice*>(e); from && from->devname() == "in0") {
      f->in = from;
    } else if (auto* to = dynamic_cast<click::ToDevice*>(e)) {
      to->set_sink([](net::Packet&& p) { net::default_packet_pool().recycle(std::move(p)); });
    }
  }
  if (!f->in) {
    error = "click: no in0";
    return [] { return StageResult{}; };
  }
  const net::MacAddr a = net::MacAddr::from_u64(1), b = net::MacAddr::from_u64(2);
  for (const auto& [sport, dport] : frames) {
    f->protos.push_back(net::make_udp_packet(a, b, net::Ipv4Addr(10, 0, 0, 1),
                                             net::Ipv4Addr(10, 0, 0, 2), sport, dport,
                                             kFrameBytes));
  }
  return [f] {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < f->protos.size(); ++i) {
      f->in->inject(net::default_packet_pool().acquire_copy(f->protos[i]));
      if (i % 1024 == 1023) f->sched.run_for(timeunit::kMillisecond);
    }
    f->sched.run_for(timeunit::kMillisecond);
    return StageResult{seconds_since(t0) * 1e9 / static_cast<double>(f->protos.size()), 0.0};
  };
}

struct ChainCounts {
  double hops = 0, lookups = 0;
};

/// Stage 6: the full forwarding chain in an Environment. `counts` gets
/// the link hops and table lookups per frame of the last run.
Stage stage_chain(const Frames& frames, ChainCounts& counts, std::string& error) {
  struct ChainFixture {
    Rng rng{1};
    std::unique_ptr<Environment> env;
  };
  auto f = std::make_shared<ChainFixture>();
  f->env = std::make_unique<Environment>(seeded_options(f->rng));
  Environment& env = *f->env;
  build_linear(env, f->rng);
  if (!env.start().ok() || !env.deploy(forwarding_graph()).ok()) {
    error = "stage chain set-up failed";
  }
  return [f, &frames, &counts, &error] {
    Environment& env = *f->env;
    auto totals = [&env] {
      ChainCounts c;
      for (const auto& link : env.network().links()) {
        c.hops += static_cast<double>(link->delivered(0) + link->delivered(1));
      }
      for (const auto& name : env.network().node_names()) {
        if (auto* sw = env.network().switch_node(name)) {
          c.lookups += static_cast<double>(sw->datapath().flow_table().lookups());
        }
      }
      return c;
    };
    auto& sap1 = *env.host("sap1");
    auto& sap2 = *env.host("sap2");
    const ChainCounts c0 = totals();
    Generator gen = stream(frames, sap1, sap2, env.scheduler().now());
    const StageResult r = time_stream(gen, sap1.scheduler(), sap2, error);
    const ChainCounts c1 = totals();
    const auto n = static_cast<double>(frames.size());
    counts = {(c1.hops - c0.hops) / n, (c1.lookups - c0.lookups) / n};
    return r;
  };
}

}  // namespace

std::string run_stage_stack(const Frames& all_frames, Tracer& tracer,
                            std::map<std::string, double>& out, std::string& gap_note) {
  ScopedSpan span(tracer, "stage_stack");
  Frames frames(all_frames.begin(),
                all_frames.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(all_frames.size(), kStageFrames)));
  if (frames.empty()) frames.assign(kStageFrames, {10000, 5000});
  std::string error;
  ChainCounts counts;
  const auto catalog = service::VnfCatalog::with_builtins();
  const sg::ServiceGraph graph = forwarding_graph();
  std::vector<std::pair<std::string, Stage>> stages = {
      {"events", stage_events(frames.size())},
      {"host", stage_host(frames)},
      {"link", stage_network(frames, false, false, error)},
      {"switch", stage_network(frames, true, false, error)},
      {"container", stage_network(frames, true, true, error)},
      {"click.empty", stage_click(frames, kEmptyRouter, error)},
  };
  for (const auto& vnf : graph.vnfs()) {
    auto config = catalog.render(vnf.vnf_type, vnf.params);
    if (!config.ok()) {
      error = config.error().message;
      continue;
    }
    stages.emplace_back("click." + vnf.vnf_type, stage_click(frames, *config, error));
  }
  stages.emplace_back("chain", stage_chain(frames, counts, error));

  std::map<std::string, std::vector<StageResult>> runs;
  for (int r = 0; r < kRepeats; ++r) {
    for (auto& [name, stage] : stages) {
      const std::string span_name = "stage." + name;
      ScopedSpan s(tracer, span_name.c_str());
      runs[name].push_back(stage());
    }
  }
  std::map<std::string, StageResult> m;
  for (const auto& [name, results] : runs) m[name] = median_of(results);
  const StageResult& events = m["events"];
  const StageResult& link = m["link"];
  const StageResult& sw = m["switch"];
  const StageResult& cont = m["container"];
  const StageResult& chain = m["chain"];
  const double host_ns = m["host"].ns_per_pkt;
  const double click_empty = m["click.empty"].ns_per_pkt;
  double click_sum = 0;
  for (const auto& vnf : graph.vnfs()) {
    const double ns = m["click." + vnf.vnf_type].ns_per_pkt;
    out["click." + vnf.vnf_type + ".ns_per_pkt"] = ns;
    click_sum += ns - click_empty;
  }
  out["click.empty.ns_per_pkt"] = click_empty;

  const double base = events.ns_per_pkt + host_ns;  // one event + both ends
  const double hop = link.ns_per_pkt - base;
  const double sw_ns = sw.ns_per_pkt - base - 2 * hop;
  const double cont_ns = cont.ns_per_pkt - base - 4 * hop - 2 * sw_ns;
  const auto vnfs = static_cast<double>(graph.vnfs().size());
  out["util.event.ns_per_event"] = events.ns_per_pkt;
  out["netemu.host.ns_per_pkt"] = host_ns;
  out["netemu.link.ns_per_hop"] = hop;
  out["openflow.switch.ns_per_pkt"] = sw_ns;
  out["netemu.vnf_container.ns_per_pkt"] = cont_ns;
  out["escape.chain.ns_per_pkt"] = chain.ns_per_pkt;
  const double predicted =
      base + counts.hops * hop + counts.lookups * sw_ns + vnfs * cont_ns + click_sum;
  const double explained = chain.ns_per_pkt > 0 ? predicted / chain.ns_per_pkt : 0;
  out["unattributed_share"] = 1.0 - explained;

  // Same weighting for the event counts: events the stage model does not
  // predict are background timers or extra hand-offs in the full stack.
  const double ev_hop = link.events_per_pkt - events.events_per_pkt;
  const double ev_sw = sw.events_per_pkt - events.events_per_pkt - 2 * ev_hop;
  const double ev_cont = cont.events_per_pkt - events.events_per_pkt - 4 * ev_hop - 2 * ev_sw;
  const double ev_model = events.events_per_pkt + counts.hops * ev_hop + counts.lookups * ev_sw +
                          vnfs * ev_cont;
  const double extra_events = chain.events_per_pkt - ev_model;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "stage deltas explain %.1f%% of %.0f ns/pkt (%.2f hops, %.2f lookups, %.0f "
                "containers per pkt); full chain runs %.2f events/pkt vs %.2f modelled",
                100 * explained, chain.ns_per_pkt, counts.hops, counts.lookups, vnfs,
                chain.events_per_pkt, ev_model);
  gap_note = buf;
  if (explained < 0.9) {
    const double residual = chain.ns_per_pkt - predicted;
    const double event_ns = extra_events * events.ns_per_pkt;
    std::snprintf(buf, sizeof(buf), "; biggest gap: %s (%.0f of %.0f unexplained ns/pkt)",
                  event_ns >= 0.5 * residual
                      ? "event core: events beyond the stage model"
                      : "per-packet work of the full stack outside the staged layers",
                  event_ns >= 0.5 * residual ? event_ns : residual - std::max(0.0, event_ns),
                  residual);
    gap_note += buf;
  }
  return error;
}

}  // namespace perf
