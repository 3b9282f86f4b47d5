#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>

#include "chaos/invariants.hpp"
#include "net/flow.hpp"
#include "net/headers.hpp"
#include "net/packet_pool.hpp"
#include "obs/metrics.hpp"
#include "orchestrator/mapping.hpp"
#include "util/workload.hpp"

namespace perf {

const std::vector<std::string> kWorkloads = {"chain_forwarding", "fattree_churn",
                                             "chain_lifecycle"};

namespace {

// chain_forwarding: frames offered per episode, their Poisson rate in
// virtual time, and the 5-tuple population they are drawn from.
constexpr std::size_t kForwardPackets = 40'000;
constexpr double kForwardRatePps = 200'000;
constexpr std::size_t kForwardTuples = 2048;
constexpr double kZipfS = 1.1;
// Firewall deny rules on ports the traffic never uses.
constexpr int kDenyRules = 64;

// fattree_churn: workload::generate() parameters. Pareto flow sizes are
// truncated at kMaxFlowPackets so one seed's giant flow cannot decide
// the episode's delivered share.
constexpr std::uint64_t kFatTreeFlows = 12000;
constexpr std::uint32_t kFatTreeSlots = 6;  // chain slots use hosts 0-11
constexpr double kFatTreeArrivals = 1500.0;  // flows per virtual second
constexpr double kFatTreeChurn = 100.0;      // churn events per virtual second
constexpr std::uint64_t kFlowRatePps = 2000;  // per-flow packet rate
constexpr std::uint64_t kMaxFlowPackets = 200;

// chain_lifecycle: cycles per episode, and every kKillEvery-th cycle
// also kills and recovers the chain's container. The other workloads end
// with kProbeCycles of the same cycles.
constexpr int kCycles = 16;
constexpr int kKillEvery = 4;
constexpr int kProbeCycles = 8;
constexpr std::size_t kBurstFlows = 8;
constexpr std::size_t kBurstPackets = 128;
constexpr double kBurstRatePps = 100'000;
constexpr std::uint16_t kCyclePort = 7777;

constexpr SimDuration kDrain = 20 * timeunit::kMillisecond;

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::global(); }

}  // namespace

sg::ServiceGraph forwarding_graph() {
  std::string rules;
  for (int i = 0; i < kDenyRules; ++i) {
    rules += "deny udp && dst port " + std::to_string(40000 + i) + "; ";
  }
  rules += "allow ip";
  sg::ServiceGraph g("forwarding");
  g.add_sap("sap1").add_sap("sap2");
  g.add_vnf("fw", "firewall", {{"rules", rules}, {"default", "allow"}}, 0.1);
  g.add_vnf("nat", "flow_nat", {{"port_count", "4096"}}, 0.15);
  g.add_vnf("dpi", "dpi", {{"patterns", "attack;exploit;beacon"}}, 0.2);
  g.add_vnf("mon", "monitor", {}, 0.05);
  g.add_link("sap1", "fw").add_link("fw", "nat").add_link("nat", "dpi");
  g.add_link("dpi", "mon").add_link("mon", "sap2");
  return g;
}

namespace {

sg::ServiceGraph nat_graph(const std::string& a, const std::string& b) {
  sg::ServiceGraph g("cycle");
  g.add_sap(a).add_sap(b);
  g.add_vnf("nat", "flow_nat", {{"port_count", "4096"}}, 0.15);
  g.add_link(a, "nat").add_link("nat", b);
  return g;
}

openflow::Match cycle_match(const netemu::Host& dst) {
  openflow::Match m;
  m.dl_type(net::ethertype::kIpv4).nw_proto(net::ipproto::kUdp).nw_dst(dst.ip());
  m.tp_dst(kCyclePort);
  return m;
}

/// Poisson schedule of `count` frames at `rate_pps` from virtual `start`;
/// `pick` chooses each frame's tuple.
template <typename Pick>
std::vector<Generator::Send> poisson(Rng& rng, SimTime start, std::size_t count,
                                     double rate_pps, Pick pick) {
  std::vector<Generator::Send> out(count);
  double t = static_cast<double>(start);
  for (auto& s : out) {
    t += rng.next_exponential(1e9 / rate_pps);
    s.at = static_cast<SimTime>(t);
    s.tuple = static_cast<std::uint32_t>(pick());
  }
  return out;
}

/// Sum of one Click read handler ("fm.flows") over every deployed VNF
/// that has it, read from the containers directly (no virtual time).
double read_handler_sum(Environment& env, const std::string& handler) {
  double sum = 0;
  for (std::uint32_t id : env.deployed_chains()) {
    for (const auto& v : env.deployment(id)->record.vnfs) {
      auto* c = env.container(v.container);
      if (!c) continue;
      if (auto r = c->read_handler(v.instance_id, handler); r.ok()) {
        sum += std::strtod(r->c_str(), nullptr);
      }
    }
  }
  return sum;
}

/// The registry's queue-depth gauge of both directions of every link.
std::vector<obs::Gauge*> queue_gauges(Environment& env) {
  std::vector<obs::Gauge*> out;
  for (const auto& link : env.network().links()) {
    const std::string id = link->node(0)->name() + ":" + std::to_string(link->port(0)) + "-" +
                           link->node(1)->name() + ":" + std::to_string(link->port(1));
    for (const char* dir : {"ab", "ba"}) {
      out.push_back(&registry().gauge("escape_link_queue_depth", {{"link", id}, {"dir", dir}}));
    }
  }
  return out;
}

/// Wraps the public Environment calls the workloads make: each call gets
/// a span, a host-time sample and an attempt/failure count.
class Ops {
 public:
  Ops(Environment& env, Episode& ep, Tracer& tracer, bool layers)
      : env_(env), ep_(ep), tracer_(tracer), layers_(layers) {}

  void start() {
    ScopedSpan span(tracer_, "escape.start");
    ++ep_.attempted;
    if (auto st = env_.start(); !st.ok()) fail("start", st.error());
  }

  void enable_self_healing() {
    ++ep_.attempted;
    if (auto st = env_.enable_self_healing(); !st.ok()) fail("self_healing", st.error());
  }

  std::optional<std::uint32_t> deploy(const sg::ServiceGraph& g,
                                      std::optional<openflow::Match> match = std::nullopt) {
    ScopedSpan span(tracer_, "escape.deploy");
    ++ep_.attempted;
    const auto t0 = Clock::now();
    auto id = match ? env_.deploy(g, *match) : env_.deploy(g);
    ep_.deploys.push_back({t0, Clock::now()});
    if (!id.ok()) {
      fail("deploy", id.error());
      return std::nullopt;
    }
    ep_.virt_setup_ms.push_back(
        static_cast<double>(env_.deployment(*id)->record.setup_latency()) /
        timeunit::kMillisecond);
    return *id;
  }

  bool scale(std::uint32_t id, std::size_t n) {
    ScopedSpan span(tracer_, "escape.scale_chain");
    ++ep_.attempted;
    const SimTime v0 = env_.scheduler().now();
    if (auto st = env_.scale_chain(id, n); !st.ok()) return fail("scale_chain", st.error());
    ep_.virt_scale_ms.push_back(static_cast<double>(env_.scheduler().now() - v0) /
                                timeunit::kMillisecond);
    return true;
  }

  bool undeploy(std::uint32_t id) {
    ScopedSpan span(tracer_, "escape.undeploy");
    ++ep_.attempted;
    auto st = env_.undeploy(id);
    return st.ok() || fail("undeploy", st.error());
  }

  void run_until(SimTime t) {
    quiet_clock().tick_inside();
    ScopedSpan span(tracer_, "escape.run_for");
    env_.scheduler().run_until(t);
    if (layers_) sample();
  }
  void run_for(SimDuration d) { run_until(env_.scheduler().now() + d); }

  /// Power-fails `container`, runs virtual time until the self-healing
  /// loop has re-embedded every chain it carried, then restores it.
  /// `container` is a copy: recovery rewrites the deployment record the
  /// caller's name usually comes from.
  bool kill_and_recover(std::string container) {
    ScopedSpan span(tracer_, "escape.recover");
    auto& hist = registry().histogram("escape_recovery_latency_ms");
    const std::size_t n0 = hist.count();
    const double sum0 = hist.sum();
    ++ep_.attempted;
    if (auto st = env_.kill_container(container); !st.ok()) return fail("kill", st.error());
    ++ep_.attempted;
    bool recovered = false;
    for (int i = 0; i < 3000 && !recovered; ++i) {
      env_.run_for(timeunit::kMillisecond);
      recovered = hist.count() > n0 && all_active();
    }
    if (!recovered) return fail("recover", make_error("perf.timeout", "chains not ACTIVE after 3 s"));
    const auto n = static_cast<double>(hist.count() - n0);
    ep_.virt_recovery_ms.push_back((hist.sum() - sum0) / n);
    ++ep_.attempted;
    if (auto st = env_.restore_container(container); !st.ok()) return fail("restore", st.error());
    env_.run_for(10 * timeunit::kMillisecond);  // agent respawn + hello
    return true;
  }

  bool all_active() const {
    for (std::uint32_t id : env_.deployed_chains()) {
      auto st = env_.chain_state(id);
      if (!st.ok() || *st != ChainState::kActive) return false;
    }
    return true;
  }

  /// Largest flow-table and FlowManager populations seen at a run_for
  /// boundary (traced run only).
  void sample() {
    max_flows = std::max(max_flows, read_handler_sum(env_, "fm.flows"));
    double entries = 0, groups = 0;
    for (const auto& name : env_.network().node_names()) {
      if (auto* sw = env_.network().switch_node(name)) {
        entries += static_cast<double>(sw->datapath().flow_table().size());
        groups += static_cast<double>(sw->datapath().flow_table().mask_group_count());
      }
    }
    max_entries = std::max(max_entries, entries);
    max_groups = std::max(max_groups, groups);
  }

  /// Traced run: the generator samples every link's queue depth.
  void watch_queues(Generator& gen) {
    if (!layers_) return;
    gen.sampler = [this, depths = queue_gauges(env_)] {
      for (const obs::Gauge* g : depths) max_queue = std::max(max_queue, g->value());
    };
  }

  double max_entries = 0;
  double max_groups = 0;
  double max_flows = 0;
  double max_queue = 0;

 private:
  bool fail(const char* op, const Error& error) {
    ++ep_.failed;
    ep_.errors.push_back(std::string(op) + ": " + error.to_string());
    return false;
  }

  Environment& env_;
  Episode& ep_;
  Tracer& tracer_;
  bool layers_;
};

/// (source, destination) UDP ports of every frame the generator sends.
std::vector<std::pair<std::uint16_t, std::uint16_t>> frame_ports(const Generator& gen) {
  std::vector<std::pair<std::uint16_t, std::uint16_t>> out;
  out.reserve(gen.schedule.size());
  for (const auto& s : gen.schedule) {
    const net::Packet& p = gen.tuples[s.tuple].proto;
    auto key = net::extract_flow_key(p, 0);
    out.emplace_back(key ? key->tp_src : 0, key ? key->tp_dst : 0);
  }
  return out;
}

/// One closed-loop lifecycle cycle between hosts a and b: deploy a
/// flow_nat chain, send a short burst through it and let it drain, scale
/// out to 2 and back to 1, optionally kill/recover/restore its container,
/// then undeploy.
void lifecycle_cycle(Environment& env, Ops& ops, Episode& ep, Tracer& tracer, Rng& rng,
                     netemu::Host& a, netemu::Host& b, bool kill, bool keep_frames = false) {
  // The spans of one cycle share a group id below the episode's.
  const std::uint64_t episode_group = tracer.group;
  tracer.group = episode_group * 1000 + ep.cycles.size() + 1;
  ScopedSpan span(tracer, "cycle");
  const auto t0 = Clock::now();
  const std::uint64_t tx0 = a.tx_packets(), rx0 = b.rx_packets();
  if (auto id = ops.deploy(nat_graph(a.name(), b.name()), cycle_match(b))) {
    Generator gen;
    for (std::size_t i = 0; i < kBurstFlows; ++i) {
      const auto sport = static_cast<std::uint16_t>(1024 + rng.next_below(60000));
      gen.tuples.push_back({&a, udp_frame(a, b, sport, kCyclePort)});
    }
    gen.schedule = poisson(rng, env.scheduler().now(), kBurstPackets, kBurstRatePps,
                           [&rng] { return rng.next_below(kBurstFlows); });
    ops.watch_queues(gen);
    gen.start(a.scheduler());
    ops.run_until(gen.last_send() + kDrain);
    if (keep_frames) {
      const auto ports = frame_ports(gen);
      ep.frames.insert(ep.frames.end(), ports.begin(), ports.end());
    }
    if (ops.scale(*id, 2)) ops.scale(*id, 1);
    if (kill) {
      if (const ChainDeployment* dep = env.deployment(*id); dep && !dep->record.vnfs.empty()) {
        ops.kill_and_recover(dep->record.vnfs.front().container);
      }
    }
    ops.undeploy(*id);
  }
  ep.offered += a.tx_packets() - tx0;
  ep.delivered += b.rx_packets() - rx0;
  ep.cycles.push_back({t0, Clock::now()});
  tracer.group = episode_group;
}

/// The lifecycle probe that ends chain_forwarding and fattree_churn
/// episodes, so every end-to-end metric is measured on every workload:
/// self-healing on, then kProbeCycles cycles; the 2nd and 6th also kill
/// the container.
void lifecycle_probe(Environment& env, Ops& ops, Episode& ep, Tracer& tracer, Rng& rng,
                     netemu::Host& a, netemu::Host& b) {
  ops.enable_self_healing();
  for (int i = 0; i < kProbeCycles; ++i) {
    lifecycle_cycle(env, ops, ep, tracer, rng, a, b, i % 4 == 1);
  }
}

/// Count-weighted mean of the p50 of every histogram called `name`.
double histogram_p50(const std::string& name) {
  const json::Value snap = registry().snapshot_json();
  double weighted = 0, count = 0;
  for (const auto& m : snap["metrics"].as_array()) {
    if (m["name"].as_string() != name) continue;
    const auto n = static_cast<double>(m["count"].as_int());
    weighted += n * m["p50"].as_double();
    count += n;
  }
  return count > 0 ? weighted / count : 0;
}

/// Per-layer counts from public accessors and the metrics registry
/// (reset at the start of every episode).
void collect_counts(Environment& env, Episode& ep, const Ops& ops, double events_per_pkt,
                    double clones_per_pkt) {
  auto& L = ep.layer;
  L["util.event.events_per_pkt"] = events_per_pkt;
  L["net.packet_clones_per_pkt"] = clones_per_pkt;
  double lookups = 0, matches = 0, short_circuits = 0;
  for (const auto& name : env.network().node_names()) {
    if (auto* sw = env.network().switch_node(name)) {
      const auto& t = sw->datapath().flow_table();
      lookups += static_cast<double>(t.lookups());
      matches += static_cast<double>(t.matches());
      short_circuits += static_cast<double>(t.miss_short_circuits());
    }
  }
  L["openflow.flow_table.lookups"] = lookups;
  L["openflow.flow_table.matches"] = matches;
  L["openflow.flow_table.miss_short_circuits"] = short_circuits;
  L["openflow.flow_table.miss_memo_ratio"] =
      lookups > matches ? short_circuits / (lookups - matches) : 0;
  L["openflow.flow_table.entries"] = ops.max_entries;
  L["openflow.flow_table.mask_groups"] = ops.max_groups;
  L["pox.packet_ins"] = static_cast<double>(env.controller().packet_ins_handled());
  L["pox.packet_in_rtt_us_p50"] = histogram_p50("escape_of_packet_in_rtt_us");
  double dropped = 0;
  for (const auto& link : env.network().links()) {
    dropped += static_cast<double>(link->dropped(0) + link->dropped(1));
  }
  L["netemu.link.dropped"] = dropped;
  L["netemu.link.queue_depth_max"] = ops.max_queue;
  L["click.flow_manager.active_flows"] = ops.max_flows;
  const double fw_pkts = read_handler_sum(env, "fw.accepted") + read_handler_sum(env, "fw.denied");
  L["click.firewall.verdict_cache_hit_ratio"] =
      fw_pkts > 0 ? read_handler_sum(env, "fw.flow_cache_hits") / fw_pkts : 0;
  auto counter = [](const char* name, obs::Labels labels = {}) {
    return static_cast<double>(registry().counter(name, std::move(labels)).value());
  };
  L["netconf.rpcs"] = counter("escape_netconf_rpcs_total", {{"side", "client"}});
  L["netconf.rpc_retries"] = counter("escape_netconf_rpc_retries_total");
  L["netconf.rpc_timeouts"] = counter("escape_netconf_rpc_timeouts_total");
  L["netconf.rpc_errors"] = counter("escape_netconf_rpc_errors_total", {{"side", "server"}});
  L["netconf.rpc_rtt_us_p50"] = registry().histogram("escape_netconf_rpc_rtt_us").p50();
  L["pox.steering.flowmods"] = counter("escape_steering_flowmods_total");
  L["pox.steering.install_latency_us_p50"] =
      registry().histogram("escape_steering_install_latency_us").p50();
}

/// Control-plane and lookup probes of the traced run, made after the
/// episode's fingerprint: `map()` on a copy of the view, synchronous
/// getVNFInfo round trips, and FlowTable::lookup on a copy of the
/// busiest switch table with the workload's own frames as keys.
void probe_layers(Environment& env, Episode& ep, Tracer& tracer, netemu::Host& a,
                  netemu::Host& b, const std::vector<Tuple>& tuples) {
  Episode books;  // probe operations stay out of the workload's books
  Ops ops(env, books, tracer, false);
  const sg::ServiceGraph graph = nat_graph(a.name(), b.name());
  auto algo = orchestrator::MappingRegistry::global().create(env.options().mapping_algorithm);
  std::vector<double> map_us;
  for (int i = 0; i < 100; ++i) {
    sg::ResourceGraph view = *env.resource_view();
    ScopedSpan span(tracer, "orchestrator.map");
    const auto t0 = Clock::now();
    auto r = algo->map(graph, view);
    map_us.push_back(seconds_since(t0) * 1e6);
    if (!r.ok()) break;
  }
  ep.layer["orchestrator.mapping.wall_us"] = median(map_us);

  auto id = ops.deploy(graph, cycle_match(b));
  std::vector<double> rpc_us;
  if (id) {
    const auto& v = env.deployment(*id)->record.vnfs.front();
    for (int i = 0; i < 50; ++i) {
      ScopedSpan span(tracer, "netconf.monitor_vnf");
      const auto t0 = Clock::now();
      if (!env.monitor_vnf(v.container, v.instance_id).ok()) break;
      rpc_us.push_back(seconds_since(t0) * 1e6);
    }
  }
  ep.layer["netconf.rpc_wall_us"] = median(rpc_us);

  // Rebuild the largest table into a private FlowTable (FlowTable holds
  // iterators into itself, so it is rebuilt, not copied).
  netemu::SwitchNode* busiest = nullptr;
  for (const auto& name : env.network().node_names()) {
    auto* sw = env.network().switch_node(name);
    if (sw && (!busiest || sw->datapath().flow_table().size() >
                               busiest->datapath().flow_table().size())) {
      busiest = sw;
    }
  }
  openflow::FlowTable table;
  std::set<std::uint16_t> in_ports;
  const SimTime now = env.scheduler().now();
  for (const auto& e : busiest->datapath().flow_table().stats(now)) {
    openflow::FlowMod mod;
    mod.match = e.match;
    mod.priority = e.priority;
    mod.cookie = e.cookie;
    mod.actions = e.actions;
    table.apply(mod, now);
    if (!(e.match.wildcards() & openflow::kWcInPort)) in_ports.insert(e.match.fields().in_port);
  }
  if (in_ports.empty()) in_ports.insert(1);
  std::vector<net::FlowKey> hits, misses;
  for (const Tuple& t : tuples) {
    for (std::uint16_t port : in_ports) {
      auto key = net::extract_flow_key(t.proto, port);
      if (!key) continue;
      (table.lookup(*key, t.proto.size(), now) ? hits : misses).push_back(*key);
    }
    // The same frame toward an address no chain steers: a guaranteed miss.
    if (auto key = net::extract_flow_key(t.proto, *in_ports.begin())) {
      key->nw_dst = net::Ipv4Addr(10, 254, 0, 1);
      misses.push_back(*key);
    }
  }
  auto time_lookups = [&](const std::vector<net::FlowKey>& keys) {
    if (keys.empty()) return 0.0;
    ScopedSpan span(tracer, "openflow.lookup");
    constexpr std::size_t kLookups = 200'000;
    std::size_t found = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kLookups; ++i) {
      found += table.lookup(keys[i % keys.size()], kFrameBytes, now) != nullptr;
    }
    const double ns = seconds_since(t0) * 1e9 / kLookups;
    return found == SIZE_MAX ? 0.0 : ns;  // keeps the lookups observable
  };
  ep.layer["openflow.flow_table.ns_per_lookup_hit"] = time_lookups(hits);
  ep.layer["openflow.flow_table.ns_per_lookup_miss"] = time_lookups(misses);

  if (id) ops.undeploy(*id);
}

struct Counters {
  std::uint64_t events;
  std::uint64_t clones;
};

Counters counters_now(Environment& env) {
  return {env.scheduler().executed_events(), stats::packet_clones().value()};
}

/// Shared tail of every episode: fingerprint inputs, invariants, counts.
void finish(Environment& env, Episode& ep) {
  ep.order_digest = env.scheduler().order_digest();
  ep.events = env.scheduler().executed_events();
  for (const auto& v : chaos::check_invariants(env)) ep.violations.push_back(to_string(v));
}

// --- the workloads -----------------------------------------------------------

Episode chain_forwarding(std::uint64_t seed, Tracer& tracer, bool layers) {
  Episode ep;
  Rng rng(seed);
  const auto t0 = Clock::now();
  Environment env(seeded_options(rng));
  Ops ops(env, ep, tracer, layers);
  build_linear(env, rng);
  netemu::Host& sap1 = *env.host("sap1");
  netemu::Host& sap2 = *env.host("sap2");
  record_latency(env, sap2, ep.latency_us);
  ops.start();
  ops.deploy(forwarding_graph());
  ep.setup = {t0, Clock::now()};

  Generator gen;
  for (std::size_t i = 0; i < kForwardTuples; ++i) {
    const auto sport = static_cast<std::uint16_t>(10000 + i);
    const auto dport = static_cast<std::uint16_t>(5000 + rng.next_below(32));
    gen.tuples.push_back({&sap1, udp_frame(sap1, sap2, sport, dport)});
  }
  // Popularity rank -> tuple is a seeded permutation.
  std::vector<std::uint32_t> rank(kForwardTuples);
  for (std::size_t i = 0; i < kForwardTuples; ++i) rank[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = kForwardTuples - 1; i > 0; --i) {
    std::swap(rank[i], rank[rng.next_below(i + 1)]);
  }
  const Zipf zipf(kForwardTuples, kZipfS);
  gen.schedule = poisson(rng, env.scheduler().now(), kForwardPackets, kForwardRatePps,
                         [&] { return rank[zipf(rng)]; });
  ops.watch_queues(gen);

  const Counters c0 = counters_now(env);
  const auto t1 = Clock::now();
  {
    ScopedSpan span(tracer, "traffic");
    gen.start(sap1.scheduler());
    ops.run_until(gen.last_send() + kDrain);
  }
  ep.timed = {t1, Clock::now()};
  const Counters c1 = counters_now(env);
  ep.timed_offered = sap1.tx_packets();
  ep.timed_delivered = sap2.rx_packets();
  const std::size_t timed_latencies = ep.latency_us.size();
  ep.offered = ep.timed_offered;
  ep.delivered = ep.timed_delivered;

  // Lifecycle probe on the loaded substrate (see NOTES.md).
  lifecycle_probe(env, ops, ep, tracer, rng, sap1, sap2);
  finish(env, ep);
  ep.latency_us.resize(timed_latencies);  // the probe's bursts are not the workload

  if (layers) {
    const auto pkts = static_cast<double>(kForwardPackets);
    collect_counts(env, ep, ops, static_cast<double>(c1.events - c0.events) / pkts,
                   static_cast<double>(c1.clones - c0.clones) / pkts);
    probe_layers(env, ep, tracer, sap1, sap2, gen.tuples);
    ep.frames = frame_ports(gen);
  }
  return ep;
}

Episode fattree_churn(std::uint64_t seed, Tracer& tracer, bool layers) {
  Episode ep;
  Rng rng(seed);
  workload::Options wo;
  wo.seed = seed;
  wo.fattree_k = 4;
  wo.flows = kFatTreeFlows;
  wo.arrival_rate = kFatTreeArrivals;
  wo.chains = kFatTreeSlots;
  wo.churn_rate = kFatTreeChurn;
  wo.chain_traffic_fraction = 0.25;
  const workload::Plan plan = workload::generate(wo);

  const auto t0 = Clock::now();
  Environment env(seeded_options(rng));
  Ops ops(env, ep, tracer, layers);
  auto& net = env.network();
  for (const auto& h : plan.hosts) net.add_host(h);
  for (const auto& s : plan.switches) net.add_switch(s);
  for (const auto& c : plan.containers) net.add_container(c, 4.0, 16);
  // Ports as escape-run --workload assigns them: dense from 1 on
  // switches, 0 on single-homed hosts and containers.
  std::map<std::string, std::uint16_t> next_port;
  for (const auto& s : plan.switches) next_port[s] = 1;
  auto port_of = [&next_port](const std::string& node) -> std::uint16_t {
    auto it = next_port.find(node);
    return it == next_port.end() ? 0 : it->second++;
  };
  for (const auto& l : plan.links) {
    const std::uint16_t pa = port_of(l.a);
    (void)net.add_link(l.a, pa, l.b, port_of(l.b), seeded_link(rng));
  }
  std::vector<netemu::Host*> hosts;
  for (const auto& h : plan.hosts) {
    hosts.push_back(env.host(h));
    record_latency(env, *hosts.back(), ep.latency_us);
  }
  ops.start();
  ep.setup = {t0, Clock::now()};

  // One tuple per planned flow; its packets leave at kFlowRatePps from
  // the flow's arrival, all through one generator (see NOTES.md on why
  // Host::start_udp_flow is not used).
  const SimTime base = env.scheduler().now();
  Generator gen;
  for (const auto& fa : plan.arrivals) {
    netemu::Host& src = *hosts[fa.src_host];
    const auto tuple = static_cast<std::uint32_t>(gen.tuples.size());
    gen.tuples.push_back({&src, udp_frame(src, *hosts[fa.dst_host], fa.src_port, fa.dst_port)});
    const std::uint64_t n = std::min(fa.packets, kMaxFlowPackets);
    for (std::uint64_t j = 0; j < n; ++j) {
      const auto offset = static_cast<SimTime>(j * timeunit::kSecond / kFlowRatePps);
      gen.schedule.push_back({base + fa.at + offset, tuple});
    }
  }
  std::stable_sort(gen.schedule.begin(), gen.schedule.end(),
                   [](const auto& x, const auto& y) { return x.at < y.at; });
  ops.watch_queues(gen);

  const Counters c0 = counters_now(env);
  const auto t1 = Clock::now();
  {
    ScopedSpan span(tracer, "traffic");
    gen.start(hosts.front()->scheduler());
    // Churn runs on the control thread between scheduler segments, as in
    // escape-run: each slot alternates deploy / teardown of a firewall
    // chain between hosts 2s and 2s+1.
    std::map<std::uint32_t, std::uint32_t> live;
    for (const auto& ev : plan.churn) {
      ops.run_until(base + ev.at);
      if (ev.deploy) {
        const std::size_t n = plan.hosts.size();
        const std::string& a = plan.hosts[(2 * ev.slot) % n];
        const std::string& b = plan.hosts[(2 * ev.slot + 1) % n];
        sg::ServiceGraph graph("churn-" + std::to_string(ev.slot));
        const std::string fw = "fw_slot" + std::to_string(ev.slot);
        graph.add_sap(a);
        graph.add_vnf(fw, "firewall", {{"default", "allow"}}, 0.05);
        graph.add_link(a, fw);
        graph.add_link(fw, b);
        graph.add_sap(b);
        if (auto id = ops.deploy(graph)) live[ev.slot] = *id;
      } else if (auto it = live.find(ev.slot); it != live.end()) {
        ops.undeploy(it->second);
        live.erase(it);
      }
    }
    ops.run_until(std::max(base + plan.horizon, gen.last_send()) + kDrain);
  }
  ep.timed = {t1, Clock::now()};
  const Counters c1 = counters_now(env);
  for (const netemu::Host* h : hosts) {
    ep.timed_offered += h->tx_packets();
    ep.timed_delivered += h->rx_packets();
  }
  const std::size_t timed_latencies = ep.latency_us.size();
  const auto offered = static_cast<double>(gen.schedule.size());

  // Lifecycle probe between the two hosts no churn slot uses.
  netemu::Host& a = *hosts[hosts.size() - 2];
  netemu::Host& b = *hosts.back();
  lifecycle_probe(env, ops, ep, tracer, rng, a, b);
  ep.offered = ep.delivered = 0;
  for (const netemu::Host* h : hosts) {
    ep.offered += h->tx_packets();
    ep.delivered += h->rx_packets();
  }
  finish(env, ep);
  ep.latency_us.resize(timed_latencies);  // the probe's bursts are not the workload

  if (layers) {
    collect_counts(env, ep, ops, static_cast<double>(c1.events - c0.events) / offered,
                   static_cast<double>(c1.clones - c0.clones) / offered);
    probe_layers(env, ep, tracer, a, b, gen.tuples);
    ep.frames = frame_ports(gen);
  }
  return ep;
}

Episode chain_lifecycle(std::uint64_t seed, Tracer& tracer, bool layers) {
  Episode ep;
  Rng rng(seed);
  const auto t0 = Clock::now();
  Environment env(seeded_options(rng));
  Ops ops(env, ep, tracer, layers);
  build_linear(env, rng);
  netemu::Host& sap1 = *env.host("sap1");
  netemu::Host& sap2 = *env.host("sap2");
  record_latency(env, sap2, ep.latency_us);
  ops.start();
  ops.enable_self_healing();
  ep.setup = {t0, Clock::now()};

  const Counters c0 = counters_now(env);
  const auto t1 = Clock::now();
  for (int i = 0; i < kCycles; ++i) {
    lifecycle_cycle(env, ops, ep, tracer, rng, sap1, sap2, (i + 1) % kKillEvery == 0, layers);
  }
  ep.timed = {t1, Clock::now()};
  ep.timed_offered = ep.offered;
  ep.timed_delivered = ep.delivered;
  const Counters c1 = counters_now(env);
  finish(env, ep);

  if (layers) {
    const auto offered = static_cast<double>(std::max<std::uint64_t>(ep.offered, 1));
    collect_counts(env, ep, ops, static_cast<double>(c1.events - c0.events) / offered,
                   static_cast<double>(c1.clones - c0.clones) / offered);
    std::vector<Tuple> tuples;
    for (const auto& [sport, dport] : ep.frames) {
      if (tuples.size() == kBurstFlows * 4) break;
      tuples.push_back({&sap1, udp_frame(sap1, sap2, sport, dport)});
    }
    probe_layers(env, ep, tracer, sap1, sap2, tuples);
  }
  return ep;
}

}  // namespace

std::string Episode::fingerprint() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "offered=%llu/%llu delivered=%llu/%llu lat_p50=%.6f lat_p99=%.6f setup=%.6f scale=%.6f "
                "recovery=%.6f n_setup=%zu n_scale=%zu n_recovery=%zu events=%llu "
                "digest=%016llx",
                static_cast<unsigned long long>(timed_offered),
                static_cast<unsigned long long>(offered),
                static_cast<unsigned long long>(timed_delivered),
                static_cast<unsigned long long>(delivered), percentile(latency_us, 50),
                percentile(latency_us, 99), median(virt_setup_ms), median(virt_scale_ms),
                median(virt_recovery_ms), virt_setup_ms.size(), virt_scale_ms.size(),
                virt_recovery_ms.size(), static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(order_digest));
  return buf;
}

Episode run_episode(const std::string& workload, std::uint64_t seed, Tracer& tracer,
                    bool layers) {
  registry().reset_values();
  if (workload == "chain_forwarding") return chain_forwarding(seed, tracer, layers);
  if (workload == "fattree_churn") return fattree_churn(seed, tracer, layers);
  if (workload == "chain_lifecycle") return chain_lifecycle(seed, tracer, layers);
  Episode ep;
  ep.violations.push_back("unknown workload " + workload);
  return ep;
}

}  // namespace perf
