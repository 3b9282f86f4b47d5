// Tests for the batched data plane: every push element and graph fed in
// any batch decomposition behaves as when fed batches of one, queue batch
// semantics, the single-event link burst model and the OpenFlow flow-run
// cache. The invariant under test everywhere: batching changes *cost*,
// never *behavior* -- delivery order, paints, timestamps, bytes and
// counters must match the batch-of-one decomposition exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "click/config.hpp"
#include "click/elements.hpp"
#include "net/builder.hpp"
#include "net/packet_batch.hpp"
#include "net/packet_pool.hpp"
#include "netemu/network.hpp"
#include "openflow/switch.hpp"
#include "support/push_one.hpp"

namespace escape {
namespace {

using net::Ipv4Addr;
using net::MacAddr;
using net::Packet;
using net::PacketBatch;
using escape::testing::push_one;

Packet udp_packet(std::uint16_t dport, std::size_t size = 98) {
  return net::make_udp_packet(MacAddr::from_u64(1), MacAddr::from_u64(2),
                              Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1000, dport, size);
}

// --- Click: every batch decomposition matches batches of one -------------------------

/// What an observer can see of a delivered packet: the ToDevice it left
/// through, the virtual time it left, its annotations and its bytes.
struct TraceRecord {
  std::string sink;
  SimTime at;
  std::uint64_t seq;
  std::uint8_t paint;
  SimTime timestamp;
  std::vector<std::uint8_t> bytes;

  bool operator==(const TraceRecord&) const = default;
};

/// Everything one run exposes: the packets delivered to every sink in
/// global order, and the read-handler counters its case names.
struct RunResult {
  std::vector<TraceRecord> delivered;
  std::vector<std::string> counters;  // "element.handler=value"

  std::vector<TraceRecord> at_sink(const std::string& sink) const {
    std::vector<TraceRecord> out;
    for (const auto& r : delivered) {
      if (r.sink == sink) out.push_back(r);
    }
    return out;
  }
};

/// One push element (or small graph) under test. Every ToDevice in the
/// config is a recording sink; `head` receives the trace on input 0.
struct PushCase {
  const char* name;
  const char* config;
  const char* head;
  std::vector<const char*> counters;
  /// Tee hands a batch to each output in turn, so only the order per
  /// output -- not the interleaving across outputs -- is decomposition
  /// independent.
  bool per_output_order = false;
};

/// A classify-on-dst-port graph: paint each branch differently, fan back
/// in and deliver. Exercises RunEmitter run splitting and push fan-in.
constexpr const char* kBranchConfig = R"(
  cl :: IPClassifier(udp && dst port 2000, udp && dst port 3000, -);
  p0 :: Paint(COLOR 1);
  p1 :: Paint(COLOR 2);
  cnt :: Counter;
  out :: ToDevice(DEVNAME out0);
  cl[0] -> p0 -> cnt;
  cl[1] -> p1 -> cnt;
  cl[2] -> cnt;
  cnt -> out;
)";

std::vector<PushCase> push_cases() {
  return {
      {"branch graph", kBranchConfig, "cl",
       {"cl.no_match_drops", "cnt.count", "cnt.byte_count"}},
      {"FromDevice",
       "from :: FromDevice(DEVNAME in0); c :: Counter; from -> c -> ToDevice(DEVNAME a);", "from",
       {"from.count", "c.count"}},
      {"Discard", "d :: Discard;", "d", {"d.count"}},
      {"Tee", "t :: Tee(2); t[0] -> ToDevice(DEVNAME a); t[1] -> ToDevice(DEVNAME b);", "t",
       {}, /*per_output_order=*/true},
      {"Switch",
       "s :: Switch(N 2, PORT 1); s[0] -> ToDevice(DEVNAME a); s[1] -> ToDevice(DEVNAME b);",
       "s", {"s.switch"}},
      {"PaintSwitch",
       "s :: PaintSwitch(2); s[0] -> ToDevice(DEVNAME a); s[1] -> ToDevice(DEVNAME b);", "s", {}},
      {"CheckPaint",
       "s :: CheckPaint(COLOR 1); s[0] -> ToDevice(DEVNAME a); s[1] -> ToDevice(DEVNAME b);", "s",
       {}},
      {"Classifier",
       "c :: Classifier(12/0806, 23/06); c[0] -> ToDevice(DEVNAME a); c[1] -> ToDevice(DEVNAME b);",
       "c", {}},
      {"IPFilter", "f :: IPFilter(udp && dst port 2000); f[0] -> ToDevice(DEVNAME a);", "f",
       {"f.matched", "f.rejected"}},
      {"Queue", "q :: Queue(CAPACITY 40);", "q", {"q.length", "q.drops", "q.highwater"}},
      {"Meter", "m :: Meter(RATE 100); m[0] -> ToDevice(DEVNAME a); m[1] -> ToDevice(DEVNAME b);",
       "m", {"m.conforming", "m.exceeding"}},
      {"Firewall",
       R"(fw :: Firewall(RULES "deny udp && dst port 53; allow udp", DEFAULT deny);
          fw[0] -> ToDevice(DEVNAME a); fw[1] -> ToDevice(DEVNAME b);)",
       "fw", {"fw.accepted", "fw.denied"}},
      {"FlowManager + FlowNAT",
       R"(fm :: FlowManager; nat :: FlowNAT(EXTERNAL_IP 192.0.2.1, PORT_BASE 20000, PORT_COUNT 3);
          fm -> [0]nat; nat[0] -> ToDevice(DEVNAME a); nat[1] -> ToDevice(DEVNAME b);)",
       "fm",
       {"fm.flows", "fm.lookups", "fm.hits", "fm.misses", "fm.non_ip", "nat.mappings",
        "nat.translated", "nat.dropped", "nat.exhausted"}},
      {"FlowManager + FlowLB",
       R"(fm :: FlowManager; lb :: FlowLB(N 3, MODE rr); fm -> lb; lb[0] -> ToDevice(DEVNAME a);
          lb[1] -> ToDevice(DEVNAME b); lb[2] -> ToDevice(DEVNAME c);)",
       "fm", {"lb.flows_assigned", "lb.out0_count", "lb.out1_count", "lb.out2_count"}},
      {"RoundRobinSwitch",
       R"(rr :: RoundRobinSwitch(3); rr[0] -> ToDevice(DEVNAME a);
          rr[1] -> ToDevice(DEVNAME b); rr[2] -> ToDevice(DEVNAME c);)",
       "rr", {}},
      {"CheckIPHeader",
       "chk :: CheckIPHeader; chk[0] -> ToDevice(DEVNAME a); chk[1] -> ToDevice(DEVNAME b);",
       "chk", {"chk.drops"}},
      {"DecIPTTL", "dec :: DecIPTTL; dec[0] -> ToDevice(DEVNAME a); dec[1] -> ToDevice(DEVNAME b);",
       "dec", {"dec.expired"}},
      {"RandomSample",
       R"(rs :: RandomSample(P 0.5, SEED 7);
          rs[0] -> ToDevice(DEVNAME a); rs[1] -> ToDevice(DEVNAME b);)",
       "rs", {"rs.sampled", "rs.dropped"}},
      {"NAPT",
       R"(n :: NAPT(EXTERNAL_IP 192.0.2.1, PORT_BASE 65533);
          n[0] -> ToDevice(DEVNAME a); n[1] -> ToDevice(DEVNAME b);)",
       "n", {"n.mappings", "n.translated", "n.dropped", "n.exhausted"}},
      {"LoadBalancer",
       R"(lb :: LoadBalancer(N 3, MODE packet); lb[0] -> ToDevice(DEVNAME a);
          lb[1] -> ToDevice(DEVNAME b); lb[2] -> ToDevice(DEVNAME c);)",
       "lb", {"lb.out0_count", "lb.out1_count", "lb.out2_count"}},
      {"Delay", "d :: Delay(DELAY 1000); d -> ToDevice(DEVNAME a);", "d", {}},
  };
}

Packet udp_frame(std::uint16_t sport, std::uint16_t dport, std::uint8_t ttl = 64) {
  return net::PacketBuilder()
      .eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
      .ipv4(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), net::ipproto::kUdp, ttl)
      .udp(sport, dport)
      .pad_to(98)
      .build();
}

/// The input trace: repeated and fresh UDP flows, TCP, expiring TTLs, a
/// bad IPv4 checksum and ARP, with paint, seq and timestamp annotations
/// that distinguish every packet.
std::vector<Packet> mixed_trace(std::size_t n) {
  std::vector<Packet> trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Packet p;
    switch (i % 8) {
      case 0:
      case 2: p = udp_frame(1000, 2000); break;
      case 1: p = udp_frame(1001, 3000); break;
      case 3: {
        net::TcpFields tcp;
        tcp.src_port = 1002;
        tcp.dst_port = 80;
        p = net::PacketBuilder()
                .eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
                .ipv4(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), net::ipproto::kTcp)
                .tcp(tcp)
                .build();
        break;
      }
      case 4:  // TTL 1 decrements to 0; TTL 0 has expired
        p = udp_frame(1004, 53, /*ttl=*/i % 16 == 4 ? 1 : 0);
        break;
      case 5:
        p = udp_frame(1005, 2000);
        p.data()[24] ^= 0xff;  // IPv4 header checksum
        break;
      case 6:
        p = net::PacketBuilder()
                .eth(MacAddr::from_u64(1), MacAddr::broadcast(), net::ethertype::kArp)
                .arp(net::ArpView::kRequest, MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1),
                     MacAddr(), Ipv4Addr(10, 0, 0, 2))
                .build();
        break;
      default: p = udp_frame(static_cast<std::uint16_t>(3000 + i), 4000); break;
    }
    p.set_paint(static_cast<std::uint8_t>(i % 3));
    p.set_seq(i);
    p.set_timestamp(static_cast<SimTime>(1000 * i + 7));
    trace.push_back(std::move(p));
  }
  return trace;
}

/// Pushes `trace` into the case's head element in consecutive batches
/// whose sizes cycle through `batch_sizes`, then runs the scheduler.
RunResult run_case(const PushCase& c, const std::vector<Packet>& trace,
                   const std::vector<std::size_t>& batch_sizes) {
  EventScheduler sched;
  auto router = click::build_router(c.config, sched);
  EXPECT_TRUE(router.ok()) << router.error().to_string();
  RunResult result;
  for (click::Element* e : (*router)->elements_in_order()) {
    if (auto* to = dynamic_cast<click::ToDevice*>(e)) {
      to->set_sink([&result, &sched, sink = to->devname()](Packet&& p) {
        result.delivered.push_back(
            {sink, sched.now(), p.seq(), p.paint(), p.timestamp(), p.data()});
      });
    }
  }
  click::Element* head = (*router)->element(c.head);
  auto* from = dynamic_cast<click::FromDevice*>(head);

  std::size_t i = 0, chunk = 0;
  while (i < trace.size()) {
    const std::size_t n =
        std::min(batch_sizes[chunk % batch_sizes.size()], trace.size() - i);
    PacketBatch batch(n);
    for (std::size_t k = 0; k < n; ++k) batch.push_back(Packet(trace[i + k]));
    if (from) {
      from->inject_batch(std::move(batch));
    } else {
      head->push_batch(0, std::move(batch));
    }
    i += n;
    ++chunk;
  }
  sched.run_for(10 * timeunit::kMillisecond);
  for (const char* handler : c.counters) {
    auto v = (*router)->call_read(handler);
    EXPECT_TRUE(v.ok()) << handler;
    result.counters.push_back(std::string(handler) + "=" + (v.ok() ? *v : "?"));
  }
  return result;
}

TEST(BatchEquivalence, EveryPushElementMatchesBatchOfOne) {
  const auto trace = mixed_trace(64);
  for (const PushCase& c : push_cases()) {
    SCOPED_TRACE(c.name);
    const RunResult reference = run_case(c, trace, {1});
    EXPECT_FALSE(reference.delivered.empty() && reference.counters.empty());
    // Several decompositions of the same trace, including batch
    // boundaries that split same-port runs mid-way.
    for (const auto& sizes : std::vector<std::vector<std::size_t>>{
             {32}, {64}, {3, 5, 1, 7}, {2}, {13, 4}}) {
      const RunResult batched = run_case(c, trace, sizes);
      EXPECT_EQ(batched.counters, reference.counters);
      if (c.per_output_order) {
        EXPECT_EQ(batched.delivered.size(), reference.delivered.size());
        for (const char* sink : {"a", "b"}) {
          EXPECT_EQ(batched.at_sink(sink), reference.at_sink(sink)) << sink;
        }
      } else {
        EXPECT_EQ(batched.delivered, reference.delivered);
      }
    }
  }
}

TEST(BatchEquivalence, StreamIdsDropModeCutsAtTheSamePacket) {
  // "attack" straddles packets 1 and 2 of one TCP flow. Fed one at a
  // time, the IDS alerts on packet 2 and cuts 2 and 3; a batch must not
  // let the reassembler run ahead and move the cut to packet 1.
  const PushCase ids{"tcp_ids",
                     R"(fm :: FlowManager; ra :: TcpReassembler;
                        ids :: StreamIDS(PATTERNS "attack", MODE drop);
                        fm -> ra -> ids -> ToDevice(DEVNAME a); ids[1] -> ToDevice(DEVNAME b);)",
                     "fm",
                     {"ids.alerts", "ids.cut_packets", "ra.reassembled_bytes"}};
  std::vector<Packet> trace;
  const std::pair<std::uint8_t, std::string_view> segments[] = {
      {0x02, ""}, {0x10, "some att"}, {0x10, "ack here"}, {0x10, "more"}};
  std::uint32_t seq = 1000;
  for (const auto& [flags, payload] : segments) {
    net::TcpFields tcp;
    tcp.src_port = 1234;
    tcp.dst_port = 80;
    tcp.seq = seq;
    tcp.flags = flags;
    net::PacketBuilder b;
    b.eth(MacAddr::from_u64(1), MacAddr::from_u64(2))
        .ipv4(Ipv4Addr(10, 0, 0, 5), Ipv4Addr(8, 8, 8, 8), net::ipproto::kTcp)
        .tcp(tcp);
    if (!payload.empty()) b.payload(payload);
    Packet p = b.build();
    p.set_seq(trace.size());
    trace.push_back(std::move(p));
    seq += payload.empty() ? 1 : static_cast<std::uint32_t>(payload.size());
  }

  const RunResult reference = run_case(ids, trace, {1});
  ASSERT_EQ(reference.at_sink("a").size(), 2u);
  EXPECT_EQ(reference.at_sink("b").size(), 2u);
  for (const auto& sizes : std::vector<std::vector<std::size_t>>{{4}, {2}, {1, 3}, {3, 1}}) {
    const RunResult batched = run_case(ids, trace, sizes);
    EXPECT_EQ(batched.delivered, reference.delivered);
    EXPECT_EQ(batched.counters, reference.counters);
  }
}

/// The branch graph's own trace: dst ports cycle through both classifier
/// branches and the wildcard.
std::vector<Packet> branch_trace(std::size_t n) {
  const std::uint16_t ports[] = {2000, 3000, 4000, 2000, 3000};
  std::vector<Packet> trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Packet p = udp_packet(ports[i % 5]);
    p.set_seq(i);
    p.set_timestamp(static_cast<SimTime>(1000 * i + 7));
    trace.push_back(std::move(p));
  }
  return trace;
}

TEST(BatchEquivalence, BatchKeepsPerPacketAnnotations) {
  const auto trace = branch_trace(10);
  const auto records = run_case(push_cases().front(), trace, {10}).delivered;
  ASSERT_EQ(records.size(), 10u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
    EXPECT_EQ(records[i].timestamp, static_cast<SimTime>(1000 * i + 7));
    // dst port 2000 -> paint 1, 3000 -> paint 2, 4000 -> untouched (0).
    const std::uint8_t expected[] = {1, 2, 0, 1, 2};
    EXPECT_EQ(records[i].paint, expected[i % 5]);
  }
}

TEST(BatchEquivalence, QueuePushBatchTailDropsAndPullBatchDrainsFifo) {
  EventScheduler sched;
  auto router = click::build_router("q :: Queue(CAPACITY 5);", sched);
  ASSERT_TRUE(router.ok());
  auto* q = dynamic_cast<click::Queue*>((*router)->element("q"));
  ASSERT_NE(q, nullptr);

  PacketBatch batch(8);
  for (std::uint64_t i = 0; i < 8; ++i) {
    Packet p = udp_packet(2000);
    p.set_seq(i);
    batch.push_back(std::move(p));
  }
  q->push_batch(0, std::move(batch));
  EXPECT_EQ(q->length(), 5u);
  EXPECT_EQ(q->drops(), 3u);
  EXPECT_EQ((*router)->call_read("q.highwater").value(), "5");

  PacketBatch drained = q->pull_batch(0, 16);
  ASSERT_EQ(drained.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(drained[i].seq(), i);
  EXPECT_EQ(q->length(), 0u);
}

// --- netemu: burst transmission through a link ---------------------------------------

TEST(BatchLink, BurstDeliversInOrderWithScalarTiming) {
  EventScheduler sched;
  netemu::Network net(sched);
  auto& a = net.add_host("a", MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1));
  auto& b = net.add_host("b", MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 2));
  netemu::LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;  // 1000-byte frame = 1 ms serialization
  cfg.delay = 0;
  ASSERT_TRUE(net.add_link("a", 0, "b", 0, cfg).ok());

  std::vector<std::uint64_t> rx_seqs;
  std::vector<SimTime> rx_times;
  b.on_receive([&](const net::Packet& p) {
    rx_seqs.push_back(p.seq());
    rx_times.push_back(sched.now());
  });

  for (std::uint64_t i = 0; i < 10; ++i) {
    Packet p = net::make_udp_packet(a.mac(), b.mac(), a.ip(), b.ip(), 1, 2, 1000);
    p.set_seq(i);
    a.send(std::move(p));
  }
  // The whole burst is represented by a single armed delivery event per
  // link direction, not one event per frame.
  EXPECT_LE(sched.pending_events(), 2u);

  sched.run();
  ASSERT_EQ(rx_seqs.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rx_seqs[i], i);  // FIFO order preserved
    // Serialization spaces deliveries exactly one frame time apart,
    // identical to the per-event scalar model.
    EXPECT_EQ(rx_times[i], static_cast<SimTime>((i + 1) * timeunit::kMillisecond));
  }
  EXPECT_EQ(net.links()[0]->delivered(0), 10u);
}

// --- OpenFlow: one batch vs batches of one -------------------------------------------

struct NullChannel : openflow::ControlChannel {
  void to_controller(openflow::Message) override {}
  bool connected() const override { return true; }
};

/// A controller fake that reacts to the first PacketIn by synchronously
/// installing a flow -- mid-batch, from the switch's point of view. The
/// flow-run cache must notice the table mutation (version bump) and must
/// not serve stale entries.
struct ReactiveChannel : openflow::ControlChannel {
  openflow::OpenFlowSwitch* sw = nullptr;
  openflow::FlowMod mod;
  bool installed = false;

  void to_controller(openflow::Message m) override {
    if (installed || !sw) return;
    if (std::holds_alternative<openflow::PacketIn>(m)) {
      installed = true;
      sw->handle_message(mod);
    }
  }
  bool connected() const override { return true; }
};

TEST(BatchOpenFlow, OneBatchOfSixMatchesSixBatchesOfOne) {
  auto run = [](bool one_batch) {
    EventScheduler sched;
    openflow::OpenFlowSwitch sw{7, sched};
    std::map<std::uint16_t, std::vector<Packet>> tx;
    for (std::uint16_t p : {1, 2}) {
      sw.add_port(p, "eth" + std::to_string(p), MacAddr::from_u64(p),
                  [&tx, p](Packet&& pkt) { tx[p].push_back(std::move(pkt)); });
    }
    sw.connect(std::make_shared<NullChannel>());

    openflow::FlowMod mod;
    mod.match = openflow::Match().in_port(1);
    mod.actions = openflow::output_to(2);
    sw.handle_message(mod);

    if (one_batch) {
      PacketBatch batch(6);
      for (int i = 0; i < 6; ++i) batch.push_back(udp_packet(80));
      sw.receive_batch(1, std::move(batch));
    } else {
      for (int i = 0; i < 6; ++i) push_one(sw, 1, udp_packet(80));
    }

    const auto& table = sw.flow_table();
    return std::tuple{tx[2].size(), table.lookups(), table.matches(),
                      sw.port_stats(1).rx_packets, sw.port_stats(2).tx_packets};
  };

  EXPECT_EQ(run(false), run(true));
  auto [txn, lookups, matches, rx, tx2] = run(true);
  EXPECT_EQ(txn, 6u);
  EXPECT_EQ(lookups, 6u);  // flow-run cache still counts one lookup per packet
  EXPECT_EQ(matches, 6u);
  EXPECT_EQ(rx, 6u);
  EXPECT_EQ(tx2, 6u);
}

TEST(BatchOpenFlow, MidBatchFlowModInvalidatesRunCache) {
  EventScheduler sched;
  openflow::OpenFlowSwitch sw{7, sched};
  std::map<std::uint16_t, std::vector<Packet>> tx;
  for (std::uint16_t p : {1, 2}) {
    sw.add_port(p, "eth" + std::to_string(p), MacAddr::from_u64(p),
                [&tx, p](Packet&& pkt) { tx[p].push_back(std::move(pkt)); });
  }
  auto channel = std::make_shared<ReactiveChannel>();
  channel->sw = &sw;
  channel->mod.match = openflow::Match().in_port(1);
  channel->mod.actions = openflow::output_to(2);
  sw.connect(channel);

  PacketBatch batch(6);
  for (int i = 0; i < 6; ++i) batch.push_back(udp_packet(80));
  sw.receive_batch(1, std::move(batch));

  // Packet 0 misses and triggers the synchronous flow install; packets
  // 1..5 must observe the new table state (the empty-table miss cannot be
  // "cached" and the version guard prevents any stale reuse).
  EXPECT_EQ(sw.packet_ins_sent(), 1u);
  EXPECT_EQ(tx[2].size(), 5u);
}

}  // namespace
}  // namespace escape
