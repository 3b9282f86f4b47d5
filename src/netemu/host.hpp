// Emulated end host: the Service Access Point (SAP) of a service chain.
// Hosts answer ARP, source measurable UDP traffic flows and sink
// everything addressed to them, recording loss and latency.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/builder.hpp"
#include "netemu/node.hpp"
#include "obs/metrics.hpp"

namespace escape::netemu {

class Host : public Node {
 public:
  Host(std::string name, EventScheduler& scheduler, net::MacAddr mac, net::Ipv4Addr ip);

  NodeKind kind() const override { return NodeKind::kHost; }
  net::MacAddr mac() const { return mac_; }
  net::Ipv4Addr ip() const { return ip_; }

  void deliver_batch(std::uint16_t port, net::PacketBatch&& batch) override;

  /// Receives one frame: the per-frame body of deliver_batch, public so
  /// endpoint cost can be measured without a link.
  void deliver(std::uint16_t port, net::Packet&& packet);

  /// Sends a raw frame out of port 0 (hosts are single-homed).
  void send(net::Packet&& packet);

  /// Starts a UDP flow toward `dst`: `count` frames of `frame_size`
  /// bytes at `rate_pps`. Frames carry sequence numbers and timestamps.
  /// Each call starts an independent flow; earlier flows keep running.
  void start_udp_flow(net::MacAddr dst_mac, net::Ipv4Addr dst_ip, std::uint16_t sport,
                      std::uint16_t dport, std::uint64_t count, std::uint64_t rate_pps,
                      std::size_t frame_size = 98);

  /// Sends one ICMP echo request ("ping"). The peer's reply carries the
  /// request timestamp back, so latency_us() of the replies measures
  /// round-trip time.
  void send_ping(net::MacAddr dst_mac, net::Ipv4Addr dst_ip, std::uint16_t sequence);

  /// Echo requests this host answered.
  std::uint64_t echo_requests_served() const { return echo_requests_; }

  /// Registers an observer for every delivered frame (after internal
  /// accounting). Multiple observers allowed.
  void on_receive(std::function<void(const net::Packet&)> fn) {
    observers_.push_back(std::move(fn));
  }

  // --- measurement (the "standard tools to send and inspect live
  // traffic" of demo step 4) ------------------------------------------------

  std::uint64_t rx_packets() const { return rx_packets_; }
  std::uint64_t rx_bytes() const { return rx_bytes_; }
  std::uint64_t tx_packets() const { return tx_packets_; }

  /// One-way latency of received timestamped frames, in microseconds.
  /// Bounded-memory histogram: count/mean/min/max exact, percentiles
  /// bucket estimates (see obs/metrics.hpp).
  const obs::BoundedHistogram& latency_us() const { return latency_us_; }

  /// Highest sequence number seen + 1 (0 when none), for loss estimation.
  std::uint64_t max_seq_seen() const { return max_seq_seen_; }

  void reset_counters();

 private:
  // One UDP flow's generator state, owned by the flow's timer chain:
  // every send event moves it into the next.
  struct UdpFlow {
    std::uint64_t remaining = 0;
    std::uint64_t seq = 0;
    SimDuration gap = 0;
    // Prototype frame: headers encoded once, copied into pooled buffers.
    net::Packet proto;
  };
  void send_flow_packet(std::unique_ptr<UdpFlow> flow);

  net::MacAddr mac_;
  net::Ipv4Addr ip_;

  std::uint64_t rx_packets_ = 0;
  std::uint64_t rx_bytes_ = 0;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t max_seq_seen_ = 0;
  std::uint64_t echo_requests_ = 0;
  // Per-instance histogram (authoritative for tests/benches); the
  // registry mirrors below feed the process-wide view.
  obs::BoundedHistogram latency_us_;
  obs::Counter* m_rx_packets_;
  obs::Counter* m_rx_bytes_;
  obs::Counter* m_tx_packets_;
  obs::BoundedHistogram* m_latency_us_;
  std::vector<std::function<void(const net::Packet&)>> observers_;
};

}  // namespace escape::netemu
