// PacketBatch: a small contiguous run of packets moved through the data
// plane as one unit, and the only unit a push hop accepts (Click
// elements, netemu nodes, OpenFlow switches). Batching amortizes the
// per-packet virtual dispatch and scheduler cost of every hop without
// changing what each packet experiences: a batch is only ever a *window*
// onto a packet sequence, and any decomposition of that sequence into
// batches gives the same delivery order, annotations and timestamps as
// batches of one (the determinism guarantee documented in DESIGN.md
// "Batched data plane").
//
// Batches are move-only; duplicating the packets of a batch (Tee-style
// fan-out) must go through clone(), which counts every deep copy in
// stats::packet_clones() so fan-out cost stays observable.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace escape::net {

class PacketBatch {
 public:
  /// Default burst size used by batch-mode drivers (FastClick uses 32).
  static constexpr std::size_t kDefaultBurst = 32;

  PacketBatch() = default;
  explicit PacketBatch(std::size_t reserve_hint) { packets_.reserve(reserve_hint); }

  PacketBatch(PacketBatch&&) = default;
  PacketBatch& operator=(PacketBatch&&) = default;
  PacketBatch(const PacketBatch&) = delete;
  PacketBatch& operator=(const PacketBatch&) = delete;

  /// A batch of one: how a single packet enters a push hop (a source's
  /// lone packet, a Delay release, FromDevice::inject).
  static PacketBatch of(Packet&& p) {
    PacketBatch b(1);
    b.push_back(std::move(p));
    return b;
  }

  void push_back(Packet&& p) { packets_.push_back(std::move(p)); }

  std::size_t size() const { return packets_.size(); }
  bool empty() const { return packets_.empty(); }
  void clear() { packets_.clear(); }
  void reserve(std::size_t n) { packets_.reserve(n); }

  Packet& operator[](std::size_t i) { return packets_[i]; }
  const Packet& operator[](std::size_t i) const { return packets_[i]; }
  Packet& front() { return packets_.front(); }
  Packet& back() { return packets_.back(); }

  std::vector<Packet>::iterator begin() { return packets_.begin(); }
  std::vector<Packet>::iterator end() { return packets_.end(); }
  std::vector<Packet>::const_iterator begin() const { return packets_.begin(); }
  std::vector<Packet>::const_iterator end() const { return packets_.end(); }

  /// Sum of the frame sizes, for byte counters.
  std::size_t total_bytes() const {
    std::size_t n = 0;
    for (const auto& p : packets_) n += p.size();
    return n;
  }

  /// Deep-copies every packet; each copy is counted in
  /// stats::packet_clones(). Defined in packet_batch.cpp.
  PacketBatch clone() const;

 private:
  std::vector<Packet> packets_;
};

}  // namespace escape::net
