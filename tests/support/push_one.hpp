// push_one: feeds a single packet into the data plane's batch-only entry
// points. A packet enters a Click element, a FromDevice or an OpenFlow
// switch as a batch of one -- the reference decomposition that every
// other batching must match -- so a test that drives packets one at a
// time runs exactly the code an emulated link drives.
#pragma once

#include <cstdint>
#include <utility>

#include "click/elements.hpp"
#include "net/packet_batch.hpp"
#include "openflow/switch.hpp"

namespace escape::testing {

/// Pushes `p` into input `port` of `element`.
inline void push_one(click::Element* element, int port, net::Packet&& p) {
  element->push_batch(port, net::PacketBatch::of(std::move(p)));
}

/// Injects `p` into the graph behind `from`.
inline void push_one(click::FromDevice* from, net::Packet&& p) {
  from->inject_batch(net::PacketBatch::of(std::move(p)));
}

/// Hands `p` to the datapath of `sw` on port `port_no`.
inline void push_one(openflow::OpenFlowSwitch& sw, std::uint16_t port_no, net::Packet&& p) {
  sw.receive_batch(port_no, net::PacketBatch::of(std::move(p)));
}

}  // namespace escape::testing
