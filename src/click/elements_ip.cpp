// IPv4 processing elements.
#include "click/elements.hpp"
#include "click/router.hpp"
#include "net/headers.hpp"
#include "util/strings.hpp"

namespace escape::click {

// --- CheckIPHeader ------------------------------------------------------------

CheckIPHeader::CheckIPHeader() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("drops", [this] { return std::to_string(drops_); });
}

namespace {

bool valid_ipv4_header(const Packet& p) {
  auto eth = net::EthernetView::parse(p.bytes());
  if (!eth || eth->ethertype != net::ethertype::kIpv4) return false;
  auto ip = net::Ipv4View::parse(eth->payload);
  return ip && net::Ipv4View::verify_checksum(eth->payload) &&
         ip->total_length >= ip->header_len() && ip->total_length <= eth->payload.size();
}

}  // namespace

void CheckIPHeader::push_batch(int, PacketBatch&& batch) {
  RunEmitter out(*this, batch);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (valid_ipv4_header(out[i])) {
      out.keep(i, 0);
    } else {
      ++drops_;
      if (output_connected(1)) out.keep(i, 1);
    }
  }
}

// --- DecIPTTL ------------------------------------------------------------------

DecIPTTL::DecIPTTL() {
  declare_ports({PortMode::kPush}, {PortMode::kPush, PortMode::kPush});
  add_read_handler("expired", [this] { return std::to_string(expired_); });
}

void DecIPTTL::push_batch(int, PacketBatch&& batch) {
  RunEmitter out(*this, batch);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (net::dec_ipv4_ttl(out[i])) {
      out.keep(i, 0);
    } else {
      ++expired_;
      if (output_connected(1)) out.keep(i, 1);
    }
  }
}

// --- SetIPDSCP -------------------------------------------------------------------

Status SetIPDSCP::configure(const ConfigArgs& args) {
  if (auto v = args.keyword_or_positional("DSCP", 0)) {
    auto d = strings::parse_u64(*v);
    if (!d || *d > 63) return make_error("click.config.bad-arg", "DSCP must be 0..63");
    dscp_ = static_cast<std::uint8_t>(*d);
  }
  return ok_status();
}

SetIPDSCP::Verdict SetIPDSCP::process(Packet& p) {
  net::set_ipv4_dscp(p, dscp_);
  return {true, 0};
}

// --- IPRewriter ------------------------------------------------------------------

Status IPRewriter::configure(const ConfigArgs& args) {
  if (auto v = args.keyword("SRC_IP")) {
    auto a = net::Ipv4Addr::parse(*v);
    if (!a) return make_error("click.config.bad-arg", "invalid SRC_IP: " + *v);
    src_ip_ = *a;
  }
  if (auto v = args.keyword("DST_IP")) {
    auto a = net::Ipv4Addr::parse(*v);
    if (!a) return make_error("click.config.bad-arg", "invalid DST_IP: " + *v);
    dst_ip_ = *a;
  }
  if (auto v = args.keyword_u64("SRC_PORT")) src_port_ = static_cast<std::uint16_t>(*v);
  if (auto v = args.keyword_u64("DST_PORT")) dst_port_ = static_cast<std::uint16_t>(*v);
  if (auto v = args.keyword("SRC_ETH")) {
    auto m = net::MacAddr::parse(*v);
    if (!m) return make_error("click.config.bad-arg", "invalid SRC_ETH: " + *v);
    src_eth_ = *m;
  }
  if (auto v = args.keyword("DST_ETH")) {
    auto m = net::MacAddr::parse(*v);
    if (!m) return make_error("click.config.bad-arg", "invalid DST_ETH: " + *v);
    dst_eth_ = *m;
  }
  return ok_status();
}

IPRewriter::Verdict IPRewriter::process(Packet& p) {
  if (src_ip_) net::set_ipv4_src(p, *src_ip_);
  if (dst_ip_) net::set_ipv4_dst(p, *dst_ip_);
  if (src_port_) net::set_l4_src_port(p, *src_port_);
  if (dst_port_) net::set_l4_dst_port(p, *dst_port_);
  if (src_eth_) net::set_eth_src(p, *src_eth_);
  if (dst_eth_) net::set_eth_dst(p, *dst_eth_);
  return {true, 0};
}

}  // namespace escape::click
