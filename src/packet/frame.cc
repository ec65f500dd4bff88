#include "packet/frame.h"

#include <cstring>

#include "packet/checksum.h"
#include "util/strings.h"

namespace gq::pkt {

std::uint16_t DecodedFrame::src_port() const {
  if (tcp) return tcp->src_port;
  if (udp) return udp->src_port;
  return 0;
}

std::uint16_t DecodedFrame::dst_port() const {
  if (tcp) return tcp->dst_port;
  if (udp) return udp->dst_port;
  return 0;
}

std::vector<std::uint8_t> DecodedFrame::encode() const {
  if (arp) return serialize_eth(eth, serialize_arp(*arp));
  if (ip) {
    const Ipv4Header header{ip->src, ip->dst, ip->ttl, ip->ident};
    if (tcp) return encode_tcp_frame(eth, header, TcpSegmentView::of(*tcp));
    if (udp) {
      return encode_udp_frame(eth, header, udp->src_port, udp->dst_port,
                              udp->payload);
    }
    if (icmp) {
      Ipv4Packet copy{ip->src, ip->dst, kProtoIcmp, ip->ttl, ip->ident,
                      serialize_icmp(*icmp)};
      return serialize_eth(eth, serialize_ipv4(copy));
    }
    return serialize_eth(eth, serialize_ipv4(*ip));
  }
  return serialize_eth(eth, {});
}

namespace {

/// Big-endian stores into a buffer already sized for them.
struct Cursor {
  std::uint8_t* p;
  void u8(std::uint8_t v) { *p++ = v; }
  void u16(std::uint16_t v) {
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
    p += 2;
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void mac(const util::MacAddr& m) {
    std::memcpy(p, m.bytes().data(), 6);
    p += 6;
  }
};

/// Starts a frame whose L4 part is an `l4_header`-byte header plus
/// `payload_len` payload bytes: reserves the buffer once for the whole
/// frame plus tag headroom, writes the Ethernet and IPv4 headers (IPv4
/// checksum included), and returns it zero-filled up to the payload.
std::vector<std::uint8_t> start_frame(const EthHeader& eth,
                                      const Ipv4Header& ip,
                                      std::uint8_t protocol,
                                      std::size_t l4_header,
                                      std::size_t payload_len) {
  const std::size_t l3 = eth.vlan ? 18 : 14;
  const std::size_t l4_len = l4_header + payload_len;
  std::vector<std::uint8_t> out;
  out.reserve(l3 + 20 + l4_len + kVlanHeadroom);
  out.resize(l3 + 20 + l4_header);
  Cursor c{out.data()};
  c.mac(eth.dst);
  c.mac(eth.src);
  if (eth.vlan) {
    c.u16(kEtherTypeVlan);
    c.u16(*eth.vlan & 0x0FFF);  // PCP/DEI zero.
  }
  c.u16(eth.ethertype);
  c.u8(0x45);  // Version 4, IHL 5.
  c.u8(0);     // DSCP/ECN.
  c.u16(static_cast<std::uint16_t>(20 + l4_len));
  c.u16(ip.ident);
  c.u16(0);  // Never fragmented.
  c.u8(ip.ttl);
  c.u8(protocol);
  c.u16(0);  // Checksum placeholder.
  c.u32(ip.src.value());
  c.u32(ip.dst.value());
  Cursor{out.data() + l3 + 10}.u16(
      checksum(std::span<const std::uint8_t>(out).subspan(l3, 20)));
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_tcp_frame(const EthHeader& eth,
                                           const Ipv4Header& ip,
                                           const TcpSegmentView& tcp) {
  auto out = start_frame(eth, ip, kProtoTcp, 20, tcp.payload.size());
  const std::size_t l4 = out.size() - 20;
  Cursor c{out.data() + l4};
  c.u16(tcp.src_port);
  c.u16(tcp.dst_port);
  c.u32(tcp.seq);
  c.u32(tcp.ack);
  c.u8(0x50);  // Data offset 5 words, no options.
  c.u8(tcp.flags);
  c.u16(tcp.window);
  // Checksum and urgent pointer stay zero.
  out.insert(out.end(), tcp.payload.begin(), tcp.payload.end());
  Cursor{out.data() + l4 + 16}.u16(
      l4_checksum(ip.src, ip.dst, kProtoTcp,
                  std::span<const std::uint8_t>(out).subspan(l4)));
  return out;
}

std::vector<std::uint8_t> encode_udp_frame(
    const EthHeader& eth, const Ipv4Header& ip, std::uint16_t src_port,
    std::uint16_t dst_port, std::span<const std::uint8_t> payload) {
  auto out = start_frame(eth, ip, kProtoUdp, 8, payload.size());
  const std::size_t l4 = out.size() - 8;
  Cursor c{out.data() + l4};
  c.u16(src_port);
  c.u16(dst_port);
  c.u16(static_cast<std::uint16_t>(8 + payload.size()));
  // Checksum stays zero until computed.
  out.insert(out.end(), payload.begin(), payload.end());
  std::uint16_t csum =
      l4_checksum(ip.src, ip.dst, kProtoUdp,
                  std::span<const std::uint8_t>(out).subspan(l4));
  if (csum == 0) csum = 0xFFFF;  // RFC 768: zero is "no checksum".
  Cursor{out.data() + l4 + 6}.u16(csum);
  return out;
}

std::string DecodedFrame::summary() const {
  if (arp) {
    return util::format(
        "ARP %s %s -> %s",
        arp->op == ArpMessage::Op::kRequest ? "who-has" : "is-at",
        arp->sender_ip.str().c_str(), arp->target_ip.str().c_str());
  }
  if (ip && tcp) {
    std::string flags;
    if (tcp->syn()) flags += 'S';
    if (tcp->fin()) flags += 'F';
    if (tcp->rst()) flags += 'R';
    if (tcp->has_ack()) flags += 'A';
    return util::format("%s:%u > %s:%u TCP %s len=%zu", ip->src.str().c_str(),
                        tcp->src_port, ip->dst.str().c_str(), tcp->dst_port,
                        flags.c_str(), tcp->payload.size());
  }
  if (ip && udp) {
    return util::format("%s:%u > %s:%u UDP len=%zu", ip->src.str().c_str(),
                        udp->src_port, ip->dst.str().c_str(), udp->dst_port,
                        udp->payload.size());
  }
  if (ip) {
    return util::format("%s > %s proto=%u", ip->src.str().c_str(),
                        ip->dst.str().c_str(), ip->protocol);
  }
  return "eth frame";
}

std::optional<DecodedFrame> decode_frame(
    std::span<const std::uint8_t> bytes) {
  std::span<const std::uint8_t> payload;
  auto eth = parse_eth(bytes, &payload);
  if (!eth) return std::nullopt;
  DecodedFrame frame;
  frame.eth = *eth;
  if (eth->ethertype == kEtherTypeArp) {
    frame.arp = parse_arp(payload);
  } else if (eth->ethertype == kEtherTypeIpv4) {
    frame.ip = parse_ipv4(payload);
    if (frame.ip) {
      if (frame.ip->protocol == kProtoTcp) {
        frame.tcp = parse_tcp(frame.ip->src, frame.ip->dst, frame.ip->payload);
      } else if (frame.ip->protocol == kProtoUdp) {
        frame.udp = parse_udp(frame.ip->src, frame.ip->dst, frame.ip->payload);
      } else if (frame.ip->protocol == kProtoIcmp) {
        frame.icmp = parse_icmp(frame.ip->payload);
      }
    }
  }
  return frame;
}

std::string FlowKey::str() const {
  return util::format("%s > %s/%s", src.str().c_str(), dst.str().c_str(),
                      proto == FlowProto::kTcp ? "tcp" : "udp");
}

std::optional<FlowKey> flow_key_of(const DecodedFrame& frame) {
  if (!frame.ip) return std::nullopt;
  if (frame.tcp) {
    return FlowKey{FlowProto::kTcp,
                   {frame.ip->src, frame.tcp->src_port},
                   {frame.ip->dst, frame.tcp->dst_port}};
  }
  if (frame.udp) {
    return FlowKey{FlowProto::kUdp,
                   {frame.ip->src, frame.udp->src_port},
                   {frame.ip->dst, frame.udp->dst_port}};
  }
  return std::nullopt;
}

}  // namespace gq::pkt
