// Wire-format constants and mutable header representations for the
// protocols GQ's data path speaks: Ethernet (+802.1Q), ARP, IPv4, TCP,
// UDP, ICMP. The gateway parses frames into these structs, rewrites
// fields (NAT, sequence bumping, redirection), and re-serializes; all
// checksums are recomputed on serialization.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/addr.h"

namespace gq::pkt {

// EtherTypes.
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEtherTypeArp = 0x0806;
inline constexpr std::uint16_t kEtherTypeVlan = 0x8100;

// IPv4 protocol numbers.
inline constexpr std::uint8_t kProtoIcmp = 1;
inline constexpr std::uint8_t kProtoTcp = 6;
inline constexpr std::uint8_t kProtoUdp = 17;

// TCP flag bits.
inline constexpr std::uint8_t kTcpFin = 0x01;
inline constexpr std::uint8_t kTcpSyn = 0x02;
inline constexpr std::uint8_t kTcpRst = 0x04;
inline constexpr std::uint8_t kTcpPsh = 0x08;
inline constexpr std::uint8_t kTcpAck = 0x10;

/// Ethernet header; `vlan` present iff the frame carries an 802.1Q tag.
/// GQ identifies inmates by VLAN ID (§5.2), so the tag is first-class.
struct EthHeader {
  util::MacAddr dst;
  util::MacAddr src;
  std::optional<std::uint16_t> vlan;  // 12-bit VID.
  std::uint16_t ethertype = 0;        // Inner ethertype (after any tag).
};

/// ARP request/reply (IPv4 over Ethernet only).
struct ArpMessage {
  enum class Op : std::uint16_t { kRequest = 1, kReply = 2 };
  Op op = Op::kRequest;
  util::MacAddr sender_mac;
  util::Ipv4Addr sender_ip;
  util::MacAddr target_mac;
  util::Ipv4Addr target_ip;
};

/// The IPv4 header fields a frame encoder takes; the rest is fixed
/// (IHL 5, DSCP/ECN 0, never fragmented, protocol from the L4 arm).
struct Ipv4Header {
  util::Ipv4Addr src;
  util::Ipv4Addr dst;
  std::uint8_t ttl = 64;
  std::uint16_t ident = 0;
};

/// IPv4 header (no options) + payload ownership.
struct Ipv4Packet {
  util::Ipv4Addr src;
  util::Ipv4Addr dst;
  std::uint8_t protocol = 0;
  std::uint8_t ttl = 64;
  std::uint16_t ident = 0;
  std::vector<std::uint8_t> payload;
};

/// TCP segment (header without options + payload).
struct TcpSegment {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;
  std::vector<std::uint8_t> payload;

  [[nodiscard]] bool syn() const { return flags & kTcpSyn; }
  [[nodiscard]] bool fin() const { return flags & kTcpFin; }
  [[nodiscard]] bool rst() const { return flags & kTcpRst; }
  [[nodiscard]] bool has_ack() const { return flags & kTcpAck; }
};

/// A TCP segment whose payload is borrowed: a received segment aliasing
/// the frame it arrived in, or an outgoing one aliasing its sender's
/// buffer until the frame encoder copies it out.
struct TcpSegmentView {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;
  std::span<const std::uint8_t> payload;

  /// A view of `seg`, valid while `seg` is.
  static TcpSegmentView of(const TcpSegment& seg) {
    return {seg.src_port, seg.dst_port, seg.seq,    seg.ack,
            seg.flags,    seg.window,   seg.payload};
  }

  [[nodiscard]] bool syn() const { return flags & kTcpSyn; }
  [[nodiscard]] bool fin() const { return flags & kTcpFin; }
  [[nodiscard]] bool rst() const { return flags & kTcpRst; }
  [[nodiscard]] bool has_ack() const { return flags & kTcpAck; }
};

/// UDP datagram.
struct UdpDatagram {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::vector<std::uint8_t> payload;
};

/// ICMP message (echo and unreachable are what the farm uses).
struct IcmpMessage {
  std::uint8_t type = 0;
  std::uint8_t code = 0;
  std::uint16_t ident = 0;
  std::uint16_t sequence = 0;
  std::vector<std::uint8_t> payload;
};

// --- Serialization -------------------------------------------------------

/// Serialize an Ethernet frame: header (+optional 802.1Q tag) + payload.
std::vector<std::uint8_t> serialize_eth(const EthHeader& eth,
                                        std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> serialize_arp(const ArpMessage& arp);

/// Serialize IPv4 header + payload with correct header checksum.
std::vector<std::uint8_t> serialize_ipv4(const Ipv4Packet& ip);

/// Serialize a TCP segment with a correct pseudo-header checksum; the
/// src/dst addresses are those of the enclosing IPv4 packet. The
/// serialize_eth(serialize_ipv4(serialize_tcp|udp(...))) chain is the
/// reference the one-buffer encoders in packet/frame.h are tested
/// against; the data path encodes TCP and UDP frames through those.
std::vector<std::uint8_t> serialize_tcp(util::Ipv4Addr src, util::Ipv4Addr dst,
                                        const TcpSegment& tcp);

std::vector<std::uint8_t> serialize_udp(util::Ipv4Addr src, util::Ipv4Addr dst,
                                        const UdpDatagram& udp);

std::vector<std::uint8_t> serialize_icmp(const IcmpMessage& icmp);

// --- Parsing -------------------------------------------------------------
// Parsers return nullopt on truncated or malformed input; checksums are
// verified where `verify_checksums` is requested (the simulator always
// produces valid checksums, but the gateway verifies defensively).

std::optional<EthHeader> parse_eth(std::span<const std::uint8_t> frame,
                                   std::span<const std::uint8_t>* payload);

std::optional<ArpMessage> parse_arp(std::span<const std::uint8_t> data);

std::optional<Ipv4Packet> parse_ipv4(std::span<const std::uint8_t> data,
                                     bool verify_checksum = true);

std::optional<TcpSegment> parse_tcp(util::Ipv4Addr src, util::Ipv4Addr dst,
                                    std::span<const std::uint8_t> data,
                                    bool verify_checksum = true);

std::optional<UdpDatagram> parse_udp(util::Ipv4Addr src, util::Ipv4Addr dst,
                                     std::span<const std::uint8_t> data,
                                     bool verify_checksum = true);

std::optional<IcmpMessage> parse_icmp(std::span<const std::uint8_t> data);

}  // namespace gq::pkt
