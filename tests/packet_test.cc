// Unit tests for src/packet: header round-trips, checksum correctness,
// malformed-input rejection, frame decode/encode, flow keys, pcap output.
#include <gtest/gtest.h>

#include <algorithm>

#include "packet/checksum.h"
#include "packet/frame.h"
#include "packet/frame_view.h"
#include "packet/headers.h"
#include "packet/pcap.h"
#include "util/rng.h"

namespace gq::pkt {
namespace {

using util::Ipv4Addr;
using util::MacAddr;

TEST(Checksum, KnownVector) {
  // Classic RFC 1071 example data.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(checksum(data), 0xFFFF - ((0x0001 + 0xf203 + 0xf4f5 + 0xf6f7) %
                                      0xFFFF));
}

TEST(Checksum, OddLengthPadded) {
  const std::uint8_t data[] = {0xAB};
  EXPECT_EQ(checksum(data), static_cast<std::uint16_t>(~0xAB00u));
}

TEST(Checksum, WordAtATimeMatchesScalarReference) {
  // The shipping checksum accumulates 64 bits at a time; the byte-pair
  // scalar version is kept as the oracle. Exercise every length residue
  // (mod 8) and varied contents, including carry-heavy 0xFF runs.
  util::Rng rng(0xC5C5);
  for (std::size_t len = 0; len <= 64; ++len) {
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(checksum(data), checksum_reference(data)) << "len=" << len;
  }
  for (const std::size_t len : {65u, 511u, 512u, 513u, 1459u, 1460u}) {
    std::vector<std::uint8_t> random(len), ones(len, 0xFF), zero(len, 0x00);
    for (auto& b : random) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(checksum(random), checksum_reference(random)) << len;
    EXPECT_EQ(checksum(ones), checksum_reference(ones)) << len;
    EXPECT_EQ(checksum(zero), checksum_reference(zero)) << len;
  }
}

TEST(Checksum, IncrementalUpdateMatchesRecompute) {
  // RFC 1624 eqn. 3: patch one 16-bit word and update the checksum
  // incrementally; must equal a full recompute over the new buffer.
  util::Rng rng(0x1624);
  std::vector<std::uint8_t> data(40);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint16_t before = checksum(data);
    const std::size_t at = (rng.next() % (data.size() / 2)) * 2;
    const std::uint16_t old_word =
        static_cast<std::uint16_t>((data[at] << 8) | data[at + 1]);
    const std::uint16_t new_word = static_cast<std::uint16_t>(rng.next());
    data[at] = static_cast<std::uint8_t>(new_word >> 8);
    data[at + 1] = static_cast<std::uint8_t>(new_word);
    const std::uint16_t updated =
        checksum_update(before, old_word, new_word);
    // Compare in sum-space: 0x0000 and 0xFFFF encode the same
    // one's-complement sum, and real headers never sum to it anyway.
    const std::uint16_t full = checksum(data);
    const bool equal = updated == full ||
                       (updated == 0xFFFF && full == 0) ||
                       (updated == 0 && full == 0xFFFF);
    EXPECT_TRUE(equal) << "trial " << trial << ": incremental 0x"
                       << std::hex << updated << " vs full 0x" << full;
  }
}

TEST(Checksum, ZeroOverValidPacket) {
  // A buffer whose stored checksum is correct sums to zero.
  Ipv4Packet ip;
  ip.src = Ipv4Addr(10, 0, 0, 1);
  ip.dst = Ipv4Addr(10, 0, 0, 2);
  ip.protocol = kProtoTcp;
  auto bytes = serialize_ipv4(ip);
  EXPECT_EQ(checksum(std::span(bytes).subspan(0, 20)), 0);
}

TEST(Ipv4, RoundTrip) {
  Ipv4Packet ip;
  ip.src = Ipv4Addr(192, 168, 1, 1);
  ip.dst = Ipv4Addr(8, 8, 8, 8);
  ip.protocol = kProtoUdp;
  ip.ttl = 17;
  ip.ident = 0x4242;
  ip.payload = {1, 2, 3, 4, 5};
  auto bytes = serialize_ipv4(ip);
  auto parsed = parse_ipv4(bytes);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->src, ip.src);
  EXPECT_EQ(parsed->dst, ip.dst);
  EXPECT_EQ(parsed->protocol, kProtoUdp);
  EXPECT_EQ(parsed->ttl, 17);
  EXPECT_EQ(parsed->ident, 0x4242);
  EXPECT_EQ(parsed->payload, ip.payload);
}

TEST(Ipv4, CorruptChecksumRejected) {
  Ipv4Packet ip;
  ip.src = Ipv4Addr(1, 1, 1, 1);
  ip.dst = Ipv4Addr(2, 2, 2, 2);
  auto bytes = serialize_ipv4(ip);
  bytes[10] ^= 0xFF;
  EXPECT_FALSE(parse_ipv4(bytes));
  EXPECT_TRUE(parse_ipv4(bytes, /*verify_checksum=*/false));
}

TEST(Ipv4, TruncatedRejected) {
  Ipv4Packet ip;
  ip.src = Ipv4Addr(1, 1, 1, 1);
  ip.dst = Ipv4Addr(2, 2, 2, 2);
  ip.payload = {9, 9, 9};
  auto bytes = serialize_ipv4(ip);
  bytes.resize(10);
  EXPECT_FALSE(parse_ipv4(bytes));
}

TEST(Tcp, RoundTrip) {
  const Ipv4Addr src(10, 0, 0, 23), dst(192, 150, 187, 12);
  TcpSegment tcp;
  tcp.src_port = 1234;
  tcp.dst_port = 80;
  tcp.seq = 0xAABBCCDD;
  tcp.ack = 0x11223344;
  tcp.flags = kTcpSyn | kTcpAck;
  tcp.window = 4096;
  tcp.payload = {'G', 'E', 'T'};
  auto bytes = serialize_tcp(src, dst, tcp);
  auto parsed = parse_tcp(src, dst, bytes);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->src_port, 1234);
  EXPECT_EQ(parsed->dst_port, 80);
  EXPECT_EQ(parsed->seq, 0xAABBCCDDu);
  EXPECT_EQ(parsed->ack, 0x11223344u);
  EXPECT_TRUE(parsed->syn());
  EXPECT_TRUE(parsed->has_ack());
  EXPECT_FALSE(parsed->fin());
  EXPECT_EQ(parsed->window, 4096);
  EXPECT_EQ(parsed->payload, tcp.payload);
}

TEST(Tcp, ChecksumBindsAddresses) {
  // A segment is only valid for the address pair it was built with —
  // this is what forces the gateway to recompute checksums when NATing.
  const Ipv4Addr src(10, 0, 0, 23), dst(192, 150, 187, 12);
  TcpSegment tcp;
  tcp.src_port = 1;
  tcp.dst_port = 2;
  auto bytes = serialize_tcp(src, dst, tcp);
  EXPECT_TRUE(parse_tcp(src, dst, bytes));
  EXPECT_FALSE(parse_tcp(src, Ipv4Addr(9, 9, 9, 9), bytes));
}

TEST(Udp, RoundTrip) {
  const Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
  UdpDatagram udp;
  udp.src_port = 5353;
  udp.dst_port = 53;
  udp.payload = {0xDE, 0xAD};
  auto bytes = serialize_udp(src, dst, udp);
  auto parsed = parse_udp(src, dst, bytes);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->src_port, 5353);
  EXPECT_EQ(parsed->dst_port, 53);
  EXPECT_EQ(parsed->payload, udp.payload);
}

TEST(Udp, BadChecksumRejected) {
  const Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
  UdpDatagram udp;
  udp.payload = {1};
  auto bytes = serialize_udp(src, dst, udp);
  bytes.back() ^= 0x55;
  EXPECT_FALSE(parse_udp(src, dst, bytes));
}

TEST(Arp, RoundTrip) {
  ArpMessage arp;
  arp.op = ArpMessage::Op::kReply;
  arp.sender_mac = MacAddr::local(1);
  arp.sender_ip = Ipv4Addr(10, 0, 0, 1);
  arp.target_mac = MacAddr::local(2);
  arp.target_ip = Ipv4Addr(10, 0, 0, 2);
  auto bytes = serialize_arp(arp);
  EXPECT_EQ(bytes.size(), 28u);
  auto parsed = parse_arp(bytes);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->op, ArpMessage::Op::kReply);
  EXPECT_EQ(parsed->sender_ip, arp.sender_ip);
  EXPECT_EQ(parsed->target_mac, arp.target_mac);
}

TEST(Icmp, RoundTrip) {
  IcmpMessage icmp;
  icmp.type = 8;  // Echo request.
  icmp.ident = 77;
  icmp.sequence = 3;
  icmp.payload = {0xCA, 0xFE};
  auto bytes = serialize_icmp(icmp);
  auto parsed = parse_icmp(bytes);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, 8);
  EXPECT_EQ(parsed->ident, 77);
  EXPECT_EQ(parsed->payload, icmp.payload);
}

TEST(Eth, UntaggedRoundTrip) {
  EthHeader eth;
  eth.dst = MacAddr::broadcast();
  eth.src = MacAddr::local(5);
  eth.ethertype = kEtherTypeIpv4;
  std::vector<std::uint8_t> payload = {1, 2, 3};
  auto bytes = serialize_eth(eth, payload);
  EXPECT_EQ(bytes.size(), 17u);
  std::span<const std::uint8_t> rest;
  auto parsed = parse_eth(bytes, &rest);
  ASSERT_TRUE(parsed);
  EXPECT_FALSE(parsed->vlan);
  EXPECT_EQ(parsed->ethertype, kEtherTypeIpv4);
  EXPECT_EQ(rest.size(), 3u);
}

TEST(Eth, VlanTagRoundTrip) {
  EthHeader eth;
  eth.dst = MacAddr::local(1);
  eth.src = MacAddr::local(2);
  eth.vlan = 42;
  eth.ethertype = kEtherTypeIpv4;
  auto bytes = serialize_eth(eth, {});
  EXPECT_EQ(bytes.size(), 18u);
  auto parsed = parse_eth(bytes, nullptr);
  ASSERT_TRUE(parsed);
  ASSERT_TRUE(parsed->vlan);
  EXPECT_EQ(*parsed->vlan, 42);
  EXPECT_EQ(parsed->ethertype, kEtherTypeIpv4);
}

TEST(Frame, DecodeEncodeTcp) {
  DecodedFrame f;
  f.eth.dst = MacAddr::local(1);
  f.eth.src = MacAddr::local(2);
  f.eth.vlan = 16;
  f.eth.ethertype = kEtherTypeIpv4;
  f.ip = Ipv4Packet{};
  f.ip->src = Ipv4Addr(10, 0, 0, 23);
  f.ip->dst = Ipv4Addr(192, 150, 187, 12);
  f.tcp = TcpSegment{};
  f.tcp->src_port = 1234;
  f.tcp->dst_port = 80;
  f.tcp->flags = kTcpSyn;

  auto bytes = f.encode();
  auto decoded = decode_frame(bytes);
  ASSERT_TRUE(decoded);
  ASSERT_TRUE(decoded->tcp);
  EXPECT_EQ(decoded->eth.vlan, 16);
  EXPECT_EQ(decoded->tcp->dst_port, 80);
  EXPECT_TRUE(decoded->tcp->syn());

  // Mutate-and-reencode (what the gateway's NAT does) keeps it parseable.
  decoded->ip->src = Ipv4Addr(7, 7, 7, 7);
  decoded->tcp->seq += 24;
  auto re = decode_frame(decoded->encode());
  ASSERT_TRUE(re);
  EXPECT_EQ(re->ip->src.str(), "7.7.7.7");
}

TEST(Frame, FlowKeyAndReverse) {
  DecodedFrame f;
  f.eth.ethertype = kEtherTypeIpv4;
  f.ip = Ipv4Packet{};
  f.ip->src = Ipv4Addr(10, 0, 0, 23);
  f.ip->dst = Ipv4Addr(1, 2, 3, 4);
  f.udp = UdpDatagram{};
  f.udp->src_port = 9999;
  f.udp->dst_port = 53;
  auto key = flow_key_of(f);
  ASSERT_TRUE(key);
  EXPECT_EQ(key->proto, FlowProto::kUdp);
  EXPECT_EQ(key->src.port, 9999);
  auto rev = key->reversed();
  EXPECT_EQ(rev.src.port, 53);
  EXPECT_EQ(rev.dst.addr, f.ip->src);
  EXPECT_EQ(rev.reversed(), *key);
}

TEST(Frame, NonIpHasNoFlowKey) {
  DecodedFrame f;
  f.eth.ethertype = kEtherTypeArp;
  f.arp = ArpMessage{};
  EXPECT_FALSE(flow_key_of(f));
}

// The one-buffer encoders against the serialize_* chain they replace on
// the data path, which stays as the reference (like checksum_reference).
struct RandomFrame {
  EthHeader eth;
  Ipv4Header ip;
  TcpSegment tcp;
  UdpDatagram udp;
};

RandomFrame random_frame(util::Rng& rng, std::size_t payload_len) {
  RandomFrame f;
  auto mac = [&] {
    std::array<std::uint8_t, 6> b;
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
    return MacAddr(b);
  };
  f.eth.dst = mac();
  f.eth.src = mac();
  // Any 16-bit value: the tag keeps the low 12 bits, as serialize_eth.
  if (rng.chance(0.5)) f.eth.vlan = static_cast<std::uint16_t>(rng.next());
  f.eth.ethertype = kEtherTypeIpv4;
  f.ip.src = Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
  f.ip.dst = Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
  f.ip.ttl = static_cast<std::uint8_t>(rng.next());
  f.ip.ident = static_cast<std::uint16_t>(rng.next());
  std::vector<std::uint8_t> payload(payload_len);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  f.tcp.src_port = static_cast<std::uint16_t>(rng.next());
  f.tcp.dst_port = static_cast<std::uint16_t>(rng.next());
  f.tcp.seq = static_cast<std::uint32_t>(rng.next());
  f.tcp.ack = static_cast<std::uint32_t>(rng.next());
  f.tcp.flags = static_cast<std::uint8_t>(rng.next());
  f.tcp.window = static_cast<std::uint16_t>(rng.next());
  f.tcp.payload = payload;
  f.udp.src_port = static_cast<std::uint16_t>(rng.next());
  f.udp.dst_port = static_cast<std::uint16_t>(rng.next());
  f.udp.payload = std::move(payload);
  return f;
}

std::vector<std::uint8_t> reference_frame(const RandomFrame& f,
                                          std::uint8_t protocol) {
  Ipv4Packet ip{f.ip.src, f.ip.dst, protocol, f.ip.ttl, f.ip.ident, {}};
  ip.payload = protocol == kProtoTcp ? serialize_tcp(ip.src, ip.dst, f.tcp)
                                     : serialize_udp(ip.src, ip.dst, f.udp);
  return serialize_eth(f.eth, serialize_ipv4(ip));
}

DecodedFrame decoded_of(const RandomFrame& f, std::uint8_t protocol) {
  DecodedFrame d;
  d.eth = f.eth;
  d.ip = Ipv4Packet{f.ip.src, f.ip.dst, 0, f.ip.ttl, f.ip.ident, {}};
  if (protocol == kProtoTcp) {
    d.tcp = f.tcp;
  } else {
    d.udp = f.udp;
  }
  return d;
}

TEST(FrameEncoder, MatchesSerializeChainOnRandomFrames) {
  util::Rng rng(0xE2C0DE);
  std::size_t tagged = 0;
  for (int i = 0; i < 600; ++i) {
    const std::size_t len = i == 0 ? 0 : i == 1 ? 1460 : rng.below(1461);
    const RandomFrame f = random_frame(rng, len);
    tagged += f.eth.vlan.has_value();

    const auto tcp = encode_tcp_frame(f.eth, f.ip, TcpSegmentView::of(f.tcp));
    ASSERT_EQ(tcp, reference_frame(f, kProtoTcp)) << "i=" << i;
    EXPECT_GE(tcp.capacity(), tcp.size() + kVlanHeadroom);
    EXPECT_EQ(decoded_of(f, kProtoTcp).encode(), tcp) << "i=" << i;

    const auto udp = encode_udp_frame(f.eth, f.ip, f.udp.src_port,
                                      f.udp.dst_port, f.udp.payload);
    ASSERT_EQ(udp, reference_frame(f, kProtoUdp)) << "i=" << i;
    EXPECT_GE(udp.capacity(), udp.size() + kVlanHeadroom);
    EXPECT_EQ(decoded_of(f, kProtoUdp).encode(), udp) << "i=" << i;

    // The receive side reads both back in place, payload included.
    const auto tcp_view = ConstFrameView::parse(tcp, ViewVerify::kFull);
    ASSERT_TRUE(tcp_view);
    EXPECT_TRUE(std::ranges::equal(tcp_view->payload(), f.tcp.payload));
    EXPECT_EQ(tcp_view->tcp_window(), f.tcp.window);
    const auto udp_view = ConstFrameView::parse(udp, ViewVerify::kFull);
    ASSERT_TRUE(udp_view);
    EXPECT_TRUE(std::ranges::equal(udp_view->payload(), f.udp.payload));
  }
  EXPECT_GT(tagged, 200u);
  EXPECT_LT(tagged, 400u);
}

TEST(FrameEncoder, UdpChecksumFoldingToZeroIsSentAsFfff) {
  util::Rng rng(0xFFFF);
  for (int i = 0; i < 50; ++i) {
    // Even payload length, so the last payload word is 16-bit aligned in
    // the checksummed segment. Setting that word to the checksum computed
    // with it zero makes the real checksum zero (the verification rule).
    RandomFrame f = random_frame(rng, 2 * (1 + rng.below(700)));
    auto& payload = f.udp.payload;
    payload[payload.size() - 2] = 0;
    payload[payload.size() - 1] = 0;
    std::vector<std::uint8_t> segment = {
        static_cast<std::uint8_t>(f.udp.src_port >> 8),
        static_cast<std::uint8_t>(f.udp.src_port),
        static_cast<std::uint8_t>(f.udp.dst_port >> 8),
        static_cast<std::uint8_t>(f.udp.dst_port),
        static_cast<std::uint8_t>((8 + payload.size()) >> 8),
        static_cast<std::uint8_t>(8 + payload.size()),
        0, 0};
    segment.insert(segment.end(), payload.begin(), payload.end());
    const std::uint16_t zeroed = l4_checksum(f.ip.src, f.ip.dst, kProtoUdp,
                                             segment);
    payload[payload.size() - 2] = static_cast<std::uint8_t>(zeroed >> 8);
    payload[payload.size() - 1] = static_cast<std::uint8_t>(zeroed);

    const auto udp = encode_udp_frame(f.eth, f.ip, f.udp.src_port,
                                      f.udp.dst_port, payload);
    ASSERT_EQ(udp, reference_frame(f, kProtoUdp)) << "i=" << i;
    const std::size_t csum_at = (f.eth.vlan ? 18 : 14) + 20 + 6;
    EXPECT_EQ(udp[csum_at], 0xFF);
    EXPECT_EQ(udp[csum_at + 1], 0xFF);
    EXPECT_EQ(decoded_of(f, kProtoUdp).encode(), udp);
  }
}

TEST(Pcap, HeaderAndRecords) {
  PcapWriter pcap;
  std::vector<std::uint8_t> frame(60, 0xAA);
  pcap.record(util::TimePoint{1'500'000}, frame);
  pcap.record(util::TimePoint{2'000'001}, frame);
  EXPECT_EQ(pcap.packet_count(), 2u);
  auto bytes = pcap.contents();
  ASSERT_EQ(bytes.size(), 24u + 2 * (16 + 60));
  // Magic, little-endian.
  EXPECT_EQ(bytes[0], 0xD4);
  EXPECT_EQ(bytes[1], 0xC3);
  EXPECT_EQ(bytes[2], 0xB2);
  EXPECT_EQ(bytes[3], 0xA1);
  // First record timestamp: 1 s, 500000 µs.
  EXPECT_EQ(bytes[24], 1);
  const std::uint32_t usec = bytes[28] | (bytes[29] << 8) |
                             (bytes[30] << 16) |
                             (static_cast<std::uint32_t>(bytes[31]) << 24);
  EXPECT_EQ(usec, 500'000u);
}

}  // namespace
}  // namespace gq::pkt
