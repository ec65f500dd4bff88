// Tests for the simulator TCP engine and host stack: handshake, data
// transfer, segmentation, teardown, RST behaviour, ARP resolution, UDP,
// and — critically for GQ — survival under packet loss (retransmission)
// and out-of-order delivery, since the gateway performs sequence-space
// surgery on live flows.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/stack.h"
#include "net/tcp.h"
#include "packet/checksum.h"
#include "packet/frame.h"
#include "packet/headers.h"
#include "util/bytes.h"
#include "netsim/event_loop.h"
#include "netsim/vlan_switch.h"
#include "util/addr.h"
#include "util/rng.h"

namespace gq::net {
namespace {

using util::Endpoint;
using util::Ipv4Addr;
using util::Ipv4Net;

// Two hosts wired back-to-back through a switch on one VLAN.
struct TcpFixture : ::testing::Test {
  sim::EventLoop loop;
  sim::VlanSwitch sw{loop, "sw", 2};
  HostStack alice{loop, "alice", util::MacAddr::local(1), 111};
  HostStack bob{loop, "bob", util::MacAddr::local(2), 222};

  void SetUp() override {
    sim::Port::connect(alice.nic(), sw.port(0), util::microseconds(100));
    sim::Port::connect(bob.nic(), sw.port(1), util::microseconds(100));
    sw.set_access(0, 5);
    sw.set_access(1, 5);
    const Ipv4Net net(Ipv4Addr(10, 0, 0, 0), 24);
    alice.configure({Ipv4Addr(10, 0, 0, 1), net, Ipv4Addr(10, 0, 0, 254), {}});
    bob.configure({Ipv4Addr(10, 0, 0, 2), net, Ipv4Addr(10, 0, 0, 254), {}});
  }
};

TEST_F(TcpFixture, HandshakeEstablishes) {
  bool server_accepted = false, client_connected = false;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    server_accepted = true;
    EXPECT_EQ(conn->remote().addr, Ipv4Addr(10, 0, 0, 1));
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&] { client_connected = true; };
  loop.run_for(util::seconds(5));
  EXPECT_TRUE(server_accepted);
  EXPECT_TRUE(client_connected);
  EXPECT_EQ(conn->state(), TcpState::kEstablished);
}

TEST_F(TcpFixture, DataBothDirections) {
  std::string at_server, at_client;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data = [&, conn](std::span<const std::uint8_t> d) {
      at_server.append(reinterpret_cast<const char*>(d.data()), d.size());
      conn->send("pong");
    };
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] { conn->send("ping"); };
  conn->on_data = [&](std::span<const std::uint8_t> d) {
    at_client.append(reinterpret_cast<const char*>(d.data()), d.size());
  };
  loop.run_for(util::seconds(5));
  EXPECT_EQ(at_server, "ping");
  EXPECT_EQ(at_client, "pong");
}

TEST_F(TcpFixture, LargeTransferSegmented) {
  // 1 MB forces ~700 segments and exercises window bookkeeping.
  const std::string blob(1 << 20, 'x');
  std::string received;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      received.append(reinterpret_cast<const char*>(d.data()), d.size());
    };
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] { conn->send(blob); };
  loop.run_for(util::seconds(30));
  EXPECT_EQ(received.size(), blob.size());
  EXPECT_EQ(received, blob);
  EXPECT_EQ(conn->bytes_sent(), blob.size());
}

TEST_F(TcpFixture, GracefulCloseBothSides) {
  bool server_saw_close = false, client_fully_closed = false,
       server_fully_closed = false;
  std::shared_ptr<TcpConnection> server_conn;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    server_conn = conn;
    conn->on_remote_close = [&, conn] {
      server_saw_close = true;
      conn->close();  // Close our side in response.
    };
    conn->on_closed = [&] { server_fully_closed = true; };
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] { conn->close(); };
  conn->on_closed = [&] { client_fully_closed = true; };
  loop.run_for(util::seconds(10));
  EXPECT_TRUE(server_saw_close);
  EXPECT_TRUE(client_fully_closed);
  EXPECT_TRUE(server_fully_closed);
  EXPECT_EQ(conn->state(), TcpState::kClosed);
}

TEST_F(TcpFixture, DataFlushedBeforeFin) {
  // close() immediately after send() must still deliver the data.
  std::string received;
  bool closed_at_server = false;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      received.append(reinterpret_cast<const char*>(d.data()), d.size());
    };
    conn->on_remote_close = [&] { closed_at_server = true; };
  });
  const std::string blob(10000, 'q');
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] {
    conn->send(blob);
    conn->close();
  };
  loop.run_for(util::seconds(10));
  EXPECT_EQ(received.size(), blob.size());
  EXPECT_TRUE(closed_at_server);
}

TEST_F(TcpFixture, ConnectionRefusedGetsReset) {
  bool reset = false;
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 8080});  // No listener.
  conn->on_reset = [&] { reset = true; };
  loop.run_for(util::seconds(5));
  EXPECT_TRUE(reset);
  EXPECT_EQ(conn->state(), TcpState::kClosed);
}

TEST_F(TcpFixture, AbortSendsRst) {
  bool server_reset = false;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_reset = [&] { server_reset = true; };
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] { conn->abort(); };
  loop.run_for(util::seconds(5));
  EXPECT_TRUE(server_reset);
}

TEST_F(TcpFixture, SurvivesHeavyLoss) {
  // 20% loss both directions; retransmission must still deliver all data.
  alice.nic().set_loss(0.2, 42);
  bob.nic().set_loss(0.2, 43);
  const std::string blob(100'000, 'z');
  std::string received;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      received.append(reinterpret_cast<const char*>(d.data()), d.size());
    };
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] { conn->send(blob); };
  loop.run_for(util::minutes(10));
  EXPECT_EQ(received.size(), blob.size());
  EXPECT_EQ(received, blob);
}

TEST_F(TcpFixture, UnreachablePeerTimesOut) {
  bool reset = false;
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 99), 80});  // Nobody there.
  conn->on_reset = [&] { reset = true; };
  loop.run_for(util::minutes(5));
  EXPECT_TRUE(reset);
}

TEST_F(TcpFixture, MultipleConcurrentConnections) {
  int accepted = 0;
  std::string received;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    ++accepted;
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      received.append(reinterpret_cast<const char*>(d.data()), d.size());
    };
  });
  for (int i = 0; i < 10; ++i) {
    auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
    conn->on_connected = [conn] { conn->send("x"); };
  }
  loop.run_for(util::seconds(10));
  EXPECT_EQ(accepted, 10);
  EXPECT_EQ(received.size(), 10u);
}

TEST_F(TcpFixture, EphemeralPortsDistinct) {
  auto c1 = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  auto c2 = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  EXPECT_NE(c1->local().port, c2->local().port);
}

// A pending retransmit closure owns its connection, so the connection
// can outlive its stack. The dying stack disarms every timer it still
// tracks (here the SYN's retransmit timer and the retry of the ARP
// request the SYN waits on); the connection's destructor then never
// reaches the freed stack (a heap-use-after-free under the asan lane).
TEST(HostStackTeardown, DisarmsRetransmitTimersOfTrackedConnections) {
  sim::EventLoop loop;
  auto host =
      std::make_unique<HostStack>(loop, "h", util::MacAddr::local(1), 1);
  host->configure({Ipv4Addr(10, 0, 0, 1), Ipv4Net(Ipv4Addr(10, 0, 0, 0), 24),
                   Ipv4Addr(10, 0, 0, 254), {}});
  auto conn = host->connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn.reset();  // The armed retransmit closure keeps it alive.
  const std::size_t pending = loop.pending();
  host.reset();
  EXPECT_EQ(loop.pending(), pending - 2);
  loop.drop_pending();  // The connection dies here.
}

// The ARP retry closure captures the stack. Destroying the stack while
// a request is outstanding must cancel it: a surviving retry would run
// on freed memory when the loop reaches it.
TEST(HostStackTeardown, CancelsArpRetryOnDestruction) {
  sim::EventLoop loop;
  auto host =
      std::make_unique<HostStack>(loop, "h", util::MacAddr::local(1), 1);
  host->configure({Ipv4Addr(10, 0, 0, 1), Ipv4Net(Ipv4Addr(10, 0, 0, 0), 24),
                   Ipv4Addr(10, 0, 0, 254), {}});
  const std::size_t before = loop.pending();
  // Nobody answers ARP for 10.0.0.2: the SYN waits behind a request.
  auto conn = host->connect({Ipv4Addr(10, 0, 0, 2), 80});
  EXPECT_EQ(loop.pending(), before + 2);  // Retransmit timer, ARP retry.
  host.reset();
  EXPECT_EQ(loop.pending(), before);
  loop.run_for(util::seconds(5));
  EXPECT_EQ(loop.pending(), 0u);
}

// Canonical TCP and UDP frames are read in place; everything else the
// view rejects must get exactly what pkt::decode_frame gives it.
struct RawPeerFixture : ::testing::Test {
  static constexpr util::MacAddr kHostMac = util::MacAddr::local(1);
  static constexpr util::MacAddr kPeerMac = util::MacAddr::local(9);
  static inline const Ipv4Addr kHostIp{10, 0, 0, 1};
  static inline const Ipv4Addr kPeerIp{10, 0, 0, 9};

  sim::EventLoop loop;
  HostStack host{loop, "h", kHostMac, 1};
  sim::Port peer{loop, "peer"};
  std::vector<std::vector<std::uint8_t>> seen;  // Frames the host sent.

  void SetUp() override {
    sim::Port::connect(peer, host.nic(), util::microseconds(10));
    host.configure({kHostIp, Ipv4Net(Ipv4Addr(10, 0, 0, 0), 24),
                    Ipv4Addr(10, 0, 0, 254), {}});
    peer.set_rx([this](sim::Frame f) { seen.push_back(std::move(f.bytes)); });
  }

  // A frame from the peer to the host, built by the reference chain.
  static std::vector<std::uint8_t> to_host(std::uint8_t protocol,
                                           std::vector<std::uint8_t> l4) {
    pkt::Ipv4Packet ip;
    ip.src = kPeerIp;
    ip.dst = kHostIp;
    ip.protocol = protocol;
    ip.payload = std::move(l4);
    pkt::EthHeader eth;
    eth.dst = kHostMac;
    eth.src = kPeerMac;
    eth.ethertype = pkt::kEtherTypeIpv4;
    return pkt::serialize_eth(eth, pkt::serialize_ipv4(ip));
  }

  void answer_arp(Ipv4Addr as) {
    pkt::ArpMessage reply;
    reply.op = pkt::ArpMessage::Op::kReply;
    reply.sender_mac = kPeerMac;
    reply.sender_ip = as;
    reply.target_mac = kHostMac;
    reply.target_ip = kHostIp;
    pkt::EthHeader eth;
    eth.dst = kHostMac;
    eth.src = kPeerMac;
    eth.ethertype = pkt::kEtherTypeArp;
    peer.transmit(
        sim::Frame{pkt::serialize_eth(eth, pkt::serialize_arp(reply))});
  }
};

constexpr std::size_t kIp = 14;  // IPv4 header offset (untagged).

void fix_ip_checksum(std::vector<std::uint8_t>& b) {
  const std::size_t ihl = (b[kIp] & 0x0F) * 4u;
  b[kIp + 10] = b[kIp + 11] = 0;
  const std::uint16_t csum =
      pkt::checksum(std::span<const std::uint8_t>(b.data() + kIp, ihl));
  b[kIp + 10] = static_cast<std::uint8_t>(csum >> 8);
  b[kIp + 11] = static_cast<std::uint8_t>(csum);
}

// How a received frame is bent away from the canonical shape.
struct Bend {
  const char* name;
  void (*apply)(std::vector<std::uint8_t>&, std::size_t l4_csum);
  bool delivered;  // What the decode path does with it.
  bool counted;    // Whether it counts in ip_rx.
};

const Bend kBends[] = {
    {"canonical", [](std::vector<std::uint8_t>&, std::size_t) {}, true, true},
    {"ip_options",
     [](std::vector<std::uint8_t>& b, std::size_t) {
       const std::uint8_t nops[] = {1, 1, 1, 0};  // NOP NOP NOP EOL.
       b.insert(b.begin() + kIp + 20, nops, nops + 4);
       b[kIp] = 0x46;
       b[kIp + 3] = static_cast<std::uint8_t>(b[kIp + 3] + 4);
       fix_ip_checksum(b);
     },
     true, true},
    {"trailing_padding",
     [](std::vector<std::uint8_t>& b, std::size_t) { b.resize(b.size() + 6); },
     true, true},
    {"dont_fragment",
     [](std::vector<std::uint8_t>& b, std::size_t) {
       b[kIp + 6] = 0x40;
       fix_ip_checksum(b);
     },
     true, true},
    {"bad_l4_checksum",
     [](std::vector<std::uint8_t>& b, std::size_t at) { b[at] ^= 0x5A; },
     false, true},
    {"bad_ip_checksum",
     [](std::vector<std::uint8_t>& b, std::size_t) { b[kIp + 10] ^= 0x5A; },
     false, false},
};

TEST_F(RawPeerFixture, UdpFramesTheViewRejectsFollowDecodePath) {
  auto sock = host.udp_open(53);
  std::vector<std::string> got;
  sock->on_datagram = [&](Endpoint from, std::vector<std::uint8_t> data) {
    EXPECT_EQ(from.addr, kPeerIp);
    got.emplace_back(data.begin(), data.end());
  };
  auto send = [&](const Bend& bend, std::uint16_t sport, bool zero_csum) {
    pkt::UdpDatagram dgram;
    dgram.src_port = sport;
    dgram.dst_port = 53;
    dgram.payload = util::to_bytes(bend.name);
    auto bytes = to_host(pkt::kProtoUdp,
                         pkt::serialize_udp(kPeerIp, kHostIp, dgram));
    const std::size_t csum_at = kIp + 20 + 6;
    if (zero_csum) bytes[csum_at] = bytes[csum_at + 1] = 0;  // "None".
    bend.apply(bytes, csum_at);
    const auto decoded = pkt::decode_frame(bytes);
    ASSERT_TRUE(decoded);
    ASSERT_EQ(decoded->udp.has_value(), bend.delivered) << bend.name;
    got.clear();
    const auto rx = host.ip_rx();
    peer.transmit(sim::Frame{std::move(bytes)});
    loop.run_for(util::milliseconds(1));
    EXPECT_EQ(got.size(), bend.delivered ? 1u : 0u) << bend.name;
    if (!got.empty()) {
      EXPECT_EQ(got[0], bend.name);
    }
    EXPECT_EQ(host.ip_rx() - rx, bend.counted ? 1u : 0u) << bend.name;
  };
  std::uint16_t sport = 1000;
  for (const Bend& bend : kBends) send(bend, sport++, false);
  // A zero UDP checksum means "none": not canonical, delivered unchecked.
  send(kBends[0], sport++, true);
  send(kBends[4], sport++, true);  // Corrupting the zero field breaks it.
}

TEST_F(RawPeerFixture, TcpFramesTheViewRejectsFollowDecodePath) {
  int accepted = 0;
  host.listen(80, [&](std::shared_ptr<TcpConnection>) { ++accepted; });
  std::uint16_t sport = 2000;
  for (const Bend& bend : kBends) {
    pkt::TcpSegment syn;
    syn.src_port = sport++;
    syn.dst_port = 80;
    syn.seq = 7777;
    syn.flags = pkt::kTcpSyn;
    auto bytes =
        to_host(pkt::kProtoTcp, pkt::serialize_tcp(kPeerIp, kHostIp, syn));
    bend.apply(bytes, kIp + 20 + 16);
    const auto decoded = pkt::decode_frame(bytes);
    ASSERT_TRUE(decoded);
    ASSERT_EQ(decoded->tcp.has_value(), bend.delivered) << bend.name;
    const int before = accepted;
    const auto rx = host.ip_rx();
    peer.transmit(sim::Frame{std::move(bytes)});
    loop.run_for(util::milliseconds(1));
    EXPECT_EQ(accepted - before, bend.delivered ? 1 : 0) << bend.name;
    EXPECT_EQ(host.ip_rx() - rx, bend.counted ? 1u : 0u) << bend.name;
  }
}

// A frame queued behind ARP leaves byte-identical to one sent with the
// MAC cached, and both equal the reference serialization.
TEST_F(RawPeerFixture, FrameQueuedBehindArpMatchesCachedSend) {
  auto sock = host.udp_open(4000);
  sock->send_to({kPeerIp, 53}, util::to_bytes("query"));
  loop.run_for(util::milliseconds(1));
  ASSERT_EQ(seen.size(), 1u);  // The ARP request; the datagram waits.
  const auto request = pkt::decode_frame(seen[0]);
  ASSERT_TRUE(request && request->arp);
  EXPECT_EQ(request->arp->target_ip, kPeerIp);
  answer_arp(kPeerIp);
  loop.run_for(util::milliseconds(1));
  ASSERT_EQ(seen.size(), 2u);
  sock->send_to({kPeerIp, 53}, util::to_bytes("query"));
  loop.run_for(util::milliseconds(1));
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[1], seen[2]);
  pkt::DecodedFrame reference;
  reference.eth = {kPeerMac, kHostMac, std::nullopt, pkt::kEtherTypeIpv4};
  pkt::Ipv4Packet ip;
  ip.src = kHostIp;
  ip.dst = kPeerIp;
  ip.protocol = pkt::kProtoUdp;
  ip.payload = pkt::serialize_udp(
      kHostIp, kPeerIp, pkt::UdpDatagram{4000, 53, util::to_bytes("query")});
  EXPECT_EQ(seen[1],
            pkt::serialize_eth(reference.eth, pkt::serialize_ipv4(ip)));
  EXPECT_GE(seen[1].capacity(), seen[1].size() + pkt::kVlanHeadroom);

  // TCP: the SYN queued behind ARP for a second neighbour, and its
  // retransmission once the MAC is cached, are the same bytes.
  seen.clear();
  const Ipv4Addr other(10, 0, 0, 10);
  auto conn = host.connect({other, 80});
  loop.run_for(util::milliseconds(1));
  ASSERT_EQ(seen.size(), 1u);  // ARP request.
  answer_arp(other);
  loop.run_for(util::milliseconds(250));  // Flush, then one 200-ms RTO.
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[1], seen[2]);
  const auto syn = pkt::decode_frame(seen[1]);
  ASSERT_TRUE(syn && syn->tcp);
  EXPECT_TRUE(syn->tcp->syn());
  EXPECT_EQ(syn->encode(), seen[1]);
  conn->abort();
}

// A lost reply is retried; the reply that resolves the neighbour
// cancels the retry, so a completed resolution leaves nothing pending.
TEST_F(RawPeerFixture, ResolvedArpLeavesNoRetryPending) {
  auto sock = host.udp_open(4000);
  sock->send_to({kPeerIp, 53}, util::to_bytes("query"));
  loop.run_for(util::milliseconds(1));
  ASSERT_EQ(seen.size(), 1u);     // The ARP request; the datagram waits.
  EXPECT_EQ(loop.pending(), 1u);  // Its retry.
  loop.run_for(util::milliseconds(500));  // No reply: the retry fires.
  ASSERT_EQ(seen.size(), 2u);
  const auto retry = pkt::decode_frame(seen[1]);
  ASSERT_TRUE(retry && retry->arp);
  EXPECT_EQ(retry->arp->target_ip, kPeerIp);
  answer_arp(kPeerIp);
  loop.run_for(util::milliseconds(1));
  ASSERT_EQ(seen.size(), 3u);  // The datagram, flushed.
  EXPECT_EQ(loop.pending(), 0u);
  const std::uint64_t executed = loop.events_executed();
  loop.run_for(util::seconds(2));
  EXPECT_EQ(loop.events_executed(), executed);
  EXPECT_EQ(seen.size(), 3u);
}

// allocate_port() keeps a use count per local port instead of scanning
// every open connection per candidate. It must hand out exactly the
// ports the scan did: the next port, in wrap-around order, that no
// listener, UDP socket or open connection holds.
TEST_F(TcpFixture, AllocatePortMatchesConnectionScan) {
  std::map<std::uint16_t, int> live;  // Local port -> open connections.
  std::uint16_t next = 1024;
  auto scan = [&] {
    for (;;) {
      const std::uint16_t candidate = next;
      next = next >= 65535 ? 1024 : next + 1;
      if (!live.count(candidate)) return candidate;
    }
  };
  util::Rng rng(0xA110C);
  std::vector<std::shared_ptr<TcpConnection>> open;
  auto open_and_close = [&](int count) {
    for (int i = 0; i < count; ++i) {
      auto conn = alice.connect(
          {Ipv4Addr(10, 0, 0, 2), static_cast<std::uint16_t>(80 + i % 7)});
      ASSERT_EQ(conn->local().port, scan());
      ++live[conn->local().port];
      open.push_back(std::move(conn));
      if (rng.chance(0.5)) {
        const auto victim = static_cast<std::size_t>(rng.below(open.size()));
        const std::uint16_t port = open[victim]->local().port;
        open[victim]->abort();
        if (--live[port] == 0) live.erase(port);
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
  };
  open_and_close(1000);
  ASSERT_GT(open.size(), 400u);
  // Walk the rest of the ephemeral range with UDP allocations (same
  // allocator) so the next connections wrap onto ports still held.
  while (next != 1024) {
    auto sock = alice.udp_open(0);
    ASSERT_EQ(sock->port(), scan());
    sock->close();
  }
  open_and_close(1000);
  for (auto& conn : open) conn->abort();
}

TEST_F(TcpFixture, UdpRoundTrip) {
  auto server = bob.udp_open(53);
  std::string question;
  server->on_datagram = [&](Endpoint from, std::vector<std::uint8_t> data) {
    question.assign(data.begin(), data.end());
    server->send_to(from, util::to_bytes("answer"));
  };
  auto client = alice.udp_open(0);
  std::string answer;
  client->on_datagram = [&](Endpoint, std::vector<std::uint8_t> data) {
    answer.assign(data.begin(), data.end());
  };
  client->send_to({Ipv4Addr(10, 0, 0, 2), 53}, util::to_bytes("query"));
  loop.run_for(util::seconds(5));
  EXPECT_EQ(question, "query");
  EXPECT_EQ(answer, "answer");
}

TEST_F(TcpFixture, IcmpEchoAnswered) {
  // Ping bob via raw ICMP through alice's stack: handled internally.
  // (The stack auto-replies; we verify via rx counters.)
  const auto rx_before = bob.ip_rx();
  auto sock = alice.udp_open(0);  // Ensure ARP warms up via any traffic.
  sock->send_to({Ipv4Addr(10, 0, 0, 2), 9}, util::to_bytes("warm"));
  loop.run_for(util::seconds(2));
  EXPECT_GT(bob.ip_rx(), rx_before);
}

TEST_F(TcpFixture, DeconfigureAbortsConnections) {
  bool closed = false;
  bob.listen(80, [](std::shared_ptr<TcpConnection>) {});
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_closed = [&] { closed = true; };
  loop.run_for(util::seconds(2));
  ASSERT_EQ(conn->state(), TcpState::kEstablished);
  alice.deconfigure();
  loop.run_for(util::seconds(1));
  EXPECT_TRUE(closed);
}

// Parameterized sweep: transfer sizes crossing segment boundaries.
class TcpTransferSweep : public TcpFixture,
                         public ::testing::WithParamInterface<std::size_t> {};

TEST_P(TcpTransferSweep, ExactDelivery) {
  const std::size_t size = GetParam();
  const std::string blob(size, 'b');
  std::string received;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      received.append(reinterpret_cast<const char*>(d.data()), d.size());
    };
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] { conn->send(blob); };
  loop.run_for(util::seconds(20));
  EXPECT_EQ(received, blob);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TcpTransferSweep,
                         ::testing::Values(0, 1, 1459, 1460, 1461, 2920,
                                           4096, 65535, 65536, 200'000));

// Loss-rate sweep: correctness must hold at any plausible loss rate.
class TcpLossSweep : public TcpFixture,
                     public ::testing::WithParamInterface<int> {};

TEST_P(TcpLossSweep, DeliversDespiteLoss) {
  const double loss = GetParam() / 100.0;
  alice.nic().set_loss(loss, 7);
  bob.nic().set_loss(loss, 8);
  const std::string blob(20'000, 'L');
  std::string received;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      received.append(reinterpret_cast<const char*>(d.data()), d.size());
    };
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] { conn->send(blob); };
  loop.run_for(util::minutes(10));
  EXPECT_EQ(received, blob) << "loss=" << loss;
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLossSweep,
                         ::testing::Values(0, 1, 5, 10, 25));

}  // namespace
}  // namespace gq::net
