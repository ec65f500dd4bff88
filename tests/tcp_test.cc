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
// tracks; the connection's destructor then never reaches the freed
// stack (a heap-use-after-free under the asan lane).
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
  EXPECT_EQ(loop.pending(), pending - 1);
  loop.drop_pending();  // The connection dies here.
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
