#include "net/stack.h"

#include "packet/frame_view.h"
#include "packet/headers.h"
#include "util/log.h"

namespace gq::net {

namespace {
constexpr const char* kLog = "stack";
constexpr int kArpMaxAttempts = 3;
constexpr util::Duration kArpRetryDelay = util::milliseconds(500);
}  // namespace

void UdpSocket::send_to(util::Endpoint dst,
                        std::span<const std::uint8_t> payload) {
  stack_.send_udp(port_, dst, payload, /*broadcast=*/false);
}

void UdpSocket::send_broadcast(std::uint16_t dst_port,
                               std::span<const std::uint8_t> payload) {
  stack_.send_udp(port_, {util::Ipv4Addr(255, 255, 255, 255), dst_port},
                  payload, /*broadcast=*/true);
}

void UdpSocket::close() { stack_.remove_udp(port_); }

HostStack::HostStack(sim::EventLoop& loop, std::string name,
                     util::MacAddr mac, std::uint64_t seed)
    : loop_(loop),
      name_(std::move(name)),
      mac_(mac),
      rng_(seed),
      nic_(loop, name_ + ".nic") {
  nic_.set_rx([this](sim::Frame frame) { handle_frame(std::move(frame)); });
}

HostStack::~HostStack() {
  // Callbacks commonly capture shared_ptrs back to their own connection
  // or socket (a server session holding the inmate conn whose on_data
  // holds the session, a UDP echo responder capturing itself). For
  // anything still open when the host dies, that cycle would outlive
  // us — clear the handlers so the cycle breaks and the objects free.
  // A pending retransmit closure can also keep a connection alive past
  // us; disarm its timer now so the connection's destructor never
  // reaches this dead stack or its loop.
  for (auto& [key, conn] : connections_) {
    conn->on_connected = nullptr;
    conn->on_data = nullptr;
    conn->on_remote_close = nullptr;
    conn->on_closed = nullptr;
    conn->cancel_retransmit();
  }
  for (auto& [port, weak] : udp_sockets_)
    if (const auto sock = weak.lock()) sock->on_datagram = nullptr;
}

void HostStack::configure(const Ipv4Config& config) {
  config_ = config;
  GQ_DEBUG(kLog, "%s: configured %s gw %s", name_.c_str(),
           config.addr.str().c_str(), config.gateway.str().c_str());
}

void HostStack::deconfigure() {
  config_.reset();
  arp_cache_.clear();
  for (const auto& [target, pending] : arp_pending_)
    loop_.cancel(pending.retry);
  arp_pending_.clear();
  // Abort every connection: the "machine" lost its address.
  auto conns = connections_;
  for (auto& [key, conn] : conns) conn->abort();
  connections_.clear();
  port_use_.clear();
}

std::shared_ptr<TcpConnection> HostStack::connect(util::Endpoint dst) {
  const std::uint16_t port = allocate_port();
  auto conn = std::make_shared<TcpConnection>(
      *this, util::Endpoint{addr(), port}, dst);
  add_connection(port, dst, conn);
  conn->start_connect();
  return conn;
}

void HostStack::listen(std::uint16_t port, AcceptHandler handler) {
  listeners_[port] = std::move(handler);
}

void HostStack::close_listener(std::uint16_t port) { listeners_.erase(port); }

std::shared_ptr<UdpSocket> HostStack::udp_open(std::uint16_t port) {
  if (port == 0) port = allocate_port();
  auto sock = std::make_shared<UdpSocket>(*this, port);
  udp_sockets_[port] = sock;
  return sock;
}

std::uint16_t HostStack::allocate_port() {
  for (int guard = 0; guard < 65536; ++guard) {
    const std::uint16_t candidate = next_ephemeral_;
    next_ephemeral_ =
        (next_ephemeral_ >= 65535) ? 1024 : next_ephemeral_ + 1;
    if (!listeners_.count(candidate) && !udp_sockets_.count(candidate) &&
        !port_use_.count(candidate))
      return candidate;
  }
  return 0;  // Exhausted (practically unreachable).
}

void HostStack::add_connection(std::uint16_t local_port,
                               util::Endpoint remote,
                               std::shared_ptr<TcpConnection> conn) {
  auto [it, inserted] =
      connections_.insert_or_assign({local_port, remote}, std::move(conn));
  if (inserted) ++port_use_[local_port];
}

void HostStack::remove_connection(const TcpConnection& conn) {
  const std::uint16_t port = conn.local().port;
  if (connections_.erase({port, conn.remote()}) == 0) return;
  if (const auto it = port_use_.find(port); --it->second == 0)
    port_use_.erase(it);
}

void HostStack::remove_udp(std::uint16_t port) { udp_sockets_.erase(port); }

pkt::EthHeader HostStack::ipv4_eth(util::MacAddr dst) const {
  return {.dst = dst,
          .src = mac_,
          .vlan = std::nullopt,
          .ethertype = pkt::kEtherTypeIpv4};
}

void HostStack::send_tcp(util::Ipv4Addr dst, const pkt::TcpSegmentView& seg) {
  if (!config_) {
    GQ_DEBUG(kLog, "%s: dropping TCP segment, no configuration",
             name_.c_str());
    return;
  }
  route_frame(dst, pkt::encode_tcp_frame(ipv4_eth({}),
                                         {config_->addr, dst}, seg));
}

void HostStack::send_udp(std::uint16_t src_port, util::Endpoint dst,
                         std::span<const std::uint8_t> payload,
                         bool broadcast) {
  if (!broadcast && !config_) {
    GQ_DEBUG(kLog, "%s: dropping UDP datagram, no configuration",
             name_.c_str());
    return;
  }
  // The source is 0.0.0.0 while unconfigured (DHCP).
  auto frame =
      pkt::encode_udp_frame(ipv4_eth(util::MacAddr::broadcast()),
                            {addr(), dst.addr}, src_port, dst.port, payload);
  if (broadcast) {
    // Link-local broadcast bypasses routing and ARP entirely.
    nic_.transmit(sim::Frame{std::move(frame)});
    ++ip_tx_;
    return;
  }
  route_frame(dst.addr, std::move(frame));
}

void HostStack::route_frame(util::Ipv4Addr dst,
                            std::vector<std::uint8_t> frame) {
  ++ip_tx_;
  const util::Ipv4Addr next_hop =
      config_->subnet.contains(dst) ? dst : config_->gateway;
  if (auto it = arp_cache_.find(next_hop); it != arp_cache_.end()) {
    transmit_to(it->second, std::move(frame));
    return;
  }
  arp_resolve(next_hop, std::move(frame));
}

void HostStack::transmit_to(util::MacAddr dst_mac,
                            std::vector<std::uint8_t> frame) {
  pkt::write_eth_dst(frame, dst_mac);
  nic_.transmit(sim::Frame{std::move(frame)});
}

void HostStack::arp_resolve(util::Ipv4Addr next_hop,
                            std::vector<std::uint8_t> frame) {
  auto& pending = arp_pending_[next_hop];
  pending.queue.push_back(std::move(frame));
  if (pending.queue.size() > 1) return;  // Request already outstanding.
  pending.attempts = 0;
  send_arp_request(next_hop);
}

void HostStack::send_arp_request(util::Ipv4Addr target) {
  auto it = arp_pending_.find(target);
  if (it == arp_pending_.end()) return;
  if (it->second.attempts++ >= kArpMaxAttempts) {
    GQ_WARN(kLog, "%s: ARP for %s failed, dropping %zu packets",
            name_.c_str(), target.str().c_str(), it->second.queue.size());
    arp_pending_.erase(it);
    return;
  }
  pkt::ArpMessage arp;
  arp.op = pkt::ArpMessage::Op::kRequest;
  arp.sender_mac = mac_;
  arp.sender_ip = addr();
  arp.target_ip = target;
  nic_.transmit(sim::Frame{pkt::serialize_eth(
      {.dst = util::MacAddr::broadcast(),
       .src = mac_,
       .vlan = std::nullopt,
       .ethertype = pkt::kEtherTypeArp},
      pkt::serialize_arp(arp))});
  // The reply that flushes the entry cancels this retry; only a lost
  // reply lets it fire.
  it->second.retry = arp_retries_.schedule_in(kArpRetryDelay, [this, target] {
    if (arp_pending_.count(target)) send_arp_request(target);
  });
}

void HostStack::handle_frame(sim::Frame frame) {
  // Canonical TCP and UDP frames, checksums verified, are read in place.
  if (const auto view =
          pkt::ConstFrameView::parse(frame.bytes, pkt::ViewVerify::kFull)) {
    if (!accept_ipv4(view->ip_dst())) return;
    if (view->is_tcp()) {
      handle_tcp_segment(view->ip_src(), {.src_port = view->src_port(),
                                          .dst_port = view->dst_port(),
                                          .seq = view->tcp_seq(),
                                          .ack = view->tcp_ack(),
                                          .flags = view->tcp_flags(),
                                          .window = view->tcp_window(),
                                          .payload = view->payload()});
    } else {
      deliver_udp({view->ip_src(), view->src_port()}, view->dst_port(),
                  view->payload());
    }
    return;
  }
  // ARP, ICMP and everything the view rejects.
  auto decoded = pkt::decode_frame(frame.bytes);
  if (!decoded) return;
  if (decoded->arp) {
    handle_arp(*decoded->arp);
    return;
  }
  if (decoded->ip) handle_decoded_ipv4(*decoded);
}

void HostStack::handle_arp(const pkt::ArpMessage& arp) {
  if (!config_) return;
  // Learn the sender mapping opportunistically.
  if (!arp.sender_ip.is_unspecified())
    arp_cache_[arp.sender_ip] = arp.sender_mac;

  // Flush any frames that were waiting on this resolution.
  if (auto it = arp_pending_.find(arp.sender_ip); it != arp_pending_.end()) {
    auto queue = std::move(it->second.queue);
    loop_.cancel(it->second.retry);
    arp_pending_.erase(it);
    for (auto& frame : queue) transmit_to(arp.sender_mac, std::move(frame));
  }

  if (arp.op == pkt::ArpMessage::Op::kRequest &&
      arp.target_ip == config_->addr) {
    pkt::ArpMessage reply;
    reply.op = pkt::ArpMessage::Op::kReply;
    reply.sender_mac = mac_;
    reply.sender_ip = config_->addr;
    reply.target_mac = arp.sender_mac;
    reply.target_ip = arp.sender_ip;
    pkt::EthHeader eth;
    eth.dst = arp.sender_mac;
    eth.src = mac_;
    eth.ethertype = pkt::kEtherTypeArp;
    nic_.transmit(sim::Frame{pkt::serialize_eth(eth, pkt::serialize_arp(reply))});
  }
}

bool HostStack::accept_ipv4(util::Ipv4Addr dst) {
  const bool to_me =
      config_ && (dst == config_->addr || dst.is_broadcast());
  const bool broadcast_while_unconfigured = !config_ && dst.is_broadcast();
  if (!to_me && !broadcast_while_unconfigured) return false;
  ++ip_rx_;
  return true;
}

void HostStack::handle_decoded_ipv4(const pkt::DecodedFrame& frame) {
  const auto& ip = *frame.ip;
  if (!accept_ipv4(ip.dst)) return;
  if (frame.tcp) {
    handle_tcp_segment(ip.src, pkt::TcpSegmentView::of(*frame.tcp));
  } else if (frame.udp) {
    deliver_udp({ip.src, frame.udp->src_port}, frame.udp->dst_port,
                frame.udp->payload);
  } else if (frame.icmp && frame.icmp->type == 8 && config_) {
    // Echo request: reply in kind.
    pkt::DecodedFrame reply;
    reply.eth = ipv4_eth({});
    reply.ip = pkt::Ipv4Packet{};
    reply.ip->src = config_->addr;
    reply.ip->dst = ip.src;
    reply.icmp = *frame.icmp;
    reply.icmp->type = 0;
    route_frame(ip.src, reply.encode());
  }
}

void HostStack::deliver_udp(util::Endpoint from, std::uint16_t dst_port,
                            std::span<const std::uint8_t> payload) {
  auto it = udp_sockets_.find(dst_port);
  if (it == udp_sockets_.end()) return;
  if (auto sock = it->second.lock()) {
    if (sock->on_datagram)
      sock->on_datagram(from, {payload.begin(), payload.end()});
  } else {
    udp_sockets_.erase(it);
  }
}

void HostStack::handle_tcp_segment(util::Ipv4Addr src,
                                   const pkt::TcpSegmentView& seg) {
  const util::Endpoint remote{src, seg.src_port};
  if (auto it = connections_.find({seg.dst_port, remote});
      it != connections_.end()) {
    auto conn = it->second;  // Keep alive during input().
    conn->input(seg);
    return;
  }
  if (seg.syn() && !seg.has_ack()) {
    if (auto it = listeners_.find(seg.dst_port); it != listeners_.end()) {
      auto conn = std::make_shared<TcpConnection>(
          *this, util::Endpoint{addr(), seg.dst_port}, remote);
      add_connection(seg.dst_port, remote, conn);
      // Enter SYN_RCVD before handing the connection to the application:
      // servers commonly send a greeting straight from the accept
      // callback, and send() buffers in SYN_RCVD until establishment.
      conn->start_accept(seg);
      // Copy the handler first: the callback may close_listener() on its
      // own port (single-use listeners), which would destroy the function
      // object we are executing.
      auto handler = it->second;
      handler(conn);
      return;
    }
  }
  if (!seg.rst()) {
    // No listener / unknown connection: refuse.
    send_tcp(src, {.src_port = seg.dst_port,
                   .dst_port = seg.src_port,
                   .seq = seg.has_ack() ? seg.ack : 0,
                   .ack = seg.seq + (seg.syn() ? 1 : 0) +
                          static_cast<std::uint32_t>(seg.payload.size()),
                   .flags = pkt::kTcpRst | pkt::kTcpAck,
                   .payload = {}});
  }
}

}  // namespace gq::net
