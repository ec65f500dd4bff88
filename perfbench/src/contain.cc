// Workload `contain`: one unsharded core::Farm doing the per-frame work
// of containment. Spambot subfarms run the Grum decider (every flow is a
// shim round trip to the containment server, SMTP is reflected into the
// banner sink, auto-infection is a REWRITE); a scan subfarm gets
// FORWARD verdicts cacheable at dst-port scope (the verdict cache); a
// first-contact prober runs under a compilable policy (the policy
// table). No lockstep and no FlowDB run here, so changes to those layers
// should leave this workload flat.
//
// One iteration builds the farm, warms it up (boot + DHCP + infection),
// then times kTimed of simulated time in kSlice run_for slices. The
// iteration repeats until the run's seconds are spent; every iteration
// of one seed must reproduce the first one's digest exactly.
#include <cstdio>
#include <memory>
#include <optional>

#include "common.h"
#include "containment/policy.h"
#include "extnet/extnet.h"
#include "malware/spambot.h"
#include "packet/frame.h"
#include "packet/frame_view.h"
#include "util/rng.h"
#include "util/strings.h"

namespace gqbench {

using namespace gq;
using util::Ipv4Addr;

namespace {

constexpr int kSpamSubfarms = 3;
constexpr int kSpambotsPerSubfarm = 6;
const util::Duration kWarmup = util::minutes(1);
const util::Duration kTimed = util::minutes(6);
const util::Duration kSlice = util::seconds(5);
const Ipv4Addr kCcAddr(50, 8, 207, 91);
constexpr int kScanTargets = 8;
/// Probe pacing of the scan and prober loops: one flow in flight,
/// the next launched this long after the previous verdict.
const util::Duration kProbeGap = util::milliseconds(200);

/// FORWARD port 80, DROP the rest; cacheable at dst-port scope, which is
/// exact for a verdict that depends only on the destination port.
class ScanForwardPolicy : public cs::Policy {
 public:
  ScanForwardPolicy() : cs::Policy("ScanForward") {}
  cs::Decision decide(const cs::FlowInfo& info) override {
    if (info.dst().port == 80)
      return cs::Decision::forward().cached(shim::CacheScope::kDstPort,
                                            3'600'000);
    return cs::Decision::drop("off-scan").cached(shim::CacheScope::kDstPort,
                                                 3'600'000);
  }
};

/// The same verdicts as a compiled table, so every first contact is
/// answered in the gateway.
class FirstContactPolicy : public cs::Policy {
 public:
  FirstContactPolicy() : cs::Policy("FirstContact") {}
  cs::Decision decide(const cs::FlowInfo& info) override {
    if (info.dst().port == 80) return cs::Decision::forward("scan allowed");
    return cs::Decision::drop("off-scan");
  }
  std::optional<std::vector<shim::TableRule>> compile() const override {
    shim::TableRule web;
    web.port_first = web.port_last = 80;
    web.action = shim::TableAction::kForward;
    web.annotation = "scan allowed";
    shim::TableRule rest;
    rest.action = shim::TableAction::kDrop;
    rest.annotation = "off-scan";
    return std::vector<shim::TableRule>{web, rest};
  }
};

/// Simulated results that a speed-only change must not alter.
struct Digest {
  std::uint64_t events = 0;  ///< Event-loop events executed.
  std::uint64_t flows = 0;   ///< Flows created across subfarms.
  std::map<std::string, std::uint64_t> verdicts;
  std::uint64_t stream_hash = 0;  ///< FNV-1a over format_event lines.

  [[nodiscard]] std::string str() const {
    std::string v;
    for (const auto& [name, n] : verdicts)
      v += util::format(" %s=%llu", name.c_str(),
                        static_cast<unsigned long long>(n));
    return util::format("events=%llu flows=%llu verdicts:%s hash=%016llx",
                        static_cast<unsigned long long>(events),
                        static_cast<unsigned long long>(flows), v.c_str(),
                        static_cast<unsigned long long>(stream_hash));
  }
};

/// Serial probe loop: one connection in flight; the next launches
/// kProbeGap after the subfarm's previous verdict. It cycles port 80 over
/// `targets`; with a nonzero `fresh_base` every other probe instead goes
/// to port 25 of a never-contacted address (a first contact, which
/// FirstContactPolicy drops with a RST).
class ProbeLoop {
 public:
  ProbeLoop(core::Farm& farm, inm::Inmate& inmate, std::string subfarm,
            std::vector<Ipv4Addr> targets, std::uint32_t fresh_base)
      : farm_(farm),
        inmate_(inmate),
        subfarm_(std::move(subfarm)),
        targets_(std::move(targets)),
        next_fresh_(fresh_base) {
    subscription_ =
        farm.telemetry().bus().subscribe([this](const obs::FarmEvent& e) {
          if (e.kind == obs::FarmEvent::Kind::kFlowVerdict &&
              e.subfarm == subfarm_)
            advance();
        });
  }
  ~ProbeLoop() {
    farm_.telemetry().bus().unsubscribe(subscription_);
    for (auto& conn : conns_) conn->on_reset = nullptr;
  }
  ProbeLoop(const ProbeLoop&) = delete;
  ProbeLoop& operator=(const ProbeLoop&) = delete;

  void start() {
    started_ = true;
    launch();
  }

 private:
  void advance() {
    if (!started_ || pending_) return;
    pending_ = true;
    farm_.loop().schedule_in(kProbeGap, [this] {
      pending_ = false;
      launch();
    });
  }

  void launch() {
    util::Endpoint dst{targets_[probes_ % targets_.size()], 80};
    if (next_fresh_ != 0 && probes_ % 2 == 1)
      dst = {Ipv4Addr(next_fresh_++), 25};
    ++probes_;
    auto conn = inmate_.host().connect(dst);
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_connected = [weak] {
      if (auto c = weak.lock()) c->close();
    };
    conn->on_reset = [this] { advance(); };
    conns_.push_back(std::move(conn));
    if (conns_.size() > 64) conns_.erase(conns_.begin());
  }

  core::Farm& farm_;
  inm::Inmate& inmate_;
  std::string subfarm_;
  std::vector<Ipv4Addr> targets_;
  std::uint32_t next_fresh_;
  std::uint64_t probes_ = 0;
  bool started_ = false;
  bool pending_ = false;
  std::vector<std::shared_ptr<net::TcpConnection>> conns_;
  obs::EventBus::SubscriptionId subscription_ = 0;
};

/// Time pkt::decode_frame and pkt::FrameView::parse over captured
/// upstream frames, after one warm pass over each.
void replay_probe(const FarmCapture& capture,
                  std::map<std::string, double>& layer) {
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t begin = 0;
  for (const std::size_t end : capture.ends) {
    frames.emplace_back(capture.bytes.begin() + begin,
                        capture.bytes.begin() + end);
    begin = end;
  }
  layer["packet.frames_replayed"] = static_cast<double>(frames.size());
  if (frames.empty()) return;
  std::uint64_t sink = 0;
  auto decode_pass = [&] {
    for (const auto& f : frames)
      if (const auto d = pkt::decode_frame(f)) sink += d->dst_port();
  };
  auto view_pass = [&] {
    for (auto& f : frames)
      if (const auto v = pkt::FrameView::parse(f)) sink += v->dst_port();
  };
  // Enough passes for ~2M frames per measurement.
  const std::size_t passes =
      std::max<std::size_t>(1, 2'000'000 / frames.size());
  auto time_ns_per_frame = [&](auto&& pass) {
    pass();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < passes; ++i) pass();
    return seconds_since(start) * 1e9 /
           static_cast<double>(passes * frames.size());
  };
  layer["packet.decode_ns_per_frame"] = time_ns_per_frame(decode_pass);
  layer["packet.view_parse_ns_per_frame"] = time_ns_per_frame(view_pass);
  if (sink == 0) std::fprintf(stderr, "replay probe: no frame parsed\n");
}

Record run_once(std::uint64_t seed, Tracer& tracer) {
  Record it;
  const std::uint64_t run = tracer.run();
  auto iteration_span = tracer.span("contain.iteration");
  util::Rng rng(seed);

  FarmCapture capture;  // Outlives the farm that publishes into it.
  const auto setup_start = Clock::now();
  auto setup_span = tracer.span("setup");
  core::FarmOptions farm_options;
  farm_options.seed = rng.next();
  core::Farm farm(farm_options);
  capture.attach(farm, /*all_events=*/true);

  auto& cc_host = farm.add_external_host("cc", kCcAddr);
  ext::CcServer cc(cc_host, 80);
  mal::SpamTask task;
  task.targets = {{Ipv4Addr(64, 12, 88, 7), 25}};
  cc.set_document("/c2/tasks", task.serialize());

  for (int s = 0; s < kSpamSubfarms; ++s) {
    auto& sub = farm.add_subfarm(util::format("Spam%d", s));
    sub.add_catchall_sink();
    sinks::SmtpSinkConfig sink_config;
    sink_config.port = 2526;
    sub.add_smtp_sink(sink_config, "bannersmtpsink");
    sub.set_autoinfect({Ipv4Addr(10, 9, 8, 7), 6543});
    sub.containment().samples().add("grum.000.exe");
    sub.catalog().register_prototype(
        "grum.*", [](const std::string&, util::Rng& r) {
          mal::SpambotConfig config;
          config.family = "grum";
          config.c2 = {kCcAddr, 80};
          config.send_interval = util::seconds(2);
          return std::make_unique<mal::SpambotBehavior>(config, r.fork());
        });
    sub.configure_containment(util::format(
        "[VLAN %d-%d]\nDecider = Grum\nInfection = grum.*\n",
        sub.router().config().vlan_first, sub.router().config().vlan_last));
    for (int i = 0; i < kSpambotsPerSubfarm; ++i)
      sub.create_inmate(inm::HostingKind::kVm);
  }

  std::vector<Ipv4Addr> scan_targets;
  for (int i = 0; i < kScanTargets; ++i) {
    const Ipv4Addr addr(93, 184, 216, static_cast<std::uint8_t>(34 + i));
    farm.add_external_host(util::format("web%d", i), addr)
        .listen(80, [](std::shared_ptr<net::TcpConnection>) {});
    scan_targets.push_back(addr);
  }
  auto& scan = farm.add_subfarm("Scan");
  scan.bind_policy(scan.router().config().vlan_first,
                   scan.router().config().vlan_last,
                   std::make_shared<ScanForwardPolicy>());
  auto& probe = farm.add_subfarm("Probe");
  probe.bind_policy(probe.router().config().vlan_first,
                    probe.router().config().vlan_last,
                    std::make_shared<FirstContactPolicy>());
  ProbeLoop scan_loop(farm, scan.create_inmate(inm::HostingKind::kVm),
                      "Scan", scan_targets, 0);
  // First contacts in 100.64/10, starting at a seed-chosen offset.
  ProbeLoop probe_loop(farm, probe.create_inmate(inm::HostingKind::kVm),
                       "Probe", scan_targets,
                       Ipv4Addr(100, 64, 0, 1).value() +
                           static_cast<std::uint32_t>(rng.below(1 << 20)));
  {
    auto warm = tracer.span("warmup.run_for", true);
    farm.run_for(kWarmup);
  }
  setup_span.end();
  it.num["setup_s"] = seconds_since(setup_start);

  scan_loop.start();
  probe_loop.start();
  const std::uint64_t events_before = farm.loop().events_executed();
  const auto timed_start = Clock::now();
  auto& slice_ms = it.series["op_ms"];
  for (util::Duration done{}; done.usec < kTimed.usec; done = done + kSlice) {
    auto span = tracer.span("run_for", true);
    const auto start = Clock::now();
    farm.run_for(kSlice);
    slice_ms.push_back(seconds_since(start) * 1e3);
  }
  it.num["rate"] =
      static_cast<double>(kTimed.usec) / 1e6 / seconds_since(timed_start);
  const std::uint64_t timed_events =
      farm.loop().events_executed() - events_before;

  Digest digest;
  digest.events = farm.loop().events_executed();
  Fnv1a hash;
  for (const auto& e : capture.events) {
    hash.line(obs::format_event(e));
    if (e.kind == obs::FarmEvent::Kind::kFlowVerdict)
      ++digest.verdicts[shim::verdict_name(e.verdict)];
  }
  digest.stream_hash = hash.hash;
  for (const auto& sub : farm.subfarms())
    digest.flows += sub->router().flows_created();
  it.text["digest"] = digest.str();
  std::uint64_t failed = count_escapes(capture);
  std::vector<std::string> failures;
  if (failed) failures.push_back("flows escaped containment");

  if (tracer.enabled()) {
    auto& layer = it.layer;
    const Tracer::Total run_for = tracer.total("run_for", run);
    layer["core.run_for.wall_s"] = run_for.wall_s;
    layer["core.run_for.user_cpu_s"] = run_for.user_cpu_s;
    layer["core.run_for.sys_cpu_s"] = run_for.sys_cpu_s;
    layer["netsim.events"] = static_cast<double>(timed_events);
    layer["netsim.ns_per_event"] =
        timed_events ? layer["core.run_for.wall_s"] * 1e9 /
                           static_cast<double>(timed_events)
                     : 0;
    RegistryHarvest h;
    if (!h.add(farm.metrics().render_json())) {
      ++failed;
      failures.push_back("registry JSON did not parse");
    }
    add_farm_layers(h, layer);
    replay_probe(capture, layer);
  }
  it.num["attempted"] = static_cast<double>(digest.flows);
  it.num["failed"] = static_cast<double>(failed);
  record_failures(it, failures);
  return it;
}

}  // namespace

Outcome run_contain(const Options& options, Tracer& tracer) {
  Outcome out;
  const auto records = repeat_isolated(
      options, tracer, [&] { return run_once(options.seed, tracer); });
  for (const auto& r : records) out.account(r, "contain iteration");
  // Every iteration of one seed must reproduce the first one exactly.
  const auto reference = records.front().text.find("digest");
  const std::string digest =
      reference == records.front().text.end() ? "" : reference->second;
  out.line("contain digest: " + digest);
  out.check_digests(records, digest);
  out.set_e2e(records, "sim_rate", "sim-s/s", "slice");
  if (options.trace) out.set_layers(records);
  return out;
}

}  // namespace gqbench
