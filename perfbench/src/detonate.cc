// Workload `detonate`: an s3-shaped detonation batch. A DetonationService
// runs over a ShardedFarm of kShards shards on kThreads worker threads,
// kSlots recycled slots per shard, beacon jobs spread over four tenants.
// The batch drains in kSlice run_for slices with append_flowdb_store
// every kAppendEvery slices (two simulated minutes), then a final flush
// and a compaction. Lockstep coordination dominates the wall time here, so
// this is where a barrier or epoch change must show.
//
// Before the timed iterations, the same seed runs once at one thread:
// its digest is the reference every timed batch must reproduce (the
// merged event stream is thread-count invariant by design), and its
// run_for wall time is the baseline for netsim.lockstep.coord_s.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "common.h"
#include "core/sharded_farm.h"
#include "flowdb/store.h"
#include "inmate/inmate.h"
#include "orchestrator/service.h"
#include "util/rng.h"
#include "util/strings.h"

namespace gqbench {

using namespace gq;
using util::Ipv4Addr;

namespace {

constexpr std::size_t kShards = 2;
/// Both worker threads share the iteration's one CPU (see isolated());
/// the barrier still costs ~97% of run_for wall time there.
constexpr unsigned kThreads = 2;
constexpr std::size_t kSlots = 4;
constexpr std::size_t kJobs = 64;
/// Short slices give each batch ~60 timed operations, enough for a tail
/// percentile per batch; the append cadence stays at two sim-minutes.
const util::Duration kSlice = util::seconds(10);
constexpr std::int64_t kAppendEvery = 12;
const util::Duration kCap = util::hours(2);
const Ipv4Addr kWebAddr(93, 184, 216, 34);
constexpr std::uint16_t kWebPort = 80;
const char* const kTenants[] = {"acme", "umbrella", "tyrell", "initech"};

/// Periodic C&C beacon (the s3 job behaviour): connect out, ping, close
/// on the echo, with per-infection jitter.
class BeaconBehavior : public inm::Behavior {
 public:
  BeaconBehavior(util::Duration interval, util::Rng rng)
      : interval_(interval), rng_(rng) {}

  [[nodiscard]] std::string name() const override { return "beacon"; }

  void start(net::HostStack& host) override {
    host_ = &host;
    running_ = true;
    schedule();
  }

  void stop() override {
    running_ = false;
    conns_.clear();
  }

 private:
  void schedule() {
    const auto jitter = util::microseconds(
        static_cast<std::int64_t>(rng_.below(500'000)));
    host_->loop().schedule_in(interval_ + jitter, guarded([this] {
      if (!running_) return;
      beacon();
      schedule();
    }));
  }

  void beacon() {
    if (!host_->configured()) return;
    auto conn = host_->connect({kWebAddr, kWebPort});
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_connected = [weak] {
      if (auto c = weak.lock()) c->send(std::string_view("beacon ping\r\n"));
    };
    conn->on_data = [weak](std::span<const std::uint8_t>) {
      if (auto c = weak.lock()) c->close();
    };
    conns_.push_back(std::move(conn));
  }

  net::HostStack* host_ = nullptr;
  bool running_ = false;
  util::Duration interval_;
  util::Rng rng_;
  std::vector<std::shared_ptr<net::TcpConnection>> conns_;
};

void build_slot(core::Subfarm& sub, std::size_t /*slot*/) {
  sub.add_catchall_sink();
  sub.catalog().register_prototype(
      "beacon.*", [](const std::string&, util::Rng& rng) {
        return std::make_unique<BeaconBehavior>(util::seconds(5), rng.fork());
      });
  const auto& config = sub.router().config();
  sub.configure_containment(util::format(
      "[VLAN %u-%u]\nDecider = ForwardAll\n", config.vlan_first,
      config.vlan_last));
}

struct Digest {
  std::uint64_t events = 0;  ///< Event-loop events, all shards.
  std::uint64_t flows = 0;   ///< Flows created, all shards.
  std::map<std::string, std::uint64_t> verdicts;
  std::uint64_t completed = 0;
  std::uint64_t store_rows = 0;
  std::uint64_t stream_hash = 0;  ///< FNV-1a over merged_event_lines.

  [[nodiscard]] std::string str() const {
    std::string v;
    for (const auto& [name, n] : verdicts)
      v += util::format(" %s=%llu", name.c_str(),
                        static_cast<unsigned long long>(n));
    return util::format(
        "events=%llu flows=%llu jobs=%llu rows=%llu verdicts:%s hash=%016llx",
        static_cast<unsigned long long>(events),
        static_cast<unsigned long long>(flows),
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(store_rows), v.c_str(),
        static_cast<unsigned long long>(stream_hash));
  }
};

Record run_batch(std::uint64_t seed, unsigned threads, const std::string& dir,
                 Tracer& tracer) {
  Record b;
  const std::uint64_t run = tracer.run();
  auto batch_span = tracer.span("detonate.batch");
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  auto failure = [&](std::string why, std::uint64_t count = 1) {
    failed += count;
    failures.push_back(std::move(why));
  };

  // Captures outlive the farm whose taps and bus feed them.
  std::vector<FarmCapture> captures(kShards);
  const auto setup_start = Clock::now();
  auto setup_span = tracer.span("setup");
  core::ShardedFarmOptions options;
  options.shards = kShards;
  options.threads = threads;
  options.seed = util::Rng(seed).next();
  options.trace_archive.segment_bytes = 64 * 1024;
  options.trace_archive.max_segments = 4;
  core::ShardedFarm farm(options, [](core::Farm&, std::size_t) {});
  for (std::size_t s = 0; s < kShards; ++s)
    captures[s].attach(farm.shard(s), /*all_events=*/false);

  auto& web = farm.shard(0).add_external_host("web", kWebAddr);
  web.listen(kWebPort, [](std::shared_ptr<net::TcpConnection> conn) {
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_data = [weak](std::span<const std::uint8_t> data) {
      if (auto c = weak.lock()) c->send(data);
    };
  });
  orch::OrchestratorOptions oo;
  oo.pool.slots = kSlots;
  oo.job_archive.segment_bytes = 16 * 1024;
  oo.job_archive.max_segments = 2;
  orch::DetonationService service(farm, oo, build_slot);
  for (const char* tenant : kTenants) service.register_tenant(tenant);
  setup_span.end();
  b.num["setup_s"] = seconds_since(setup_start);

  const auto timed_start = Clock::now();
  {
    auto span = tracer.span("submit");
    for (std::size_t i = 0; i < kJobs; ++i) {
      orch::JobSpec spec;
      spec.tenant = kTenants[i % 4];
      spec.sample = util::format("beacon.%04zu", i);
      spec.budget = util::milliseconds(
          15'000 + 5'000 * static_cast<std::int64_t>(i % 4));
      service.submit(spec);
    }
  }
  std::uint64_t append_calls = 0, append_rows = 0;
  auto append = [&](bool sealed_only) {
    auto span = tracer.span("append_flowdb_store");
    ++append_calls;
    const auto rows = service.append_flowdb_store(dir, sealed_only);
    if (!rows) {
      failure("append_flowdb_store failed");
      return;
    }
    append_rows += *rows;
  };
  std::int64_t slices = 0;
  while (service.jobs_completed() < kJobs &&
         slices * kSlice.usec < kCap.usec) {
    {
      auto span = tracer.span("run_for", true);
      const auto start = Clock::now();
      farm.run_for(kSlice);
      b.series["op_ms"].push_back(seconds_since(start) * 1e3);
    }
    if (++slices % kAppendEvery == 0) append(true);
  }
  append(false);
  std::size_t segments_before = 0, segments_after = 0;
  {
    auto span = tracer.span("compact_segments");
    auto store = flowdb::SegmentedStore::open(dir);
    if (store) segments_before = store->manifest().segments.size();
    if (!store || !store->compact_segments()) failure("compaction failed");
    if (store) segments_after = store->manifest().segments.size();
  }
  const double timed_s = seconds_since(timed_start);
  double run_for_s = 0;
  for (const double ms : b.series["op_ms"]) run_for_s += ms / 1e3;
  b.num["run_for_s"] = run_for_s;
  b.num["sim_rate"] =
      static_cast<double>(slices * kSlice.usec) / 1e6 / run_for_s;

  Digest digest;
  std::uint64_t store_bytes = 0;
  {
    auto span = tracer.span("open");
    const auto reader = flowdb::SegmentedReader::open(dir);
    if (!reader) {
      failure("compacted store does not reopen");
    } else {
      digest.store_rows = reader->rows();
      store_bytes = reader->manifest().total_bytes();
      if (reader->rows() != append_rows)
        failure(util::format("store holds %llu rows, %llu appended",
                             static_cast<unsigned long long>(reader->rows()),
                             static_cast<unsigned long long>(append_rows)));
    }
  }

  const std::uint64_t submitted = service.jobs_submitted();
  digest.completed = service.jobs_completed();
  b.num["rate"] = static_cast<double>(digest.completed) / timed_s;
  b.num["attempted"] = static_cast<double>(submitted + append_calls + 1);
  if (submitted != kJobs || digest.completed != kJobs ||
      service.jobs_rejected() != 0)
    failure(util::format("jobs: %llu submitted, %llu completed, %llu rejected",
                         static_cast<unsigned long long>(submitted),
                         static_cast<unsigned long long>(digest.completed),
                         static_cast<unsigned long long>(
                             service.jobs_rejected())),
            kJobs - std::min<std::uint64_t>(kJobs, digest.completed));
  const sim::LockstepStats ls = farm.lockstep_stats();
  if (ls.overflow_dropped > 0)
    failure("cross-shard frames dropped on mailbox overflow",
            ls.overflow_dropped);
  for (std::size_t s = 0; s < kShards; ++s) {
    digest.events += farm.shard(s).loop().events_executed();
    for (const auto& sub : farm.shard(s).subfarms())
      digest.flows += sub->router().flows_created();
    for (const auto& e : captures[s].events)
      if (e.kind == obs::FarmEvent::Kind::kFlowVerdict)
        ++digest.verdicts[shim::verdict_name(e.verdict)];
    if (const auto escapes = count_escapes(captures[s]))
      failure(util::format("shard %zu: flows escaped containment", s), escapes);
  }
  Fnv1a hash;
  for (const auto& line : farm.merged_event_lines()) hash.line(line);
  digest.stream_hash = hash.hash;
  b.text["digest"] = digest.str();

  if (tracer.enabled()) {
    auto& layer = b.layer;
    const Tracer::Total run_for = tracer.total("run_for", run);
    layer["core.run_for.wall_s"] = run_for.wall_s;
    layer["core.run_for.user_cpu_s"] = run_for.user_cpu_s;
    layer["core.run_for.sys_cpu_s"] = run_for.sys_cpu_s;
    layer["netsim.events"] = static_cast<double>(digest.events);
    layer["netsim.lockstep.epochs"] = static_cast<double>(ls.epochs);
    layer["netsim.lockstep.messages"] = static_cast<double>(ls.messages);
    layer["netsim.lockstep.overflow_dropped"] =
        static_cast<double>(ls.overflow_dropped);
    RegistryHarvest h;
    for (std::size_t s = 0; s < kShards; ++s)
      if (!h.add(farm.shard(s).metrics().render_json()))
        failure("registry JSON did not parse");
    add_farm_layers(h, layer);
    layer["orchestrator.jobs_completed"] =
        static_cast<double>(service.jobs_completed());
    layer["orchestrator.jobs_rejected"] =
        static_cast<double>(service.jobs_rejected());
    double recycles = 0;
    for (std::size_t s = 0; s < kShards; ++s)
      recycles += static_cast<double>(service.shard(s).pool().total_recycles());
    layer["orchestrator.recycles"] = recycles;
    layer["orchestrator.append.calls"] = static_cast<double>(append_calls);
    layer["orchestrator.append.rows"] = static_cast<double>(append_rows);
    layer["orchestrator.append.wall_s"] =
        tracer.total("append_flowdb_store", run).wall_s;
    // The service's appends are this workload's FlowDB ingest.
    layer["flowdb.append.rows"] = static_cast<double>(append_rows);
    layer["flowdb.append.wall_s"] = layer["orchestrator.append.wall_s"];
    layer["flowdb.compact.wall_s"] =
        tracer.total("compact_segments", run).wall_s;
    layer["flowdb.compact.segments_merged"] =
        static_cast<double>(segments_before - segments_after);
    layer["flowdb.bytes_written_per_row"] =
        append_rows ? static_cast<double>(store_bytes) /
                          static_cast<double>(append_rows)
                    : 0;
    layer["flowdb.open.wall_ms_p50"] = tracer.total("open", run).wall_s * 1e3;
  }
  b.num["failed"] = static_cast<double>(failed);
  record_failures(b, failures);
  return b;
}

}  // namespace

Outcome run_detonate(const Options& options, Tracer& tracer) {
  Outcome out;
  // Runs in the iteration's child process; the store lives only as long
  // as the batch.
  auto batch = [&](unsigned threads) {
    const std::string dir =
        options.scratch + "/detonate-store-" + std::to_string(tracer.run());
    Record r = run_batch(options.seed, threads, dir, tracer);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return r;
  };

  // Untimed reference at one thread.
  tracer.begin_run();
  const Record reference = isolated(tracer, [&] { return batch(1); }, 0);
  out.account(reference, "reference batch");
  const auto digest = reference.text.find("digest");
  const std::string reference_digest =
      digest == reference.text.end() ? "" : digest->second;
  out.line("detonate reference digest (1 thread): " + reference_digest);

  const auto records =
      repeat_isolated(options, tracer, [&] { return batch(kThreads); });
  for (const auto& r : records) out.account(r, "detonate batch");
  out.check_digests(records, reference_digest);
  out.set_e2e(records, "jobs_per_s", "jobs/s", "slice");
  std::vector<double> sim_rates;
  for (const auto& r : records) sim_rates.push_back(r.get("sim_rate"));
  out.line(util::format("sim_rate %.6f sim-s/s (median of %zu batches)",
                        median(sim_rates), sim_rates.size()));

  if (options.trace) {
    out.set_layers(records);
    auto& layer = out.layer;
    const double wall = layer["core.run_for.wall_s"];
    const double events = layer["netsim.events"];
    const double epochs = layer["netsim.lockstep.epochs"];
    layer["netsim.ns_per_event"] = events > 0 ? wall * 1e9 / events : 0;
    layer["netsim.lockstep.us_per_epoch"] =
        epochs > 0 ? wall * 1e6 / epochs : 0;
    layer["netsim.lockstep.coord_s"] = wall - reference.get("run_for_s");
    out.line(util::format("run_for wall: %.6f s at %u threads, %.6f s at 1 "
                          "thread; coordination %.6f s",
                          wall, kThreads, reference.get("run_for_s"),
                          layer["netsim.lockstep.coord_s"]));
  }
  return out;
}

}  // namespace gqbench
