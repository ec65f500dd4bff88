// Workload `flowdb`: one closed-loop client against a segmented FlowDB
// store; no simulation runs. Set-up writes kBaseSegments synthetic
// segments (s7-style rows, every prunable dimension keyed off the
// segment index) and opens a reader. The client then runs kCycles
// cycles, each of kQueriesPerCycle queries followed by one write: an
// appended segment, and every kCompactEvery-th write a compaction too,
// with the reader reopened after each write. Queries mix prunable
// selective filters (time window, VLAN, endpoint), non-prunable scans
// (verdict, port) and an aggregate by tenant. Writes beside reads make a
// read-side gain that slows ingest or compaction show as a regression.
//
// A reference round runs the same schedule first, untimed, and answers
// every query with a prune-off serial scan as well; each timed round's
// answers must hash the same, query by query.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>

#include "common.h"
#include "flowdb/store.h"
#include "util/rng.h"
#include "util/strings.h"

namespace gqbench {

using namespace gq;

namespace {

constexpr std::size_t kBaseSegments = 4;
constexpr std::size_t kBaseRows = 2 * flowdb::kScanChunk;
constexpr std::size_t kAppendRows = 4096;
constexpr std::size_t kCycles = 10;
constexpr std::size_t kQueriesPerCycle = 12;
constexpr std::size_t kCompactEvery = 3;
constexpr std::size_t kMaxSegments = 6;
/// Both scan threads share the round's one CPU (see isolated()).
constexpr unsigned kScanThreads = 2;
constexpr std::int64_t kSlabUsec = 20'000'000;  // Per-segment time slab.
constexpr std::int64_t kRowGapUsec = 500;

/// One synthetic segment, after s7's synth_segment: disjoint time slab,
/// one VLAN, tenants striped index % 6, per-segment endpoint /24s.
std::vector<flowdb::Row> synth_rows(std::uint64_t seed, std::size_t index,
                                    std::size_t rows) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ull + index * 7919);
  std::vector<flowdb::Row> out;
  out.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    flowdb::Row row;
    row.proto = rng.chance(0.7) ? pkt::FlowProto::kTcp : pkt::FlowProto::kUdp;
    row.src = {util::Ipv4Addr(10, 20, static_cast<std::uint8_t>(index),
                              static_cast<std::uint8_t>(rng.below(200) + 1)),
               static_cast<std::uint16_t>(rng.range(1024, 65000))};
    row.dst = {util::Ipv4Addr(10, static_cast<std::uint8_t>(120 + index), 0,
                              static_cast<std::uint8_t>(rng.below(64) + 1)),
               static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : 25)};
    row.vlan = static_cast<std::uint16_t>(200 + index);
    row.tenant = util::format("seg-t%zu", index % 6);
    row.job = index * 1000 + rng.below(16) + 1;
    row.verdict = static_cast<std::uint8_t>(1 + rng.below(6));
    row.source = static_cast<std::uint8_t>(rng.below(3));
    row.policy = "default";
    row.tap = "bench";
    row.packets = 1 + rng.below(200);
    row.bytes = row.packets * (60 + rng.below(1400));
    row.first_usec = static_cast<std::int64_t>(index) * kSlabUsec +
                     static_cast<std::int64_t>(i) * kRowGapUsec;
    row.last_usec = row.first_usec + static_cast<std::int64_t>(rng.below(900));
    out.push_back(std::move(row));
  }
  return out;
}

enum class Kind { kSelective, kScan, kAggregate };

struct Query {
  Kind kind = Kind::kSelective;
  flowdb::Filter filter;
};

/// Query `q` of the schedule. Its kind and cost class depend only on its
/// slot in the cycle, so every seed runs the same mix; the seed picks the
/// values (which base segment, verdict, port or address).
Query make_query(util::Rng& rng, std::size_t q) {
  // Selective kinds by slot; base segments all have kBaseRows rows.
  enum Sel { kWindow, kVlan, kEndpoint };
  constexpr Sel kSelective[] = {kWindow, kVlan,   kEndpoint, kWindow,
                                kVlan,   kEndpoint, kVlan,   kEndpoint};
  Query query;
  const std::size_t slot = q % kQueriesPerCycle;
  const std::size_t seg = rng.below(kBaseSegments);
  if (slot < std::size(kSelective)) {
    switch (kSelective[slot]) {
      case kWindow: {  // A 3-second window inside one segment's slab.
        const auto since = static_cast<std::int64_t>(seg) * kSlabUsec +
                           static_cast<std::int64_t>(rng.below(10)) * 100'000;
        query.filter.since_usec = since;
        query.filter.until_usec = since + 3'000'000;
        break;
      }
      case kVlan:
        query.filter.vlan = static_cast<std::uint16_t>(200 + seg);
        break;
      case kEndpoint:
        query.filter.endpoint = util::Ipv4Addr(
            10, static_cast<std::uint8_t>(120 + seg), 0,
            static_cast<std::uint8_t>(rng.below(64) + 1));
        break;
    }
  } else if (slot == std::size(kSelective)) {
    query.kind = Kind::kScan;
    query.filter.verdict = static_cast<std::uint8_t>(1 + rng.below(6));
  } else if (slot == std::size(kSelective) + 1) {
    query.kind = Kind::kScan;
    query.filter.port = rng.chance(0.5) ? 80 : 25;
  } else {
    query.kind = Kind::kAggregate;
  }
  return query;
}

std::uint64_t hash_rows(const std::vector<std::uint64_t>& rows) {
  Fnv1a h;
  h.add(std::string_view(reinterpret_cast<const char*>(rows.data()),
                         rows.size() * sizeof rows[0]));
  return h.hash;
}

std::uint64_t hash_aggs(const std::vector<flowdb::Agg>& aggs) {
  Fnv1a h;
  for (const auto& a : aggs)
    h.line(util::format("%s %llu %llu %llu", a.label.c_str(),
                        static_cast<unsigned long long>(a.flows),
                        static_cast<unsigned long long>(a.packets),
                        static_cast<unsigned long long>(a.bytes)));
  return h.hash;
}

/// One round. With `reference` empty it is the reference round: every
/// answer is also computed by a serial prune-off scan, the two must
/// agree, and text["hashes"] lists the answers' hashes. Otherwise each
/// answer's hash must equal reference[q].
Record run_round(std::uint64_t seed, const std::string& dir,
                 const std::vector<std::uint64_t>& reference, Tracer& tracer) {
  Record rec;
  const bool is_reference = reference.empty();
  const std::uint64_t run = tracer.run();
  auto round_span = tracer.span("flowdb.round");
  std::uint64_t failed = 0, attempted = 0;
  std::vector<std::string> failures;
  auto failure = [&](std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  };

  // Inputs first, untimed: the base segments and every append's rows.
  std::vector<std::vector<flowdb::Row>> base;
  for (std::size_t s = 0; s < kBaseSegments; ++s)
    base.push_back(synth_rows(seed, s, kBaseRows));
  std::vector<std::vector<flowdb::Row>> appends;
  for (std::size_t c = 0; c < kCycles; ++c)
    appends.push_back(synth_rows(seed, kBaseSegments + c, kAppendRows));

  const auto setup_start = Clock::now();
  std::optional<flowdb::SegmentedStore> store;
  std::optional<flowdb::SegmentedReader> reader;
  std::uint64_t expected_rows = 0;
  {
    auto span = tracer.span("setup");
    store = flowdb::SegmentedStore::open(dir);
    if (!store) {
      rec.text["error"] = "cannot open store " + dir;
      return rec;
    }
    for (auto& rows : base) {
      flowdb::Writer writer;
      for (auto& row : rows) writer.add(std::move(row));
      if (!store->append_segment(writer)) failure("base append failed");
      expected_rows += kBaseRows;
    }
    reader = flowdb::SegmentedReader::open(dir);
  }
  rec.num["setup_s"] = seconds_since(setup_start);
  if (!reader) {
    rec.text["error"] = "cannot open reader";
    return rec;
  }

  auto reopen = [&] {
    auto span = tracer.span("open");
    const auto start = Clock::now();
    reader = flowdb::SegmentedReader::open(dir);
    rec.series["open_ms"].push_back(seconds_since(start) * 1e3);
    ++attempted;
    if (!reader)
      failure("reader reopen failed");
    else if (reader->rows() != expected_rows)
      failure(util::format("reopened store holds %llu rows, expected %llu",
                           static_cast<unsigned long long>(reader->rows()),
                           static_cast<unsigned long long>(expected_rows)));
  };

  util::Rng rng(seed ^ 0xF10DB);
  flowdb::ScanStats stats_total;
  std::vector<std::uint64_t> hashes;
  auto& query_ms = rec.series["op_ms"];
  double append_s = 0, compact_s = 0, append_rows = 0, merged = 0;
  double appended_bytes = 0;
  // Throughput is operations per second of operation time: the client
  // is closed-loop, and the answer checks between operations are not
  // part of its work.
  std::uint64_t ops = 0, q = 0;
  double busy_s = 0;
  for (std::size_t c = 0; c < kCycles && reader; ++c) {
    for (std::size_t i = 0; i < kQueriesPerCycle; ++i, ++q) {
      const Query query = make_query(rng, q);
      std::uint64_t hash = 0;
      bool empty = false;
      const auto start = Clock::now();
      if (query.kind == Kind::kAggregate) {
        auto span = tracer.span("aggregate");
        const auto aggs = reader->aggregate_all(flowdb::GroupBy::kTenant);
        query_ms.push_back(seconds_since(start) * 1e3);
        busy_s += query_ms.back() / 1e3;
        empty = !aggs || aggs->empty();
        if (aggs) hash = hash_aggs(*aggs);
      } else {
        flowdb::ScanStats stats;
        flowdb::ScanOptions options;
        options.threads = kScanThreads;
        options.stats = &stats;
        std::optional<std::vector<std::uint64_t>> rows;
        {
          auto span = tracer.span("scan");
          rows = reader->scan(query.filter, options);
        }
        query_ms.push_back(seconds_since(start) * 1e3);
        busy_s += query_ms.back() / 1e3;
        empty = !rows || rows->empty();
        if (rows) hash = hash_rows(*rows);
        stats_total.segments_pruned += stats.segments_pruned;
        stats_total.segments_scanned += stats.segments_scanned;
        stats_total.chunks_pruned += stats.chunks_pruned;
        stats_total.chunks_scanned += stats.chunks_scanned;
        stats_total.rows_scanned += stats.rows_scanned;
        stats_total.rows_matched += stats.rows_matched;
      }
      ++ops;
      ++attempted;
      hashes.push_back(hash);
      if (empty) failure(util::format("query %llu: empty or failed",
                                      static_cast<unsigned long long>(q)));
      if (is_reference) {
        // The same question by a serial, prune-off scan.
        flowdb::ScanOptions serial;
        serial.prune = false;
        const auto rows = reader->scan(query.filter, serial);
        std::uint64_t want = 0;
        if (query.kind == Kind::kAggregate) {
          const auto aggs =
              rows ? reader->aggregate(*rows, flowdb::GroupBy::kTenant)
                   : std::nullopt;
          if (aggs) want = hash_aggs(*aggs);
        } else if (rows) {
          want = hash_rows(*rows);
        }
        if (want != hash)
          failure(util::format("query %llu differs from the prune-off scan",
                               static_cast<unsigned long long>(q)));
      } else if (q >= reference.size() || reference[q] != hash) {
        failure(util::format("query %llu answer differs from the reference",
                             static_cast<unsigned long long>(q)));
      }
    }

    // Write: append a fresh segment; every kCompactEvery-th, compact.
    {
      const auto start = Clock::now();
      const std::uint64_t bytes_before = store->manifest().total_bytes();
      {
        auto span = tracer.span("append_segment");
        flowdb::Writer writer;
        for (auto& row : appends[c]) writer.add(std::move(row));
        ++attempted;
        if (!store->append_segment(writer)) failure("append failed");
      }
      append_s += seconds_since(start);
      append_rows += kAppendRows;
      appended_bytes +=
          static_cast<double>(store->manifest().total_bytes() - bytes_before);
      expected_rows += kAppendRows;
      ++ops;
      if ((c + 1) % kCompactEvery == 0) {
        const auto compact_start = Clock::now();
        const std::size_t before = store->manifest().segments.size();
        {
          auto span = tracer.span("compact_segments");
          ++attempted;
          if (!store->compact_segments(kMaxSegments))
            failure("compaction failed");
        }
        merged += static_cast<double>(before -
                                      store->manifest().segments.size());
        compact_s += seconds_since(compact_start);
        ++ops;
      }
      reopen();
      busy_s += seconds_since(start);
    }
  }
  rec.num["rate"] = static_cast<double>(ops) / busy_s;
  rec.num["ingest_rows_per_s"] = append_rows / (append_s + compact_s);
  rec.num["attempted"] = static_cast<double>(attempted);
  rec.num["failed"] = static_cast<double>(failed);
  record_failures(rec, failures);

  Fnv1a digest;
  for (const auto h : hashes) digest.add(std::to_string(h) + ",");
  rec.text["digest"] = util::format(
      "rows=%llu queries=%llu answers=%016llx",
      static_cast<unsigned long long>(expected_rows),
      static_cast<unsigned long long>(q),
      static_cast<unsigned long long>(digest.hash));
  if (is_reference) {
    std::string list;
    for (const auto h : hashes) list += std::to_string(h) + " ";
    rec.text["hashes"] = list;
  }

  if (tracer.enabled()) {
    auto& layer = rec.layer;
    layer["flowdb.open.wall_ms_p50"] = median(rec.series["open_ms"]);
    layer["flowdb.scan.wall_s"] = tracer.total("scan", run).wall_s;
    layer["flowdb.aggregate.wall_s"] = tracer.total("aggregate", run).wall_s;
    layer["flowdb.scan.segments_pruned"] =
        static_cast<double>(stats_total.segments_pruned);
    layer["flowdb.scan.segments_scanned"] =
        static_cast<double>(stats_total.segments_scanned);
    layer["flowdb.scan.chunks_pruned"] =
        static_cast<double>(stats_total.chunks_pruned);
    layer["flowdb.scan.chunks_scanned"] =
        static_cast<double>(stats_total.chunks_scanned);
    layer["flowdb.scan.rows_scanned"] =
        static_cast<double>(stats_total.rows_scanned);
    layer["flowdb.scan.rows_matched"] =
        static_cast<double>(stats_total.rows_matched);
    layer["flowdb.rows_scanned_per_match"] =
        stats_total.rows_matched
            ? static_cast<double>(stats_total.rows_scanned) /
                  static_cast<double>(stats_total.rows_matched)
            : 0;
    layer["flowdb.append.rows"] = append_rows;
    layer["flowdb.append.wall_s"] = tracer.total("append_segment", run).wall_s;
    layer["flowdb.compact.wall_s"] =
        tracer.total("compact_segments", run).wall_s;
    layer["flowdb.compact.segments_merged"] = merged;
    layer["flowdb.bytes_written_per_row"] =
        append_rows > 0 ? appended_bytes / append_rows : 0;
  }
  return rec;
}

}  // namespace

Outcome run_flowdb(const Options& options, Tracer& tracer) {
  Outcome out;
  std::vector<std::uint64_t> reference;
  // Runs in the round's child process; the store lives only as long as
  // the round.
  auto round = [&] {
    const std::string dir =
        options.scratch + "/flowdb-store-" + std::to_string(tracer.run());
    Record r = run_round(options.seed, dir, reference, tracer);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return r;
  };

  tracer.begin_run();
  const Record ref = isolated(tracer, round, 0);
  out.account(ref, "reference round");
  {
    std::istringstream in(ref.text.count("hashes") ? ref.text.at("hashes")
                                                   : std::string());
    for (std::uint64_t h; in >> h;) reference.push_back(h);
  }
  const std::string digest =
      ref.text.count("digest") ? ref.text.at("digest") : std::string();
  out.line("flowdb reference digest (prune-off serial answers): " + digest);
  if (reference.empty()) {
    out.fail("reference round produced no answers");
    ++out.failed;
    return out;
  }

  const auto records = repeat_isolated(options, tracer, round);
  for (const auto& r : records) out.account(r, "flowdb round");
  out.check_digests(records, digest);
  out.set_e2e(records, "ops_per_s", "ops/s", "query");
  std::vector<double> ingest;
  for (const auto& r : records) ingest.push_back(r.get("ingest_rows_per_s"));
  out.line(util::format("ingest_rows_per_s %.1f rows/s (median of %zu)",
                        median(ingest), ingest.size()));
  if (options.trace) out.set_layers(records);
  return out;
}

}  // namespace gqbench
