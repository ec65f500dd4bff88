// FlowDB store + query engine coverage (src/flowdb). The FlowDbSmoke
// suite doubles as the `flowdb_smoke` ctest lane: encode/parse/open
// round trips, predicate scans checked against brute force over
// reconstructed rows, the serial-vs-parallel bit-identity contract at
// 1/2/4 threads, aggregation kernels, and the verdict-distribution
// diff gate, each run on a one-segment store (OneSegmentStore).
// FlowDbReject covers the load-time rejection contract: corrupt
// footers, truncation, self-declared-length lies and retired format
// versions must all come back nullopt, never a crash or over-read.
// FlowDbSeal pins the footer's seal hash (XXH64) and FlowDbAggregate
// holds the grouped aggregate kernel (detail::AggBuckets) to a per-row
// reference.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "flowdb/flowdb.h"
#include "flowdb/query.h"
#include "flowdb/scan_impl.h"
#include "flowdb/store.h"
#include "obs/metrics.h"
#include "packet/frame.h"
#include "shim/shim.h"
#include "trace/tap.h"
#include "util/rng.h"
#include "util/strings.h"

namespace gq {
namespace flowdb {

// Readable gtest failure messages for aggregate comparisons.
void PrintTo(const Agg& agg, std::ostream* os) {
  *os << "{" << agg.label << " flows=" << agg.flows
      << " packets=" << agg.packets << " bytes=" << agg.bytes << "}";
}

}  // namespace flowdb

namespace {

flowdb::Row sample_row(std::uint64_t i, util::Rng& rng) {
  flowdb::Row row;
  row.proto = rng.chance(0.7) ? pkt::FlowProto::kTcp : pkt::FlowProto::kUdp;
  row.src = {util::Ipv4Addr(10, 9, 0, static_cast<std::uint8_t>(i % 200)),
             static_cast<std::uint16_t>(1024 + rng.below(60000))};
  row.dst = {util::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
             static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : 25)};
  row.vlan = static_cast<std::uint16_t>(100 + rng.below(8));
  const char* tenants[] = {"", "acme", "umbrella", "tyrell"};
  row.tenant = tenants[rng.below(4)];
  row.job = rng.below(32);
  if (rng.chance(0.8)) {
    row.verdict = static_cast<std::uint8_t>(1 + rng.below(6));
    row.source = static_cast<std::uint8_t>(rng.below(3));
    row.policy = rng.chance(0.5) ? "quarantine" : "default";
  }
  row.tap = rng.chance(0.5) ? "upstream" : "job-tap";
  row.packets = 1 + rng.below(100);
  row.bytes = row.packets * (60 + rng.below(1400));
  row.first_usec = static_cast<std::int64_t>(i) * 500;
  row.last_usec = row.first_usec + static_cast<std::int64_t>(rng.below(10000));
  const auto locs = rng.below(4);
  for (std::uint64_t l = 0; l < locs; ++l)
    row.locations.push_back({rng.below(8), rng.below(4096)});
  return row;
}

flowdb::Writer sample_writer(std::size_t rows, std::uint64_t seed) {
  util::Rng rng(seed);
  flowdb::Writer writer;
  for (std::size_t i = 0; i < rows; ++i) writer.add(sample_row(i, rng));
  return writer;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string temp_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir.string();
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// `writer`'s rows as the one segment of a fresh store, opened for
/// queries — how the scan, aggregate and diff tests query a segment.
/// The directory is named after the running test and process (ctest
/// runs tests as parallel processes) and removed with the object.
class OneSegmentStore {
 public:
  explicit OneSegmentStore(const flowdb::Writer& writer,
                           const char* tag = "store") {
    const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = temp_dir(util::format("flowdb_%s_%s_%d_%s", test->test_suite_name(),
                                 test->name(), static_cast<int>(::getpid()),
                                 tag)
                        .c_str());
    auto store = flowdb::SegmentedStore::open(dir_);
    if (store && store->append_segment(writer))
      reader_ = flowdb::SegmentedReader::open(dir_);
  }
  ~OneSegmentStore() {
    reader_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  OneSegmentStore(const OneSegmentStore&) = delete;
  OneSegmentStore& operator=(const OneSegmentStore&) = delete;

  explicit operator bool() const { return reader_.has_value(); }
  flowdb::SegmentedReader& operator*() { return *reader_; }
  flowdb::SegmentedReader* operator->() { return &*reader_; }

 private:
  std::string dir_;
  std::optional<flowdb::SegmentedReader> reader_;
};

TEST(FlowDbSmoke, EncodeParseRoundTripPreservesEveryRow) {
  util::Rng rng(0xFDB0001);
  flowdb::Writer writer;
  std::vector<flowdb::Row> originals;
  for (std::size_t i = 0; i < 512; ++i) {
    originals.push_back(sample_row(i, rng));
    writer.add(originals.back());
  }
  auto reader = flowdb::Reader::parse(writer.encode());
  ASSERT_TRUE(reader);
  ASSERT_EQ(reader->rows(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i)
    EXPECT_EQ(reader->row(i), originals[i]) << "row " << i;
}

TEST(FlowDbSmoke, MmapOpenMatchesInMemoryParse) {
  const auto writer = sample_writer(256, 0xFDB0002);
  const auto bytes = writer.encode();
  const auto path = temp_path("flowdb_test_open.fdb");
  write_bytes(path, bytes);
  auto mapped = flowdb::Reader::open(path);
  auto parsed = flowdb::Reader::parse(bytes);
  ASSERT_TRUE(mapped);
  ASSERT_TRUE(parsed);
  ASSERT_EQ(mapped->rows(), parsed->rows());
  EXPECT_EQ(mapped->file_bytes(), bytes.size());
  for (std::uint64_t i = 0; i < mapped->rows(); ++i)
    ASSERT_EQ(mapped->row(i), parsed->row(i)) << "row " << i;
  std::filesystem::remove(path);
}

TEST(FlowDbSmoke, EncodeIsDeterministic) {
  EXPECT_EQ(sample_writer(300, 0xFDB0003).encode(),
            sample_writer(300, 0xFDB0003).encode());
}

TEST(FlowDbSmoke, ScanPredicatesMatchBruteForce) {
  const auto writer = sample_writer(20'000, 0xFDB0004);
  OneSegmentStore store(writer);
  ASSERT_TRUE(store);

  std::vector<flowdb::Filter> filters;
  flowdb::Filter f;
  f.verdict = static_cast<std::uint8_t>(shim::Verdict::kDrop);
  filters.push_back(f);
  f = {};
  f.verdict = 0;  // Never-annotated flows.
  filters.push_back(f);
  f = {};
  f.tenant = "acme";
  filters.push_back(f);
  f = {};
  f.tenant = "no-such-tenant";  // Absent from dictionary: matches nothing.
  filters.push_back(f);
  f = {};
  f.port = 80;
  filters.push_back(f);
  f = {};
  f.prefix = util::Ipv4Net(util::Ipv4Addr(10, 9, 0, 0), 16);
  filters.push_back(f);
  f = {};
  f.since_usec = 1'000'000;
  f.until_usec = 3'000'000;
  filters.push_back(f);
  f = {};
  f.proto = pkt::FlowProto::kUdp;
  f.vlan = 103;
  filters.push_back(f);
  f = {};
  f.tenant = "umbrella";
  f.verdict = static_cast<std::uint8_t>(shim::Verdict::kForward);
  f.source = static_cast<std::uint8_t>(shim::VerdictSource::kTable);
  filters.push_back(f);

  for (std::size_t fi = 0; fi < filters.size(); ++fi) {
    const auto& filter = filters[fi];
    const auto matches = store->scan(filter).value();
    // Brute force over reconstructed rows.
    std::vector<std::uint64_t> expected;
    for (std::uint64_t i = 0; i < store->rows(); ++i) {
      const auto row = store->row(i).value();
      if (filter.verdict && row.verdict != *filter.verdict) continue;
      if (filter.source && (row.verdict == 0 || row.source != *filter.source))
        continue;
      if (filter.tenant && row.tenant != *filter.tenant) continue;
      if (filter.port && row.src.port != *filter.port &&
          row.dst.port != *filter.port)
        continue;
      if (filter.prefix && !filter.prefix->contains(row.src.addr) &&
          !filter.prefix->contains(row.dst.addr))
        continue;
      if (filter.vlan && row.vlan != *filter.vlan) continue;
      if (filter.proto && row.proto != *filter.proto) continue;
      if (filter.since_usec && row.last_usec < *filter.since_usec) continue;
      if (filter.until_usec && row.first_usec > *filter.until_usec) continue;
      expected.push_back(i);
    }
    EXPECT_EQ(matches, expected) << "filter " << fi;
  }
}

TEST(FlowDbSmoke, ParallelScanBitIdenticalAt124Threads) {
  // > kScanChunk rows so the parallel path actually splits chunks.
  const auto writer = sample_writer(50'000, 0xFDB0005);
  OneSegmentStore store(writer);
  ASSERT_TRUE(store);
  flowdb::Filter filter;
  filter.port = 80;
  const auto serial = store->scan(filter).value();
  EXPECT_FALSE(serial.empty());
  for (const unsigned threads : {2u, 4u}) {
    flowdb::ScanOptions options;
    options.threads = threads;
    EXPECT_EQ(store->scan(filter, options).value(), serial)
        << threads << " threads";
  }
}

TEST(FlowDbSmoke, AggregatesMatchBruteForce) {
  const auto writer = sample_writer(10'000, 0xFDB0006);
  OneSegmentStore store(writer);
  ASSERT_TRUE(store);
  std::uint64_t want_packets = 0, want_bytes = 0;
  for (std::uint64_t i = 0; i < store->rows(); ++i) {
    const auto row = store->row(i).value();
    want_packets += row.packets;
    want_bytes += row.bytes;
  }
  for (const auto group :
       {flowdb::GroupBy::kVerdict, flowdb::GroupBy::kTenant,
        flowdb::GroupBy::kPolicy, flowdb::GroupBy::kTap}) {
    const auto aggs = store->aggregate_all(group).value();
    std::uint64_t flows = 0, packets = 0, bytes = 0;
    for (const auto& agg : aggs) {
      flows += agg.flows;
      packets += agg.packets;
      bytes += agg.bytes;
      EXPECT_FALSE(agg.label.empty());
    }
    EXPECT_EQ(flows, store->rows());
    EXPECT_EQ(packets, want_packets);
    EXPECT_EQ(bytes, want_bytes);
    // Label-sorted, no duplicates.
    for (std::size_t i = 1; i < aggs.size(); ++i)
      EXPECT_LT(aggs[i - 1].label, aggs[i].label);
  }
}

TEST(FlowDbSmoke, DiffVerdictsGatesPerturbedDistributions) {
  const auto base = sample_writer(8'000, 0xFDB0007);
  OneSegmentStore a(base, "a");
  OneSegmentStore b(base, "b");
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  // Same store: identical distribution, zero delta.
  EXPECT_TRUE(flowdb::diff_verdicts(*a, *b).value().within(0.0));

  // Perturb: force every verdict to kDrop.
  util::Rng rng(0xFDB0007);
  flowdb::Writer perturbed;
  for (std::size_t i = 0; i < 8'000; ++i) {
    auto row = sample_row(i, rng);
    row.verdict = static_cast<std::uint8_t>(shim::Verdict::kDrop);
    row.source = static_cast<std::uint8_t>(shim::VerdictSource::kShim);
    perturbed.add(std::move(row));
  }
  OneSegmentStore c(perturbed, "c");
  ASSERT_TRUE(c);
  const auto diff = flowdb::diff_verdicts(*a, *c).value();
  EXPECT_FALSE(diff.within(0.02));
  EXPECT_GT(diff.max_delta, 0.1);
}

TEST(FlowDbSmoke, TenantJobCarryFromArchiveIntoStore) {
  trace::TraceTap tap("job-tap", {}, nullptr);
  for (int i = 0; i < 10; ++i) {
    const pkt::FlowKey key{
        pkt::FlowProto::kTcp,
        {util::Ipv4Addr(10, 9, 0, 1), std::uint16_t(1000 + i)},
        {util::Ipv4Addr(192, 150, 187, 12), 80}};
    tap.set_context(i % 2 ? "acme" : "umbrella", 40 + i);
    pkt::DecodedFrame frame;
    frame.eth.ethertype = pkt::kEtherTypeIpv4;
    frame.ip = pkt::Ipv4Packet{};
    frame.ip->src = key.src.addr;
    frame.ip->dst = key.dst.addr;
    frame.tcp = pkt::TcpSegment{};
    frame.tcp->src_port = key.src.port;
    frame.tcp->dst_port = key.dst.port;
    for (int p = 0; p < 3; ++p)
      tap.record(util::TimePoint{i * 10 + p}, frame.encode());
    if (i % 3 == 0)
      tap.annotate(key, 0, shim::Verdict::kRewrite, "tables",
                   shim::VerdictSource::kTable);
  }
  flowdb::Writer writer;
  writer.add_tap(tap);
  OneSegmentStore store(writer);
  ASSERT_TRUE(store);
  flowdb::Filter by_tenant;
  by_tenant.tenant = "acme";
  EXPECT_EQ(store->scan(by_tenant).value().size(), 5u);
  flowdb::Filter by_job;
  by_job.job = 43;
  const auto match = store->scan(by_job).value();
  ASSERT_EQ(match.size(), 1u);
  EXPECT_EQ(store->row(match[0]).value().tenant, "acme");
  flowdb::Filter by_source;
  by_source.source = static_cast<std::uint8_t>(shim::VerdictSource::kTable);
  EXPECT_EQ(store->scan(by_source).value().size(), 4u);
}

TEST(FlowDbSmoke, WriterPublishesMetrics) {
  obs::MetricsRegistry metrics;
  util::Rng rng(0xFDB0008);
  flowdb::Writer writer(&metrics);
  for (std::size_t i = 0; i < 32; ++i) writer.add(sample_row(i, rng));
  const auto bytes = writer.encode();
  EXPECT_EQ(metrics.counter("flowdb.rows_written").value(), 32u);
  EXPECT_EQ(metrics.counter("flowdb.bytes_written").value(), bytes.size());
  flowdb::ScanOptions options;
  options.metrics = &metrics;
  OneSegmentStore store(writer);
  ASSERT_TRUE(store);
  ASSERT_TRUE(store->scan({}, options));
  EXPECT_EQ(metrics.counter("flowdb.scans").value(), 1u);
  EXPECT_EQ(metrics.counter("flowdb.rows_scanned").value(), 32u);
  EXPECT_EQ(metrics.counter("flowdb.rows_matched").value(), 32u);
}

// --- Rejection contract ---------------------------------------------------

TEST(FlowDbReject, CorruptFooterHashRejected) {
  auto bytes = sample_writer(64, 0xFDB0101).encode();
  // Flip one payload byte: the footer hash no longer matches.
  bytes[bytes.size() / 2] ^= 0x01;
  EXPECT_FALSE(flowdb::Reader::parse(std::move(bytes)));
}

TEST(FlowDbReject, TruncationAlwaysRejected) {
  const auto bytes = sample_writer(64, 0xFDB0102).encode();
  util::Rng rng(0xFDB0102);
  for (int i = 0; i < 200; ++i) {
    const auto cut = rng.below(bytes.size());  // Strictly shorter.
    EXPECT_FALSE(flowdb::Reader::parse(
        {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)}))
        << "prefix " << cut;
  }
}

/// Re-seal a store's footer after an edit, so that only structural
/// validation (not the integrity check) can catch the edit.
std::vector<std::uint8_t> reseal(std::vector<std::uint8_t> bytes) {
  const std::size_t footer_offset = bytes.size() - 16;
  const std::uint64_t hash = flowdb::seal_hash({bytes.data(), footer_offset});
  std::memcpy(bytes.data() + footer_offset, &hash, 8);
  return bytes;
}

TEST(FlowDbReject, SelfDeclaredLengthLiesRejected) {
  // Corrupt individual header fields, then re-seal the footer hash so
  // only the header validation (not the integrity check) can catch it.
  const auto pristine = sample_writer(64, 0xFDB0103).encode();
  const auto poke_u64 = [&](std::size_t offset, std::uint64_t value) {
    auto bytes = pristine;
    std::memcpy(bytes.data() + offset, &value, 8);
    return reseal(std::move(bytes));
  };
  // FileHeader field offsets (see flowdb.h): row_count @16,
  // columns_offset @24, dict_offset @32, dict_count @40, blob_offset
  // @48, blob_bytes @56, loc_offset @64, loc_count @72,
  // footer_offset @80.
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(16, 1ull << 40)))
      << "row_count lie";
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(24, pristine.size() * 2)))
      << "columns_offset lie";
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(24, 12)))
      << "misaligned columns_offset";
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(32, pristine.size() * 2)))
      << "dict_offset lie";
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(40, 1ull << 40)))
      << "dict_count lie";
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(56, 1ull << 40)))
      << "blob_bytes lie";
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(72, 1ull << 40)))
      << "loc_count lie";
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(80, pristine.size())))
      << "footer_offset lie";
  // Control: resealing without corruption still parses.
  EXPECT_TRUE(flowdb::Reader::parse(reseal(pristine)));
}

TEST(FlowDbReject, BadMagicAndVersionRejected) {
  const auto pristine = sample_writer(8, 0xFDB0104).encode();
  {
    auto bytes = pristine;
    bytes[0] ^= 0xFF;
    EXPECT_FALSE(flowdb::Reader::parse(std::move(bytes)));
  }
  {
    auto bytes = pristine;
    bytes[8] = 0x7F;  // version
    EXPECT_FALSE(flowdb::Reader::parse(std::move(bytes)));
  }
  EXPECT_FALSE(flowdb::Reader::parse({}));
  EXPECT_FALSE(flowdb::Reader::open(temp_path("flowdb_no_such_store.fdb")));
}

TEST(FlowDbReject, Version2FilesAreRejected) {
  // Format v3 keeps no v2 read path: a file that claims version 2 fails
  // closed, whether its footer is resealed with the v3 seal or with the
  // FNV-1a footer a v2 writer would have produced.
  auto bytes = sample_writer(64, 0xFDB0106).encode();
  ASSERT_TRUE(flowdb::Reader::parse(bytes));
  const std::uint32_t v2 = 2;
  std::memcpy(bytes.data() + 8, &v2, sizeof v2);
  EXPECT_FALSE(flowdb::Reader::parse(reseal(bytes)));
  const std::size_t footer_offset = bytes.size() - 16;
  const std::uint64_t fnv = flowdb::fnv1a({bytes.data(), footer_offset});
  std::memcpy(bytes.data() + footer_offset, &fnv, 8);
  EXPECT_FALSE(flowdb::Reader::parse(std::move(bytes)));
}

// --- Segment seal (format v3) ---------------------------------------------

std::uint64_t seal_of(std::string_view text) {
  return flowdb::seal_hash(
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

TEST(FlowDbSeal, MatchesPublishedXxh64) {
  EXPECT_EQ(seal_of(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(seal_of("a"), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(seal_of("abc"), 0x44BC2CF5AD770999ull);
  // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tails.
  EXPECT_EQ(seal_of("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ull);
}

TEST(FlowDbSeal, EveryTailLengthIsDeterministic) {
  // Lengths 0..40 take the short path (< 32 bytes) and then one stripe
  // plus every 8-, 4- and 1-byte tail combination. Each must give the
  // same seal at any buffer alignment, whatever bytes lie around the
  // range, and every prefix must seal differently.
  util::Rng rng(0xFDB0201);
  std::vector<std::uint8_t> data(40);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  std::set<std::uint64_t> seen;
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::uint64_t seal = flowdb::seal_hash({data.data(), len});
    for (std::size_t shift = 0; shift < 8; ++shift) {
      std::vector<std::uint8_t> framed(shift + len + 8);
      for (auto& b : framed) b = static_cast<std::uint8_t>(rng.next());
      std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(len),
                framed.begin() + static_cast<std::ptrdiff_t>(shift));
      EXPECT_EQ(flowdb::seal_hash({framed.data() + shift, len}), seal)
          << "length " << len << " at offset " << shift;
    }
    EXPECT_TRUE(seen.insert(seal).second) << "length " << len;
  }
}

TEST(FlowDbSeal, EverySingleBitFlipChangesTheSeal) {
  util::Rng rng(0xFDB0202);
  std::vector<std::uint8_t> buf(4096);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  const std::uint64_t pristine = flowdb::seal_hash(buf);
  for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
    const auto mask = static_cast<std::uint8_t>(1u << (bit & 7));
    buf[bit >> 3] ^= mask;
    ASSERT_NE(flowdb::seal_hash(buf), pristine) << "bit " << bit;
    buf[bit >> 3] ^= mask;
  }
  EXPECT_EQ(flowdb::seal_hash(buf), pristine);
}

TEST(FlowDbReject, LyingLocationsAreClampedNotOverRead) {
  // A row whose loc_start/loc_count point past the shared location
  // array must come back clamped (possibly empty), never over-read.
  flowdb::Writer writer;
  util::Rng rng(0xFDB0105);
  for (std::size_t i = 0; i < 4; ++i) writer.add(sample_row(i, rng));
  auto bytes = writer.encode();
  auto pristine = flowdb::Reader::parse(bytes);
  ASSERT_TRUE(pristine);
  for (std::uint64_t i = 0; i < pristine->rows(); ++i) {
    const auto locs = pristine->locations_of(i);
    EXPECT_LE(locs.size(), 3u);
  }
  EXPECT_TRUE(pristine->locations_of(999).empty());
}

TEST(FlowDbSmoke, EmptyStoreRoundTrips) {
  flowdb::Writer writer;
  auto reader = flowdb::Reader::parse(writer.encode());
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->rows(), 0u);
  // Zero rows append no segment: the store is empty, and queries on it
  // answer empty.
  OneSegmentStore store(writer);
  ASSERT_TRUE(store);
  EXPECT_EQ(store->rows(), 0u);
  EXPECT_TRUE(store->scan({}).value().empty());
  EXPECT_TRUE(store->aggregate_all(flowdb::GroupBy::kVerdict).value().empty());
}

// --- Aggregate kernels vs. a per-row reference ----------------------------

/// The per-row aggregate the grouped kernels replaced: one label string
/// and one std::map probe per row. Kept here as the reference that the
/// detail::AggBuckets kernel must equal exactly.
std::vector<flowdb::Agg> reference_aggregate(
    const flowdb::Reader& reader, std::span<const std::uint64_t> rows,
    flowdb::GroupBy group) {
  const auto label_of = [&](std::uint64_t i) -> std::string {
    switch (group) {
      case flowdb::GroupBy::kVerdict: {
        const std::uint8_t v = reader.verdict()[i];
        return v == 0 ? "none"
                      : shim::verdict_name(static_cast<shim::Verdict>(v));
      }
      case flowdb::GroupBy::kTenant: {
        const auto name = reader.dict(reader.tenant()[i]);
        return name.empty() ? "-" : std::string(name);
      }
      case flowdb::GroupBy::kPolicy: {
        const auto name = reader.dict(reader.policy()[i]);
        return name.empty() ? "-" : std::string(name);
      }
      case flowdb::GroupBy::kTap: {
        const auto name = reader.dict(reader.tap()[i]);
        return name.empty() ? "-" : std::string(name);
      }
    }
    return "?";
  };
  std::map<std::string, flowdb::Agg> buckets;
  for (const std::uint64_t i : rows) {
    if (i >= reader.rows()) continue;
    flowdb::Agg& bucket = buckets[label_of(i)];
    bucket.flows += 1;
    bucket.packets += reader.packets()[i];
    bucket.bytes += reader.bytes()[i];
  }
  std::vector<flowdb::Agg> out;
  for (auto& [label, bucket] : buckets) {
    bucket.label = label;
    out.push_back(bucket);
  }
  return out;
}

void expect_aggregates_match_reference(const flowdb::Reader& reader,
                                       const std::vector<std::uint64_t>& rows,
                                       int store) {
  std::vector<std::uint64_t> all(reader.rows());
  std::iota(all.begin(), all.end(), 0);
  for (const auto group :
       {flowdb::GroupBy::kVerdict, flowdb::GroupBy::kTenant,
        flowdb::GroupBy::kPolicy, flowdb::GroupBy::kTap}) {
    flowdb::detail::AggBuckets some(group);
    some.add(reader, rows);
    EXPECT_EQ(std::move(some).take(), reference_aggregate(reader, rows, group))
        << "store " << store << " group " << static_cast<int>(group);
    flowdb::detail::AggBuckets every(group);
    every.add_all(reader);
    EXPECT_EQ(std::move(every).take(), reference_aggregate(reader, all, group))
        << "store " << store << " group " << static_cast<int>(group);
  }
}

/// Row ids for AggBuckets::add: in-range ids with duplicates, plus ids just
/// past the end and near the top of the id space.
std::vector<std::uint64_t> random_row_ids(util::Rng& rng, std::uint64_t n) {
  std::vector<std::uint64_t> rows;
  const auto count = rng.below(2 * n + 8);
  for (std::uint64_t k = 0; k < count; ++k) {
    switch (rng.below(8)) {
      case 0: rows.push_back(n + rng.below(4)); break;
      case 1: rows.push_back(~std::uint64_t{0} - rng.below(4)); break;
      default:
        if (n > 0) rows.push_back(rng.below(n));
    }
  }
  return rows;
}

/// Absolute offset of column `name`'s data array in a sealed store.
std::size_t column_data_offset(const std::vector<std::uint8_t>& bytes,
                               const char* name) {
  flowdb::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  for (std::uint32_t c = 0; c < header.column_count; ++c) {
    flowdb::ColumnDesc desc;
    std::memcpy(&desc,
                bytes.data() + header.columns_offset + c * sizeof desc,
                sizeof desc);
    if (std::strcmp(desc.name, name) == 0)
      return static_cast<std::size_t>(desc.offset);
  }
  return 0;
}

TEST(FlowDbAggregate, GroupedKernelsMatchPerRowReference) {
  util::Rng rng(0xFDB0401);
  for (int store = 0; store < 40; ++store) {
    const auto reader = flowdb::Reader::parse(
        sample_writer(rng.below(3000), rng.next()).encode());
    ASSERT_TRUE(reader);
    expect_aggregates_match_reference(
        *reader, random_row_ids(rng, reader->rows()), store);
  }
}

TEST(FlowDbAggregate, ResealedStoresMatchPerRowReference) {
  // Edits that leave the zone block valid, resealed so the store still
  // parses: policy/tap ids anywhere in or past the dictionary, tenant
  // ids past it on rows whose tenant is already empty (an out-of-range
  // id names "" too), arbitrary verdict bytes, and dictionary entries
  // no tenant uses turned empty or into duplicates of other names.
  util::Rng rng(0xFDB0402);
  for (int store = 0; store < 40; ++store) {
    auto bytes = sample_writer(1 + rng.below(500), rng.next()).encode();
    const auto pristine = flowdb::Reader::parse(bytes);
    ASSERT_TRUE(pristine);
    const std::uint64_t n = pristine->rows();
    const std::uint64_t dict_size = pristine->dict_size();
    const auto past_dict = [&]() -> std::uint32_t {
      return rng.chance(0.5)
                 ? static_cast<std::uint32_t>(dict_size + rng.below(2))
                 : 0xFFFFFFFFu - static_cast<std::uint32_t>(rng.below(4));
    };
    const auto any_id = [&]() -> std::uint32_t {
      return rng.chance(0.5) ? static_cast<std::uint32_t>(rng.below(dict_size))
                             : past_dict();
    };
    const auto poke_u32 = [&](const char* column, std::uint64_t row,
                              std::uint32_t value) {
      std::memcpy(bytes.data() + column_data_offset(bytes, column) + row * 4,
                  &value, 4);
    };
    std::set<std::uint32_t> tenant_ids;
    for (std::uint64_t r = 0; r < n; ++r) {
      const std::uint32_t tenant = pristine->tenant()[r];
      tenant_ids.insert(tenant);
      if (rng.chance(0.2)) poke_u32("policy", r, any_id());
      if (rng.chance(0.2)) poke_u32("tap", r, any_id());
      if (rng.chance(0.2)) {
        bytes[column_data_offset(bytes, "verdict") + r] =
            static_cast<std::uint8_t>(rng.next());
      }
      if (pristine->dict(tenant).empty() && rng.chance(0.5))
        poke_u32("tenant", r, past_dict());
    }
    flowdb::FileHeader header;
    std::memcpy(&header, bytes.data(), sizeof header);
    for (std::uint32_t id = 1; id < dict_size; ++id) {
      if (tenant_ids.count(id) || rng.chance(0.5)) continue;
      flowdb::DictEntry entry;
      const auto at = header.dict_offset + id * sizeof entry;
      if (rng.chance(0.5)) {
        std::memcpy(&entry, bytes.data() + at, sizeof entry);
        entry.len = 0;  // An empty name at a non-zero id.
      } else {
        // A duplicate of another entry's name.
        const auto other = rng.below(dict_size);
        std::memcpy(&entry,
                    bytes.data() + header.dict_offset + other * sizeof entry,
                    sizeof entry);
      }
      std::memcpy(bytes.data() + at, &entry, sizeof entry);
    }
    const auto reader = flowdb::Reader::parse(reseal(std::move(bytes)));
    ASSERT_TRUE(reader) << "store " << store;
    expect_aggregates_match_reference(*reader, random_row_ids(rng, n),
                                      store);
  }
}

// --- Zone-map / bloom pruning ---------------------------------------------

/// The canned filter set every scan test shares: the same queries the
/// brute-force differential exercises, now also run prune-on vs
/// prune-off (the skip-scan correctness contract: pruning may only
/// skip work, never change results).
std::vector<flowdb::Filter> canned_filters() {
  std::vector<flowdb::Filter> filters;
  flowdb::Filter f;
  f.verdict = static_cast<std::uint8_t>(shim::Verdict::kDrop);
  filters.push_back(f);
  f = {};
  f.verdict = 0;
  filters.push_back(f);
  f = {};
  f.tenant = "acme";
  filters.push_back(f);
  f = {};
  f.tenant = "no-such-tenant";
  filters.push_back(f);
  f = {};
  f.port = 80;
  filters.push_back(f);
  f = {};
  f.prefix = util::Ipv4Net(util::Ipv4Addr(10, 9, 0, 0), 16);
  filters.push_back(f);
  f = {};
  f.since_usec = 1'000'000;
  f.until_usec = 3'000'000;
  filters.push_back(f);
  f = {};
  f.since_usec = 1'000'000'000;  // Past every row: fully prunable.
  filters.push_back(f);
  f = {};
  f.proto = pkt::FlowProto::kUdp;
  f.vlan = 103;
  filters.push_back(f);
  f = {};
  f.vlan = 9999;  // Outside every zone's vlan range.
  filters.push_back(f);
  f = {};
  f.endpoint = util::Ipv4Addr(10, 9, 0, 77);
  filters.push_back(f);
  f = {};
  f.endpoint = util::Ipv4Addr(203, 0, 113, 200);  // Absent address.
  filters.push_back(f);
  f = {};
  f.tenant = "umbrella";
  f.verdict = static_cast<std::uint8_t>(shim::Verdict::kForward);
  f.source = static_cast<std::uint8_t>(shim::VerdictSource::kTable);
  filters.push_back(f);
  return filters;
}

TEST(FlowDbPrune, PruneOnAndOffAreByteIdentical) {
  // One-segment store: segment- and chunk-granularity pruning.
  const auto writer = sample_writer(50'000, 0xFDB0201);
  OneSegmentStore store(writer);
  ASSERT_TRUE(store);
  const auto filters = canned_filters();
  for (std::size_t fi = 0; fi < filters.size(); ++fi) {
    flowdb::ScanOptions off;
    off.prune = false;
    const auto full = store->scan(filters[fi], off).value();
    for (const unsigned threads : {1u, 2u, 4u}) {
      flowdb::ScanOptions on;
      on.threads = threads;
      EXPECT_EQ(store->scan(filters[fi], on).value(), full)
          << "filter " << fi << " at " << threads << " threads";
    }
  }
}

TEST(FlowDbPrune, ScanStatsAndCountersTrackPruning) {
  const auto writer = sample_writer(40'000, 0xFDB0202);
  OneSegmentStore store(writer);
  ASSERT_TRUE(store);
  flowdb::Filter unsatisfiable;
  unsatisfiable.since_usec = 1'000'000'000;  // Newer than every row.
  obs::MetricsRegistry metrics;
  flowdb::ScanStats stats;
  flowdb::ScanOptions options;
  options.stats = &stats;
  options.metrics = &metrics;
  EXPECT_TRUE(store->scan(unsatisfiable, options).value().empty());
  EXPECT_EQ(stats.segments_considered, 1u);
  EXPECT_EQ(stats.segments_pruned, 1u);  // Zone map kills the whole file.
  EXPECT_EQ(stats.rows_scanned, 0u);
  EXPECT_EQ(metrics.counter("flowdb.scan.segments_pruned").value(), 1u);
  EXPECT_EQ(metrics.counter("flowdb.rows_scanned").value(), 0u);

  // A satisfiable window prunes some chunks but keeps the segment.
  flowdb::Filter window;
  window.since_usec = 1'000'000;
  window.until_usec = 2'000'000;
  stats = {};
  const auto matches = store->scan(window, options).value();
  EXPECT_FALSE(matches.empty());
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_GT(stats.chunks_pruned, 0u);
  EXPECT_GT(stats.chunks_scanned, 0u);
  EXPECT_EQ(stats.rows_matched, matches.size());
}

/// Property: the planner never prunes a zone that covers a matching
/// row. Random row populations (including inverted first/last stamps)
/// against random filters; whenever brute force finds a match, both
/// zone_may_match and the end-to-end pruned scan must agree.
TEST(FlowDbPrune, ZoneNeverPrunesAMatchingRow) {
  util::Rng rng(0xFDB0203);
  const char* tenants[] = {"", "acme", "umbrella", "tyrell", "hooli"};
  for (int round = 0; round < 120; ++round) {
    const std::size_t n = 1 + rng.below(400);
    flowdb::Writer writer;
    std::vector<flowdb::Row> rows;
    for (std::size_t i = 0; i < n; ++i) {
      auto row = sample_row(i, rng);
      row.tenant = tenants[rng.below(std::size(tenants))];
      row.first_usec = static_cast<std::int64_t>(rng.below(1'000'000));
      // One row in ten has last < first — a malformed stamp the zone
      // fold and planner must stay safe-side on.
      row.last_usec =
          rng.chance(0.1)
              ? row.first_usec - static_cast<std::int64_t>(rng.below(5000))
              : row.first_usec + static_cast<std::int64_t>(rng.below(50'000));
      rows.push_back(row);
      writer.add(std::move(row));
    }
    OneSegmentStore store(writer);
    ASSERT_TRUE(store);

    for (int qi = 0; qi < 24; ++qi) {
      flowdb::Filter filter;
      if (rng.chance(0.4)) {
        filter.since_usec = static_cast<std::int64_t>(rng.below(1'200'000));
      }
      if (rng.chance(0.4)) {
        filter.until_usec = static_cast<std::int64_t>(rng.below(1'200'000));
      }
      if (rng.chance(0.3))
        filter.vlan = static_cast<std::uint16_t>(98 + rng.below(12));
      if (rng.chance(0.3)) filter.tenant = tenants[rng.below(5)];
      if (rng.chance(0.3)) {
        // Half the time an address actually present in some row.
        if (rng.chance(0.5) && !rows.empty()) {
          const auto& pick = rows[rng.below(rows.size())];
          filter.endpoint =
              rng.chance(0.5) ? pick.src.addr : pick.dst.addr;
        } else {
          filter.endpoint =
              util::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
        }
      }
      if (rng.chance(0.3))
        filter.port =
            static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : rng.below(65536));

      const auto matches_row = [&filter](const flowdb::Row& row) {
        if (filter.vlan && row.vlan != *filter.vlan) return false;
        if (filter.tenant && row.tenant != *filter.tenant) return false;
        if (filter.port && row.src.port != *filter.port &&
            row.dst.port != *filter.port)
          return false;
        if (filter.endpoint && row.src.addr != *filter.endpoint &&
            row.dst.addr != *filter.endpoint)
          return false;
        if (filter.since_usec && row.last_usec < *filter.since_usec)
          return false;
        if (filter.until_usec && row.first_usec > *filter.until_usec)
          return false;
        return true;
      };
      bool any = false;
      for (const auto& row : rows) any = any || matches_row(row);
      if (any) {
        EXPECT_TRUE(flowdb::zone_may_match(store->segment_zone(0), filter))
            << "round " << round << " query " << qi
            << ": zone pruned a segment holding a matching row";
      }
      // End to end: pruning must not change the result, matching or not.
      flowdb::ScanOptions off;
      off.prune = false;
      EXPECT_EQ(store->scan(filter).value(), store->scan(filter, off).value())
          << "round " << round << " query " << qi;
    }
  }
}

// --- Segmented store ------------------------------------------------------

TEST(FlowDbStore, ThreeSegmentsMatchOneSegment) {
  const auto dir = temp_dir("flowdb_store_roundtrip");
  auto store = flowdb::SegmentedStore::open(dir);
  ASSERT_TRUE(store);
  // Same rows, split across three appends vs one single-segment writer.
  util::Rng rng(0xFDB0301);
  flowdb::Writer whole;
  std::vector<flowdb::Row> rows;
  for (std::size_t seg = 0; seg < 3; ++seg) {
    flowdb::Writer part;
    for (std::size_t i = 0; i < 500; ++i) {
      auto row = sample_row(seg * 500 + i, rng);
      rows.push_back(row);
      whole.add(row);
      part.add(std::move(row));
    }
    ASSERT_TRUE(store->append_segment(part));
  }
  ASSERT_EQ(store->manifest().segments.size(), 3u);

  auto seg_reader = flowdb::SegmentedReader::open(dir);
  ASSERT_TRUE(seg_reader);
  ASSERT_EQ(seg_reader->rows(), rows.size());
  OneSegmentStore one(whole);
  ASSERT_TRUE(one);

  // Row reconstruction across segment boundaries.
  for (const std::uint64_t i : {0ull, 499ull, 500ull, 1250ull, 1499ull}) {
    const auto row = seg_reader->row(i);
    ASSERT_TRUE(row);
    EXPECT_EQ(*row, rows[i]) << "row " << i;
  }
  EXPECT_FALSE(seg_reader->row(rows.size()));

  // Scans agree with the one-segment store on global ids, with pruning
  // on and off and across thread counts.
  for (const auto& filter : canned_filters()) {
    const auto want = one->scan(filter).value();
    flowdb::ScanOptions off;
    off.prune = false;
    const auto full = seg_reader->scan(filter, off);
    ASSERT_TRUE(full);
    EXPECT_EQ(*full, want);
    for (const unsigned threads : {1u, 2u, 4u}) {
      flowdb::ScanOptions on;
      on.threads = threads;
      const auto pruned = seg_reader->scan(filter, on);
      ASSERT_TRUE(pruned);
      EXPECT_EQ(*pruned, want);
    }
  }

  // Aggregation merges across segments like the one-segment store.
  for (const auto group : {flowdb::GroupBy::kVerdict, flowdb::GroupBy::kTenant,
                           flowdb::GroupBy::kPolicy, flowdb::GroupBy::kTap}) {
    const auto seg_aggs = seg_reader->aggregate_all(group);
    ASSERT_TRUE(seg_aggs);
    const auto want_aggs = one->aggregate_all(group).value();
    ASSERT_EQ(seg_aggs->size(), want_aggs.size());
    for (std::size_t i = 0; i < want_aggs.size(); ++i) {
      EXPECT_EQ((*seg_aggs)[i].label, want_aggs[i].label);
      EXPECT_EQ((*seg_aggs)[i].flows, want_aggs[i].flows);
      EXPECT_EQ((*seg_aggs)[i].packets, want_aggs[i].packets);
      EXPECT_EQ((*seg_aggs)[i].bytes, want_aggs[i].bytes);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(FlowDbStore, ManifestSerializeParseRoundTrip) {
  flowdb::StoreManifest manifest;
  manifest.segments.push_back({"segment-000001.fdb", 10, 2048,
                               0x0123456789abcdefull, 0xfedcba9876543210ull});
  manifest.segments.push_back({"segment-000007.fdb", 0, 160,
                               0xffffffffffffffffull, 0ull});
  const auto text = manifest.serialize();
  const auto parsed = flowdb::StoreManifest::parse(text);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->segments, manifest.segments);
  EXPECT_EQ(parsed->serialize(), text);
  EXPECT_EQ(parsed->total_rows(), 10u);
  EXPECT_EQ(parsed->total_bytes(), 2208u);
}

TEST(FlowDbStore, HostileManifestsRejected) {
  using flowdb::StoreManifest;
  EXPECT_FALSE(StoreManifest::parse(""));
  EXPECT_FALSE(StoreManifest::parse("gq-flowdb-store 1\n"));  // Old format.
  EXPECT_FALSE(StoreManifest::parse("gq-flowdb-store 3\n"));
  EXPECT_TRUE(StoreManifest::parse("gq-flowdb-store 2\n"));
  const char* hostile[] = {
      "segment ../../etc/passwd 1 1 0000000000000000 0000000000000000\n",
      "segment /abs/path.fdb 1 1 0000000000000000 0000000000000000\n",
      "segment .hidden.fdb 1 1 0000000000000000 0000000000000000\n",
      "segment -rf.fdb 1 1 0000000000000000 0000000000000000\n",
      "segment a.fdb x 1 0000000000000000 0000000000000000\n",
      "segment a.fdb 1 1 000000000000000 0000000000000000\n",   // Short hash.
      "segment a.fdb 1 1 000000000000000G 0000000000000000\n",  // Bad digit.
      "segment a.fdb 1 1 0000000000000000 000000000000000\n",   // Short zone.
      "segment a.fdb 1 1 0000000000000000 000000000000000G\n",  // Bad zone.
      "segment a.fdb 1 1 0000000000000000\n",   // Missing zone hash (v1 line).
      "segment a.fdb 1 1\n",                    // Missing fields.
      "segment a.fdb 1 1 0000000000000000 0000000000000000 extra\n",
      "segmen a.fdb 1 1 0000000000000000 0000000000000000\n",
      "segment a.fdb 1 1 0000000000000000 0000000000000000\n"
      "segment a.fdb 2 2 0000000000000000 0000000000000000\n",  // Duplicate.
  };
  for (const char* body : hostile) {
    EXPECT_FALSE(StoreManifest::parse(std::string("gq-flowdb-store 2\n") +
                                      body))
        << body;
  }
}

TEST(FlowDbStore, CompactionIsDeterministicAndPreservesGlobalIds) {
  const auto dir_a = temp_dir("flowdb_store_compact_a");
  const auto dir_b = temp_dir("flowdb_store_compact_b");
  const auto build = [](const std::string& dir) {
    auto store = flowdb::SegmentedStore::open(dir);
    EXPECT_TRUE(store);
    util::Rng rng(0xFDB0302);
    // Uneven segment sizes so the size-tiered pick has real choices.
    for (const std::size_t rows : {700u, 80u, 90u, 600u, 50u, 60u, 400u}) {
      flowdb::Writer part;
      for (std::size_t i = 0; i < rows; ++i) part.add(sample_row(i, rng));
      EXPECT_TRUE(store->append_segment(part));
    }
    return store;
  };
  auto store_a = build(dir_a);
  auto store_b = build(dir_b);

  const auto store_bytes = [](const std::string& dir,
                              const flowdb::StoreManifest& manifest) {
    std::string all = manifest.serialize();
    for (const auto& seg : manifest.segments) {
      std::ifstream in(dir + "/" + seg.file, std::ios::binary);
      all.append(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    }
    return all;
  };
  EXPECT_EQ(store_bytes(dir_a, store_a->manifest()),
            store_bytes(dir_b, store_b->manifest()));

  // Snapshot pre-compaction scan results (global ids).
  auto pre_reader = flowdb::SegmentedReader::open(dir_a);
  ASSERT_TRUE(pre_reader);
  const auto pre_total = pre_reader->rows();
  std::vector<std::vector<std::uint64_t>> pre;
  for (const auto& filter : canned_filters()) {
    auto matches = pre_reader->scan(filter);
    ASSERT_TRUE(matches);
    pre.push_back(std::move(*matches));
  }

  ASSERT_TRUE(store_a->compact_segments(3));
  ASSERT_TRUE(store_b->compact_segments(3));
  EXPECT_EQ(store_a->manifest().segments.size(), 3u);
  EXPECT_EQ(store_bytes(dir_a, store_a->manifest()),
            store_bytes(dir_b, store_b->manifest()));
  // Old segment files are gone; only manifest entries remain on disk.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_a))
    if (entry.path().extension() == ".fdb") ++files;
  EXPECT_EQ(files, 3u);

  // Adjacent-only merges preserve row order, so every global id —
  // and therefore every scan result — survives compaction unchanged.
  auto post_reader = flowdb::SegmentedReader::open(dir_a);
  ASSERT_TRUE(post_reader);
  EXPECT_EQ(post_reader->rows(), pre_total);
  const auto filters = canned_filters();
  for (std::size_t fi = 0; fi < filters.size(); ++fi) {
    const auto matches = post_reader->scan(filters[fi]);
    ASSERT_TRUE(matches);
    EXPECT_EQ(*matches, pre[fi]) << "filter " << fi;
  }
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

TEST(FlowDbStore, TamperedSegmentsNeverScanWrong) {
  const auto dir = temp_dir("flowdb_store_tamper");
  auto store = flowdb::SegmentedStore::open(dir);
  ASSERT_TRUE(store);
  ASSERT_TRUE(store->append_segment(sample_writer(128, 0xFDB0303)));
  const std::string seg_path =
      dir + "/" + store->manifest().segments[0].file;
  ASSERT_TRUE(flowdb::SegmentedReader::open(dir));
  const auto sealed = read_bytes(seg_path);
  ASSERT_GT(sealed.size(), 2001u);

  // Mid-file flip without resealing: the tail read at open still
  // matches the manifest, but mapping the segment fails the footer
  // recompute — the scan comes back nullopt, never a wrong answer.
  {
    auto tampered = sealed;
    tampered[2000] ^= 0x01;
    write_bytes(seg_path, tampered);
    auto reader = flowdb::SegmentedReader::open(dir);
    ASSERT_TRUE(reader);
    EXPECT_FALSE(reader->scan({}));
    EXPECT_FALSE(reader->row(0));
  }

  // In-place (NON-resealed) zone lie: rewrite zone bytes while leaving
  // the sealed footer untouched, so the tail read's footer check still
  // matches the manifest. If such a lie narrowed the bounds or cleared
  // bloom bits, the planner would prune the segment and the Reader's
  // recompute-verify would never run — the manifest's zone-hash pin
  // must catch it at open instead. Sweep the whole ZoneMap: the
  // min/max bound fields and every bloom byte.
  {
    flowdb::FileHeader header;
    std::memcpy(&header, sealed.data(), sizeof header);
    std::vector<std::size_t> offsets;
    for (std::size_t at = 8; at < sizeof(flowdb::ZoneMap); at += 7)
      offsets.push_back(at);  // Skip row_count; stride covers the bloom.
    for (const std::size_t at : offsets) {
      auto tampered = sealed;
      // Zeroing narrows time/vlan/port maxima and clears bloom bits —
      // exactly the "prune what actually matches" direction; flip if
      // the byte is already zero so the file always really changes.
      std::uint8_t& b = tampered[header.zone_offset + at];
      b = b == 0 ? 0xFF : 0;
      write_bytes(seg_path, tampered);
      EXPECT_FALSE(flowdb::SegmentedReader::open(dir))
          << "unresealed zone edit at +" << at << " was not detected";
    }
    // Same attack on a ChunkZone time bound (chunk pruning metadata).
    auto tampered = sealed;
    std::uint8_t& b =
        tampered[header.zone_offset + sizeof(flowdb::ZoneMap)];
    b = b == 0 ? 0xFF : 0;
    write_bytes(seg_path, tampered);
    EXPECT_FALSE(flowdb::SegmentedReader::open(dir));
  }

  // Footer-resealed zone lie: rewrite a zone byte AND recompute the
  // footer hash so the file is internally consistent. The manifest
  // pinned the original hash at append time, so the store refuses to
  // open — the planner can never trust the lying zone map.
  {
    auto tampered = sealed;
    flowdb::FileHeader header;
    std::memcpy(&header, tampered.data(), sizeof header);
    tampered[header.zone_offset + 64] ^= 0xFF;  // A bloom byte.
    const std::uint64_t resealed = flowdb::seal_hash(
        {tampered.data(), static_cast<std::size_t>(header.footer_offset)});
    std::memcpy(tampered.data() + header.footer_offset, &resealed, 8);
    write_bytes(seg_path, tampered);
    EXPECT_FALSE(flowdb::SegmentedReader::open(dir));
  }

  // Restoring the sealed bytes restores the store.
  write_bytes(seg_path, sealed);
  EXPECT_TRUE(flowdb::SegmentedReader::open(dir));
  std::filesystem::remove_all(dir);
}

TEST(FlowDbStore, ManifestReadFailureNeverClobbersStore) {
  const auto dir = temp_dir("flowdb_store_manifest_err");
  auto store = flowdb::SegmentedStore::open(dir);
  ASSERT_TRUE(store);
  ASSERT_TRUE(store->append_segment(sample_writer(64, 0xFDB0306)));
  const std::string manifest_path =
      dir + "/" + std::string(flowdb::kManifestName);
  const auto good = read_bytes(manifest_path);
  ASSERT_FALSE(good.empty());
  // Manifest rewrites are temp+rename: no .tmp stragglers afterwards.
  EXPECT_FALSE(std::filesystem::exists(manifest_path + ".tmp"));

  // A manifest that exists but cannot be read (here: it is a
  // directory, so reads fail with EISDIR) must fail the open — NOT be
  // treated as "no store yet" and overwritten with an empty manifest,
  // which would orphan every sealed segment.
  std::filesystem::remove(manifest_path);
  ASSERT_TRUE(std::filesystem::create_directory(manifest_path));
  EXPECT_FALSE(flowdb::SegmentedStore::open(dir));
  EXPECT_TRUE(std::filesystem::is_directory(manifest_path));
  std::filesystem::remove(manifest_path);

  // A corrupt (e.g. torn) manifest fails the open and is left intact
  // for the operator rather than silently replaced.
  const std::vector<std::uint8_t> torn(good.begin(),
                                       good.begin() + good.size() / 2);
  write_bytes(manifest_path, torn);
  EXPECT_FALSE(flowdb::SegmentedStore::open(dir));
  EXPECT_EQ(read_bytes(manifest_path), torn);

  // Restoring the manifest restores the store and its segment.
  write_bytes(manifest_path, good);
  auto reopened = flowdb::SegmentedStore::open(dir);
  ASSERT_TRUE(reopened);
  EXPECT_EQ(reopened->manifest().segments.size(), 1u);
  auto reader = flowdb::SegmentedReader::open(dir);
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->rows(), 64u);
  std::filesystem::remove_all(dir);
}

TEST(FlowDbStore, EmptyAppendIsNoOpAndEmptyStoreScans) {
  const auto dir = temp_dir("flowdb_store_empty");
  auto store = flowdb::SegmentedStore::open(dir);
  ASSERT_TRUE(store);
  flowdb::Writer empty;
  EXPECT_TRUE(store->append_segment(empty));  // Zero rows: no segment.
  EXPECT_TRUE(store->manifest().segments.empty());
  auto reader = flowdb::SegmentedReader::open(dir);
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->rows(), 0u);
  const auto matches = reader->scan({});
  ASSERT_TRUE(matches);
  EXPECT_TRUE(matches->empty());
  // Reopening an existing store continues the sequence numbering.
  ASSERT_TRUE(store->append_segment(sample_writer(16, 0xFDB0304)));
  auto reopened = flowdb::SegmentedStore::open(dir);
  ASSERT_TRUE(reopened);
  ASSERT_TRUE(reopened->append_segment(sample_writer(16, 0xFDB0305)));
  ASSERT_EQ(reopened->manifest().segments.size(), 2u);
  EXPECT_NE(reopened->manifest().segments[0].file,
            reopened->manifest().segments[1].file);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gq
