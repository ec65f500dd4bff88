#include "trace/flow_index.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/addr.h"
#include "util/strings.h"

namespace gq::trace {

namespace {

std::uint64_t endpoint_word(const util::Endpoint& endpoint) {
  return (std::uint64_t{endpoint.addr.value()} << 16) | endpoint.port;
}

/// Hash of (5-tuple, VLAN) that is the same for both directions: the
/// endpoints enter in sorted order.
std::uint64_t canonical_hash(const pkt::FlowKey& key, std::uint16_t vlan) {
  const std::uint64_t a = endpoint_word(key.src);
  const std::uint64_t b = endpoint_word(key.dst);
  const std::uint64_t hi = std::max(a, b) ^ (std::uint64_t{vlan} << 48) ^
                           (static_cast<std::uint64_t>(key.proto) << 56);
  return pkt::FlowKeyHash::mix(std::min(a, b) ^ pkt::FlowKeyHash::mix(hi));
}

bool same_flow(const FlowRecord& record, const pkt::FlowKey& key,
               std::uint16_t vlan) {
  return record.vlan == vlan && record.key.proto == key.proto &&
         ((record.key.src == key.src && record.key.dst == key.dst) ||
          (record.key.src == key.dst && record.key.dst == key.src));
}

}  // namespace

std::size_t FlowIndex::probe(const pkt::FlowKey& key, std::uint16_t vlan,
                             std::uint64_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  const auto tag = static_cast<std::uint32_t>(hash >> 32);
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kNoFlow ||
        (slot.tag == tag && same_flow(flows_[slot.id], key, vlan)))
      return i;
  }
}

std::optional<std::uint32_t> FlowIndex::lookup(const pkt::FlowKey& key,
                                               std::uint16_t vlan) const {
  if (slots_.empty()) return std::nullopt;
  const std::uint32_t id =
      slots_[probe(key, vlan, canonical_hash(key, vlan))].id;
  if (id == kNoFlow) return std::nullopt;
  return id;
}

std::uint32_t FlowIndex::insert(FlowRecord record, std::size_t slot,
                                std::uint64_t hash) {
  if (2 * (flows_.size() + 1) > slots_.size()) {
    // Double the table; ids already in it are unique, so each old slot
    // moves to the first free slot of its probe sequence.
    const std::size_t size = std::max<std::size_t>(16, 2 * slots_.size());
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(size));
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& moved : old) {
      if (moved.id == kNoFlow) continue;
      const FlowRecord& flow = flows_[moved.id];
      std::size_t i = canonical_hash(flow.key, flow.vlan) & mask;
      while (slots_[i].id != kNoFlow) i = (i + 1) & mask;
      slots_[i] = moved;
    }
    slot = probe(record.key, record.vlan, hash);
  }
  const auto id = static_cast<std::uint32_t>(flows_.size());
  slots_[slot] = {static_cast<std::uint32_t>(hash >> 32), id};
  flows_.push_back(std::move(record));
  return id;
}

std::uint32_t FlowIndex::touch(const pkt::FlowKey& key, std::uint16_t vlan,
                               util::TimePoint at, std::size_t frame_bytes) {
  const std::uint64_t hash = canonical_hash(key, vlan);
  std::size_t slot = 0;
  std::uint32_t id = kNoFlow;
  if (!slots_.empty()) {
    slot = probe(key, vlan, hash);
    id = slots_[slot].id;
  }
  if (id == kNoFlow) {
    FlowRecord fresh;
    fresh.key = key;
    fresh.vlan = vlan;
    fresh.first_time = at;
    id = insert(std::move(fresh), slot, hash);
  }
  FlowRecord& record = flows_[id];
  ++record.packets;
  record.bytes += frame_bytes;
  record.last_time = at;
  return id;
}

bool FlowIndex::annotate(const pkt::FlowKey& key, std::uint16_t vlan,
                         shim::Verdict verdict,
                         const std::string& policy_name,
                         shim::VerdictSource source) {
  const auto id = lookup(key, vlan);
  if (!id) return false;
  FlowRecord& record = flows_[*id];
  record.has_verdict = true;
  record.verdict = verdict;
  record.policy_name = policy_name;
  record.verdict_source = source;
  return true;
}

const FlowRecord* FlowIndex::find(const pkt::FlowKey& key,
                                  std::uint16_t vlan) const {
  const auto id = lookup(key, vlan);
  return id ? &flows_[*id] : nullptr;
}

std::optional<std::uint32_t> FlowIndex::id_of(
    const FlowRecord& record) const {
  const auto id = lookup(record.key, record.vlan);
  if (id && &flows_[*id] == &record) return id;
  // A restored row whose key an earlier row already holds is reachable
  // only by address; a record of another index only by key.
  for (std::size_t i = 0; i < flows_.size(); ++i)
    if (&flows_[i] == &record) return static_cast<std::uint32_t>(i);
  return id;
}

std::uint32_t FlowIndex::restore(FlowRecord record) {
  const std::uint64_t hash = canonical_hash(record.key, record.vlan);
  std::size_t slot = 0;
  if (!slots_.empty()) {
    slot = probe(record.key, record.vlan, hash);
    if (slots_[slot].id != kNoFlow) {
      flows_.push_back(std::move(record));
      return static_cast<std::uint32_t>(flows_.size() - 1);
    }
  }
  return insert(std::move(record), slot, hash);
}

namespace {

std::optional<shim::Verdict> verdict_from_name(std::string_view name) {
  for (const auto v :
       {shim::Verdict::kForward, shim::Verdict::kLimit, shim::Verdict::kDrop,
        shim::Verdict::kRedirect, shim::Verdict::kReflect,
        shim::Verdict::kRewrite}) {
    if (name == shim::verdict_name(v)) return v;
  }
  return std::nullopt;
}

/// parse_int with an inclusive range gate; nullopt rejects the line.
std::optional<std::int64_t> parse_ranged(std::string_view text,
                                         std::int64_t lo, std::int64_t hi) {
  const auto value = util::parse_int(text);
  if (!value || *value < lo || *value > hi) return std::nullopt;
  return value;
}

}  // namespace

std::string flow_record_line(const FlowRecord& record,
                             std::span<const Location> locations) {
  std::ostringstream line;
  line << "flow\t"
       << (record.key.proto == pkt::FlowProto::kTcp ? "tcp" : "udp") << '\t'
       << record.key.src.addr.str() << '\t' << record.key.src.port << '\t'
       << record.key.dst.addr.str() << '\t' << record.key.dst.port << '\t'
       << record.vlan << '\t' << record.packets << '\t' << record.bytes
       << '\t' << record.first_time.usec << '\t' << record.last_time.usec
       << '\t'
       << (record.has_verdict ? shim::verdict_name(record.verdict) : "-")
       << '\t' << (record.policy_name.empty() ? "-" : record.policy_name)
       << '\t';
  for (std::size_t i = 0; i < locations.size(); ++i) {
    if (i) line << ',';
    line << locations[i].segment << ':' << locations[i].offset;
  }
  // Trailing columns, append-only for backward compatibility: verdict
  // source, then tenant/job attribution.
  line << '\t'
       << (record.has_verdict ? shim::verdict_source_name(record.verdict_source)
                              : "-")
       << '\t' << (record.tenant.empty() ? "-" : record.tenant) << '\t'
       << record.job;
  return line.str();
}

std::optional<FlowLine> parse_flow_record_line(std::string_view line) {
  const auto fields = util::split(line, '\t');
  // Mandatory columns run through `policy` (index 12); everything after
  // is optional so older archives still load.
  if (fields.size() < 13 || fields[0] != "flow") return std::nullopt;

  FlowLine parsed;
  FlowRecord& record = parsed.record;
  if (fields[1] == "tcp") {
    record.key.proto = pkt::FlowProto::kTcp;
  } else if (fields[1] == "udp") {
    record.key.proto = pkt::FlowProto::kUdp;
  } else {
    return std::nullopt;
  }
  const auto src = util::Ipv4Addr::parse(fields[2]);
  const auto src_port = parse_ranged(fields[3], 0, 0xFFFF);
  const auto dst = util::Ipv4Addr::parse(fields[4]);
  const auto dst_port = parse_ranged(fields[5], 0, 0xFFFF);
  const auto vlan = parse_ranged(fields[6], 0, 0xFFFF);
  const auto packets = util::parse_int(fields[7]);
  const auto bytes = util::parse_int(fields[8]);
  const auto first = util::parse_int(fields[9]);
  const auto last = util::parse_int(fields[10]);
  if (!src || !src_port || !dst || !dst_port || !vlan || !packets ||
      *packets < 0 || !bytes || *bytes < 0 || !first || !last)
    return std::nullopt;
  record.key.src = {*src, static_cast<std::uint16_t>(*src_port)};
  record.key.dst = {*dst, static_cast<std::uint16_t>(*dst_port)};
  record.vlan = static_cast<std::uint16_t>(*vlan);
  record.packets = static_cast<std::uint64_t>(*packets);
  record.bytes = static_cast<std::uint64_t>(*bytes);
  record.first_time.usec = *first;
  record.last_time.usec = *last;
  if (fields[11] != "-") {
    // Unknown verdict names degrade to "no verdict" rather than
    // rejecting the whole line (a future verdict kind must not make
    // old readers drop the flow's counters).
    if (const auto v = verdict_from_name(fields[11])) {
      record.has_verdict = true;
      record.verdict = *v;
    }
  }
  if (fields[12] != "-") record.policy_name = fields[12];
  if (fields.size() > 13 && !fields[13].empty()) {
    // Malformed pairs are skipped, not fatal: a partially rotten
    // location list still leaves the flow extractable elsewhere.
    for (const auto& pair : util::split(fields[13], ',')) {
      const auto colon = pair.find(':');
      if (colon == std::string::npos) continue;
      const auto segment = util::parse_int(
          std::string_view(pair).substr(0, colon));
      const auto offset = util::parse_int(
          std::string_view(pair).substr(colon + 1));
      if (!segment || *segment < 0 || !offset || *offset < 0) continue;
      parsed.locations.push_back({static_cast<std::uint64_t>(*segment),
                                  static_cast<std::uint64_t>(*offset)});
    }
  }
  if (fields.size() > 14 && record.has_verdict) {
    record.verdict_source = fields[14] == "cached"
                                ? shim::VerdictSource::kCached
                                : fields[14] == "table"
                                      ? shim::VerdictSource::kTable
                                      : shim::VerdictSource::kShim;
  }
  if (fields.size() > 15 && fields[15] != "-") record.tenant = fields[15];
  if (fields.size() > 16) {
    if (const auto job = util::parse_int(fields[16]); job && *job >= 0)
      record.job = static_cast<std::uint64_t>(*job);
  }
  return parsed;
}

}  // namespace gq::trace
