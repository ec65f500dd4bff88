#include "trace/archive.h"

#include <algorithm>

namespace gq::trace {

namespace {

/// Largest segment_bytes whose records all start below 4 GiB: the
/// rotation check lets one max-size record overshoot the threshold.
constexpr std::size_t kMaxSegmentBytes =
    0xFFFFFFFFu - pkt::kPcapRecordHeaderSize - pkt::kPcapSnapLen;

std::uint32_t u32le(std::span<const std::uint8_t> data, std::size_t at) {
  return data[at] | (data[at + 1] << 8) | (data[at + 2] << 16) |
         (static_cast<std::uint32_t>(data[at + 3]) << 24);
}

}  // namespace

std::span<const Location> FlowLocations::of(std::uint32_t flow) const {
  if (flow + std::size_t{1} >= starts_.size()) return {};
  return std::span<const Location>(locations_)
      .subspan(starts_[flow], starts_[flow + 1] - starts_[flow]);
}

TraceArchiver::TraceArchiver(ArchiveConfig config) : config_(config) {
  config_.segment_bytes =
      std::clamp(config_.segment_bytes,
                 pkt::kPcapFileHeaderSize + pkt::kPcapRecordHeaderSize,
                 kMaxSegmentBytes);
  if (config_.max_segments == 0) config_.max_segments = 1;
}

TraceArchiver::Segment& TraceArchiver::active_segment(util::TimePoint at) {
  if (segments_.empty() ||
      segments_.back().pcap.size_bytes() >= config_.segment_bytes) {
    Segment segment;
    segment.seq = next_seq_++;
    segment.first_time = at;
    segment.last_time = at;
    retained_bytes_ += segment.pcap.size_bytes();
    segments_.push_back(std::move(segment));
    while (segments_.size() > config_.max_segments) {
      const Segment& victim = segments_.front();
      ++evicted_segments_;
      evicted_packets_ += victim.packets;
      evicted_bytes_ += victim.pcap.size_bytes();
      retained_bytes_ -= victim.pcap.size_bytes();
      segments_.pop_front();
    }
  }
  return segments_.back();
}

Location TraceArchiver::record(util::TimePoint at,
                               std::span<const std::uint8_t> frame,
                               std::uint32_t flow) {
  Segment& segment = active_segment(at);
  if (segment.packets == 0) segment.first_time = at;
  const std::size_t offset = segment.pcap.size_bytes();
  segment.pcap.record(at, frame);
  retained_bytes_ += segment.pcap.size_bytes() - offset;
  if (flow != kNoFlow)
    segment.flows.push_back({static_cast<std::uint32_t>(offset), flow});
  segment.last_time = at;
  ++segment.packets;
  ++total_packets_;
  return {segment.seq, offset};
}

const TraceArchiver::Segment* TraceArchiver::find_segment(
    std::uint64_t seq) const {
  if (segments_.empty()) return nullptr;
  const std::uint64_t first = segments_.front().seq;
  if (seq < first || seq >= first + segments_.size()) return nullptr;
  // Seqs are contiguous across retained segments, so index directly.
  return &segments_[static_cast<std::size_t>(seq - first)];
}

std::size_t TraceArchiver::retained_packets() const {
  std::size_t total = 0;
  for (const auto& segment : segments_) total += segment.packets;
  return total;
}

std::optional<pkt::PcapRecord> TraceArchiver::record_at(Location loc) const {
  const Segment* segment = find_segment(loc.segment);
  if (!segment) return std::nullopt;
  const auto data = segment->pcap.contents();
  if (loc.offset < pkt::kPcapFileHeaderSize ||
      loc.offset + pkt::kPcapRecordHeaderSize > data.size())
    return std::nullopt;
  const auto at = static_cast<std::size_t>(loc.offset);
  const std::uint64_t sec = u32le(data, at);
  const std::uint64_t usec = u32le(data, at + 4);
  const std::uint32_t incl_len = u32le(data, at + 8);
  const std::uint32_t orig_len = u32le(data, at + 12);
  const std::size_t start = at + pkt::kPcapRecordHeaderSize;
  if (incl_len > pkt::kPcapSnapLen || incl_len > orig_len ||
      start + incl_len > data.size())
    return std::nullopt;
  pkt::PcapRecord record;
  record.time.usec = static_cast<std::int64_t>(sec * 1'000'000 + usec);
  record.orig_len = orig_len;
  record.frame.assign(
      data.begin() + static_cast<std::ptrdiff_t>(start),
      data.begin() + static_cast<std::ptrdiff_t>(start + incl_len));
  return record;
}

FlowLocations TraceArchiver::locations_by_flow(std::size_t flow_count) const {
  // Counting sort by flow id: count, prefix-sum, then place in capture
  // order (segments oldest first, pairs ascending within a segment).
  FlowLocations out;
  out.starts_.assign(flow_count + 1, 0);
  for (const auto& segment : segments_)
    for (const auto& pair : segment.flows)
      if (pair.flow < flow_count) ++out.starts_[pair.flow + 1];
  for (std::size_t i = 0; i < flow_count; ++i)
    out.starts_[i + 1] += out.starts_[i];
  out.locations_.resize(out.starts_[flow_count]);
  std::vector<std::size_t> next(out.starts_.begin(), out.starts_.end() - 1);
  for (const auto& segment : segments_)
    for (const auto& pair : segment.flows)
      if (pair.flow < flow_count)
        out.locations_[next[pair.flow]++] = {segment.seq, pair.offset};
  return out;
}

std::vector<pkt::PcapRecord> TraceArchiver::records() const {
  std::vector<pkt::PcapRecord> all;
  for (const auto& segment : segments_) {
    auto parsed = pkt::parse_pcap(segment.pcap.contents());
    all.insert(all.end(), std::make_move_iterator(parsed.begin()),
               std::make_move_iterator(parsed.end()));
  }
  return all;
}

std::vector<std::uint8_t> TraceArchiver::contents() const {
  // One global header, then every retained segment's records.
  pkt::PcapWriter header_only;
  std::vector<std::uint8_t> out(header_only.contents().begin(),
                                header_only.contents().end());
  for (const auto& segment : segments_) {
    const auto data = segment.pcap.contents();
    out.insert(out.end(), data.begin() + pkt::kPcapFileHeaderSize,
               data.end());
  }
  return out;
}

bool TraceArchiver::restore_segment(
    std::uint64_t seq, std::span<const std::uint8_t> pcap_bytes) {
  if (!segments_.empty() && seq != segments_.back().seq + 1)
    return false;  // Retained seqs must stay contiguous.
  const auto parsed = pkt::parse_pcap(pcap_bytes);
  Segment segment;
  segment.seq = seq;
  for (const auto& record : parsed) {
    if (segment.packets == 0) segment.first_time = record.time;
    segment.pcap.record(record.time, record.frame);
    segment.last_time = record.time;
    ++segment.packets;
  }
  retained_bytes_ += segment.pcap.size_bytes();
  segments_.push_back(std::move(segment));
  next_seq_ = seq + 1;
  return true;
}

void TraceArchiver::restore_flows(std::vector<Claim> claims) {
  // Keep only claims into retained segments, then merge them, in
  // (segment, offset) order, against each segment's record boundaries.
  std::erase_if(claims, [&](const Claim& claim) {
    return find_segment(claim.location.segment) == nullptr;
  });
  std::stable_sort(claims.begin(), claims.end(),
                   [](const Claim& a, const Claim& b) {
                     return a.location < b.location;
                   });
  auto claim = claims.begin();
  for (auto& segment : segments_) {
    const auto data = segment.pcap.contents();
    std::size_t offset = pkt::kPcapFileHeaderSize;
    // A restored segment file may be larger than any this archiver
    // writes; records past 4 GiB cannot carry a 32-bit offset.
    while (claim != claims.end() && claim->location.segment == segment.seq &&
           offset + pkt::kPcapRecordHeaderSize <= data.size() &&
           offset <= 0xFFFFFFFFu) {
      if (claim->location.offset < offset) {
        ++claim;  // Off a record boundary, or a repeat claim.
        continue;
      }
      if (claim->location.offset == offset) {
        segment.flows.push_back(
            {static_cast<std::uint32_t>(offset), claim->flow});
        ++claim;
      }
      offset += pkt::kPcapRecordHeaderSize + u32le(data, offset + 8);
    }
    while (claim != claims.end() && claim->location.segment == segment.seq)
      ++claim;  // Past the segment's last record.
  }
}

void TraceArchiver::restore_counters(std::uint64_t total_packets,
                                     std::uint64_t evicted_segments,
                                     std::uint64_t evicted_packets,
                                     std::uint64_t evicted_bytes) {
  total_packets_ = total_packets;
  evicted_segments_ = evicted_segments;
  evicted_packets_ = evicted_packets;
  evicted_bytes_ = evicted_bytes;
}

}  // namespace gq::trace
