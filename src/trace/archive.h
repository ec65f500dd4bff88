// Rotating trace archiver (paper §5.6, §6.5): GQ keeps packet traces at
// every subfarm router and at the upstream interface so operators can
// audit containment after the fact. A raw PcapWriter grows without
// bound; the archiver caps memory by splitting the capture into pcap
// segments of a configured size and evicting the oldest segments once a
// configured count is exceeded — tcpdump -C/-W semantics, in memory.
// Each retained segment is a complete, independently valid pcap file,
// so there are never capture gaps *within* a retained segment; loss
// from rotation is only ever whole trailing-edge segments, and it is
// accounted (evicted segment/packet/byte counts) rather than silent.
//
// Packet locations live in the segment they point into: each segment
// keeps one (record offset, flow id) pair per record the caller
// attributed to a flow, and drops the pairs with its bytes when it is
// evicted. A flow's locations are therefore exactly its *retained*
// packets, and the archive's whole footprint -- pcap bytes plus 8 bytes
// per retained record -- is bounded by the segment budget, however long
// the capture runs and however many flows it sees.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "packet/pcap.h"
#include "util/time.h"

namespace gq::trace {

struct ArchiveConfig {
  /// Rotate to a fresh segment once the active one reaches this many
  /// bytes (pcap header + records). One frame never splits: a segment
  /// may overshoot by at most one max-size record. Capped so every
  /// record offset fits 32 bits.
  std::size_t segment_bytes = 256 * 1024;
  /// Retained segment count (including the active segment); the oldest
  /// segment is evicted beyond this. 0 behaves as 1.
  std::size_t max_segments = 8;
};

/// Where one captured record lives: the archive-wide segment sequence
/// number plus the byte offset of the record header inside that
/// segment's pcap buffer. Stable for the lifetime of the segment;
/// locations pointing into evicted segments simply stop resolving.
struct Location {
  std::uint64_t segment = 0;
  std::uint64_t offset = 0;

  friend constexpr auto operator<=>(const Location&, const Location&) =
      default;
};

/// The flow id of a record no flow claims (ARP, ICMP, non-canonical
/// frames); such records carry no (offset, flow id) pair.
inline constexpr std::uint32_t kNoFlow = 0xFFFFFFFFu;

/// Retained locations grouped by flow id, capture order within a flow
/// (TraceArchiver::locations_by_flow). Built in one pass over the
/// retained segments' pairs.
class FlowLocations {
 public:
  /// Locations of flow `flow`; empty for a flow with no retained packet.
  [[nodiscard]] std::span<const Location> of(std::uint32_t flow) const;

 private:
  friend class TraceArchiver;
  std::vector<std::size_t> starts_;  ///< Flow count + 1 offsets.
  std::vector<Location> locations_;
};

class TraceArchiver {
 public:
  explicit TraceArchiver(ArchiveConfig config = {});

  /// One flow-attributed record of a segment. Offsets fit 32 bits
  /// because segment_bytes is capped below 4 GiB.
  struct RecordFlow {
    std::uint32_t offset = 0;
    std::uint32_t flow = 0;
  };

  /// One pcap segment. `seq` increases monotonically across the archive
  /// lifetime (evicted seqs are never reused).
  struct Segment {
    std::uint64_t seq = 0;
    pkt::PcapWriter pcap;
    util::TimePoint first_time;
    util::TimePoint last_time;
    std::size_t packets = 0;
    /// (offset, flow id) of each record attributed to a flow, ascending
    /// offset. Freed with the segment on eviction.
    std::vector<RecordFlow> flows;
  };

  /// Append one frame attributed to `flow` (kNoFlow: none); rotates and
  /// evicts as needed. Returns the record's stable location.
  Location record(util::TimePoint at, std::span<const std::uint8_t> frame,
                  std::uint32_t flow = kNoFlow);

  [[nodiscard]] const ArchiveConfig& config() const { return config_; }
  [[nodiscard]] const std::deque<Segment>& segments() const {
    return segments_;
  }
  [[nodiscard]] const Segment* find_segment(std::uint64_t seq) const;

  /// Retained-state accounting (bounded by the segment budget).
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] std::size_t retained_bytes() const { return retained_bytes_; }
  [[nodiscard]] std::size_t retained_packets() const;

  /// Lifetime accounting (monotonic).
  [[nodiscard]] std::uint64_t total_packets() const { return total_packets_; }
  [[nodiscard]] std::uint64_t evicted_segments() const {
    return evicted_segments_;
  }
  [[nodiscard]] std::uint64_t evicted_packets() const {
    return evicted_packets_;
  }
  [[nodiscard]] std::uint64_t evicted_bytes() const { return evicted_bytes_; }

  /// Resolve one record by location; nullopt if the segment was evicted
  /// or the offset does not name a record boundary.
  [[nodiscard]] std::optional<pkt::PcapRecord> record_at(Location loc) const;

  /// Retained locations of flows [0, flow_count), grouped by flow id.
  /// O(retained records + flow_count).
  [[nodiscard]] FlowLocations locations_by_flow(std::size_t flow_count) const;

  /// All retained records, oldest first.
  [[nodiscard]] std::vector<pkt::PcapRecord> records() const;

  /// The retained capture as one valid pcap file (single global header,
  /// segments concatenated oldest first).
  [[nodiscard]] std::vector<std::uint8_t> contents() const;

  /// Reconstruct a segment from saved pcap file contents (archive
  /// loading). Segments must be restored in ascending seq order; the
  /// restored segment becomes the active tail.
  bool restore_segment(std::uint64_t seq,
                       std::span<const std::uint8_t> pcap_bytes);

  /// One saved flow location claim (a flows.txt entry) to re-attach.
  struct Claim {
    Location location;
    std::uint32_t flow = 0;
  };

  /// Re-attach saved flow locations after the segments are restored:
  /// a claim that names a record boundary of a retained segment becomes
  /// that record's pair (the first claim on a record wins); claims into
  /// evicted segments or off record boundaries are dropped.
  void restore_flows(std::vector<Claim> claims);

  /// Restore lifetime counters when loading a saved archive manifest.
  void restore_counters(std::uint64_t total_packets,
                        std::uint64_t evicted_segments,
                        std::uint64_t evicted_packets,
                        std::uint64_t evicted_bytes);

 private:
  Segment& active_segment(util::TimePoint at);

  ArchiveConfig config_;
  std::deque<Segment> segments_;
  std::uint64_t next_seq_ = 0;
  std::size_t retained_bytes_ = 0;
  std::uint64_t total_packets_ = 0;
  std::uint64_t evicted_segments_ = 0;
  std::uint64_t evicted_packets_ = 0;
  std::uint64_t evicted_bytes_ = 0;
};

}  // namespace gq::trace
