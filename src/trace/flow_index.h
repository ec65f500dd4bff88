// Flow index over a trace archive: maps the (5-tuple, VLAN) of every
// captured TCP/UDP frame to a per-flow record carrying verdict, packet
// and byte counts, and first/last timestamps. The record's position in
// the index is its flow id; the archive tags each record it keeps with
// that id (trace/archive.h), so one flow's retained packets can be
// extracted from a multi-megabyte archive without re-parsing it. This
// is the forensic entry point the paper implies for §5.6 trace audits
// ("which flow was that, and what did the containment server decide
// about it?").
//
// Memory: one FlowRecord per flow seen (lifetime counters stay exact)
// plus a flat open-addressing table of 8-byte slots at most half full.
// Nothing here grows with the packet count; per-packet locations live
// in the archive segments and leave with them.
//
// Keys are canonicalized bidirectionally: the first-seen direction of a
// flow becomes its record's key, and frames of the reverse direction
// fold into the same record. The table hashes a direction-independent
// form of the key, so each frame costs one lookup whichever way it
// travels.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "packet/frame.h"
#include "shim/shim.h"
#include "trace/archive.h"
#include "util/time.h"

namespace gq::trace {

struct FlowRecord {
  /// Canonical (first-seen direction) key plus the 802.1Q VID the flow
  /// was captured on (0 for untagged captures).
  pkt::FlowKey key;
  std::uint16_t vlan = 0;

  /// Tenant/job attribution, stamped by per-job archives (see
  /// TraceTap::set_context) so saved archives keep the multi-tenant
  /// identity the orchestrator attributed the traffic to. Empty/0 for
  /// unattributed captures (shared taps, pre-attribution archives).
  std::string tenant;
  std::uint64_t job = 0;

  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;  ///< Sum of wire frame sizes.
  util::TimePoint first_time;
  util::TimePoint last_time;

  /// Containment verdict, once the router annotated the flow.
  bool has_verdict = false;
  shim::Verdict verdict = shim::Verdict::kDrop;
  std::string policy_name;
  /// Where the verdict was resolved: containment-server shim round
  /// trip, gateway verdict cache, or compiled in-gateway policy table.
  shim::VerdictSource verdict_source = shim::VerdictSource::kShim;

  friend bool operator==(const FlowRecord&, const FlowRecord&) = default;
};

class FlowIndex {
 public:
  /// Account one captured frame to its flow (created on first sight).
  /// Returns the flow id: the record's position in flows().
  std::uint32_t touch(const pkt::FlowKey& key, std::uint16_t vlan,
                      util::TimePoint at, std::size_t frame_bytes);

  /// Attach a containment verdict to a flow. Returns false when the
  /// flow was never captured (e.g. its packets all predate the index).
  /// `source` records where the verdict was resolved (CS shim round
  /// trip, gateway verdict cache, or compiled policy table).
  bool annotate(const pkt::FlowKey& key, std::uint16_t vlan,
                shim::Verdict verdict, const std::string& policy_name,
                shim::VerdictSource source = shim::VerdictSource::kShim);

  /// Bidirectional lookup: `key` or its reverse. nullptr when unknown.
  [[nodiscard]] const FlowRecord* find(const pkt::FlowKey& key,
                                       std::uint16_t vlan) const;

  /// The flow id of `record`: its own position when it belongs to this
  /// index, else that of the flow with its key. nullopt when unknown.
  [[nodiscard]] std::optional<std::uint32_t> id_of(
      const FlowRecord& record) const;

  /// All flows, in order of first appearance (flow id order).
  [[nodiscard]] const std::deque<FlowRecord>& flows() const { return flows_; }
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }
  [[nodiscard]] FlowRecord& flow(std::uint32_t id) { return flows_[id]; }

  /// Re-insert a fully built record (archive loading); returns its flow
  /// id. A record whose key, either direction, is already indexed is
  /// kept in flows() but lookups keep resolving to the first one.
  std::uint32_t restore(FlowRecord record);

 private:
  /// One table slot: the high half of the key hash (a cheap filter)
  /// and the flow id; id kNoFlow marks a free slot.
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t id = kNoFlow;
  };

  /// Slot of the flow with this key (either direction), or the free
  /// slot where it would go.
  [[nodiscard]] std::size_t probe(const pkt::FlowKey& key, std::uint16_t vlan,
                                  std::uint64_t hash) const;
  [[nodiscard]] std::optional<std::uint32_t> lookup(const pkt::FlowKey& key,
                                                    std::uint16_t vlan) const;
  /// Append `record` to flows_ and claim `slot` for it; `slot` must come
  /// from probe() on the same key and hash.
  std::uint32_t insert(FlowRecord record, std::size_t slot,
                       std::uint64_t hash);

  // deque: records keep stable addresses as the index grows.
  std::deque<FlowRecord> flows_;
  std::vector<Slot> slots_;  ///< Power-of-two size, at most half full.
};

/// Serialize one record and its retained archive locations as a
/// flows.txt line (tab-separated, no trailing newline). Column order is
/// fixed; new columns only ever append, so older readers keep working:
///   flow proto src sport dst dport vlan packets bytes first last
///   verdict policy locations source tenant job
std::string flow_record_line(const FlowRecord& record,
                             std::span<const Location> locations = {});

/// One parsed flows.txt line: the record plus the locations column,
/// which may name segments the archive no longer holds.
struct FlowLine {
  FlowRecord record;
  std::vector<Location> locations;

  friend bool operator==(const FlowLine&, const FlowLine&) = default;
};

/// Parse one flows.txt line. Hardened: malformed or out-of-range
/// numeric fields and bad addresses reject the line (nullopt) instead
/// of throwing; unknown verdict/source names and malformed location
/// pairs degrade leniently (forward compatibility, matching the
/// manifest's unknown-key rule). Trailing columns are optional so
/// archives written before verdict sources or tenant attribution still
/// load.
std::optional<FlowLine> parse_flow_record_line(std::string_view line);

}  // namespace gq::trace
