#include "flowdb/query.h"

#include <algorithm>
#include <thread>

#include "flowdb/scan_impl.h"
#include "shim/shim.h"

namespace gq::flowdb {

void ScanStats::add_to(obs::MetricsRegistry& metrics) const {
  metrics.counter("flowdb.scan.segments_considered").inc(segments_considered);
  metrics.counter("flowdb.scan.segments_pruned").inc(segments_pruned);
  metrics.counter("flowdb.scan.segments_scanned").inc(segments_scanned);
  metrics.counter("flowdb.scan.chunks_pruned").inc(chunks_pruned);
  metrics.counter("flowdb.scan.chunks_scanned").inc(chunks_scanned);
  metrics.counter("flowdb.scan.rows_scanned").inc(rows_scanned);
  metrics.counter("flowdb.scan.rows_matched").inc(rows_matched);
}

bool zone_may_match(const ZoneMap& zone, const Filter& filter) {
  // An empty segment matches nothing; the min/max fields hold empty-
  // range sentinels in that case and must not be consulted.
  if (zone.row_count == 0) return false;
  // Row time predicate: last >= since && first <= until. Prunable when
  // no row can pass — max(last) < since, or min(first) > until.
  if (filter.since_usec && zone.max_last_usec < *filter.since_usec)
    return false;
  if (filter.until_usec && zone.min_first_usec > *filter.until_usec)
    return false;
  if (filter.vlan &&
      (*filter.vlan < zone.min_vlan || *filter.vlan > zone.max_vlan))
    return false;
  // Port range spans both sides, matching the either-side predicate.
  if (filter.port &&
      (*filter.port < zone.min_port || *filter.port > zone.max_port))
    return false;
  if (filter.tenant &&
      !bloom_may_contain(zone.bloom, bloom_key_tenant(*filter.tenant)))
    return false;
  if (filter.endpoint &&
      !bloom_may_contain(zone.bloom,
                         bloom_key_endpoint(filter.endpoint->value())))
    return false;
  return true;
}

bool chunk_may_match(const ChunkZone& zone, const Filter& filter) {
  if (filter.since_usec && zone.max_last_usec < *filter.since_usec)
    return false;
  if (filter.until_usec && zone.min_first_usec > *filter.until_usec)
    return false;
  return true;
}

namespace detail {

std::vector<std::vector<std::uint64_t>> run_tasks(
    std::span<const RowPredicate> preds, std::span<const ScanTask> tasks,
    unsigned thread_opt) {
  // Task t belongs to worker (t % threads); per-task match lists are
  // concatenated in task (== segment, chunk) order afterwards, so the
  // output is identical to the serial scan regardless of thread count.
  std::vector<std::vector<std::uint64_t>> per_task(tasks.size());
  const auto run_one = [&](std::size_t t) {
    const ScanTask& task = tasks[t];
    const RowPredicate& pred = preds[task.pred];
    auto& out = per_task[t];
    for (std::uint64_t i = task.begin; i < task.end; ++i)
      if (pred(i)) out.push_back(task.base + i);
  };
  const unsigned threads = static_cast<unsigned>(std::min<std::size_t>(
      std::max(1u, thread_opt), tasks.size()));
  if (threads <= 1) {
    for (std::size_t t = 0; t < tasks.size(); ++t) run_one(t);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t t = w; t < tasks.size(); t += threads) run_one(t);
      });
    }
    for (auto& worker : workers) worker.join();
  }
  return per_task;
}

/// Running sums of one group slot.
struct GroupSums {
  std::uint64_t flows = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

template <typename ForEachRow>
void AggBuckets::add_rows(const Reader& reader, ForEachRow&& for_each_row) {
  const auto packets = reader.packets();
  const auto bytes = reader.bytes();
  std::vector<GroupSums> sums;
  const auto tally = [&](auto slot_of) {
    for_each_row([&](std::uint64_t i) {
      GroupSums& s = sums[slot_of(i)];
      s.flows += 1;
      s.packets += packets[i];
      s.bytes += bytes[i];
    });
  };
  const std::uint64_t dict_size = reader.dict_size();
  if (group_ == GroupBy::kVerdict) {
    sums.resize(256);
    const auto verdicts = reader.verdict();
    tally([&](std::uint64_t i) { return verdicts[i]; });
  } else {
    sums.resize(dict_size + 1);
    const auto ids = group_ == GroupBy::kTenant   ? reader.tenant()
                     : group_ == GroupBy::kPolicy ? reader.policy()
                                                  : reader.tap();
    tally([&](std::uint64_t i) {
      return std::min<std::uint64_t>(ids[i], dict_size);
    });
  }
  const auto label_of = [&](std::uint64_t slot) -> std::string {
    if (group_ == GroupBy::kVerdict)
      return slot == 0 ? "none"
                       : shim::verdict_name(static_cast<shim::Verdict>(slot));
    const std::string_view name =
        slot < dict_size ? reader.dict(static_cast<std::uint32_t>(slot))
                         : std::string_view();
    return name.empty() ? "-" : std::string(name);
  };
  for (std::uint64_t slot = 0; slot < sums.size(); ++slot) {
    const GroupSums& s = sums[slot];
    if (s.flows == 0) continue;
    Agg& bucket = buckets_[label_of(slot)];
    bucket.flows += s.flows;
    bucket.packets += s.packets;
    bucket.bytes += s.bytes;
  }
}

void AggBuckets::add(const Reader& reader,
                     std::span<const std::uint64_t> rows) {
  add_rows(reader, [&](auto&& add_row) {
    for (const std::uint64_t i : rows)
      if (i < reader.rows()) add_row(i);
  });
}

void AggBuckets::add_all(const Reader& reader) {
  add_rows(reader, [&](auto&& add_row) {
    for (std::uint64_t i = 0; i < reader.rows(); ++i) add_row(i);
  });
}

std::vector<Agg> AggBuckets::take() && {
  std::vector<Agg> out;
  out.reserve(buckets_.size());
  for (auto& [label, bucket] : buckets_) {
    bucket.label = label;
    out.push_back(std::move(bucket));
  }
  return out;
}

}  // namespace detail
}  // namespace gq::flowdb
