// Shared machinery of gq_perfbench: run options, wall-clock
// spans recorded around public library calls, result statistics, the
// upstream escape oracle, and the harvest of MetricsRegistry JSON into
// per-layer numbers. Nothing here reaches into the library's internals;
// every number comes from a public call or from timing one from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/farm.h"
#include "obs/events.h"

namespace gqbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;    ///< Created at start, removed at exit.
  std::string spans_dir;  ///< Traced runs write their spans here.
};

// --- Spans -------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root span.
  std::uint64_t run = 0;     ///< One run id per workload iteration.
  std::string name;
  double start_s = 0;  ///< Seconds since the tracer was created.
  double end_s = 0;
  double user_cpu_s = 0;  ///< getrusage deltas, when requested.
  double sys_cpu_s = 0;
};

/// In-memory span recorder. A disabled tracer records nothing and its
/// scopes read no clock, so untraced iterations pay nothing for it.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, bool cpu);
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close the span before the scope ends (idempotent).
    void end();

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
    bool cpu_ = false;
    double user0_ = 0, sys0_ = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Start a new run id (one per iteration).
  void begin_run() { ++run_; }
  [[nodiscard]] std::uint64_t run() const { return run_; }
  /// Record a span around the enclosing scope; its parent is the
  /// innermost open span. `cpu` adds process user/sys CPU deltas.
  [[nodiscard]] Scope span(std::string_view name, bool cpu = false) {
    return Scope(enabled_ ? this : nullptr, name, cpu);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Append spans recorded by a forked copy of this tracer (see
  /// isolated()); their ids continue this tracer's sequence.
  void import(std::vector<Span> spans);
  /// Sums over the spans named `name` in `run`.
  struct Total {
    double wall_s = 0;
    double user_cpu_s = 0;
    double sys_cpu_s = 0;
  };
  [[nodiscard]] Total total(std::string_view name, std::uint64_t run) const;
  /// One JSON object per line: id, parent, run, name, start/end seconds,
  /// self seconds (duration minus time covered by child spans).
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint64_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  Clock::time_point origin_ = Clock::now();
};

// --- Statistics ----------------------------------------------------------

double median(std::vector<double> values);

/// The highest percentile with at least ten samples beyond it: the value
/// with exactly ten larger samples (the maximum when n <= 10).
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> values);

/// Incremental 64-bit FNV-1a.
struct Fnv1a {
  std::uint64_t hash = 1469598103934665603ull;
  void add(std::string_view text) {
    for (const unsigned char c : text) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
  }
  void line(std::string_view text) {
    add(text);
    add("\n");
  }
};

// --- Escape oracle -------------------------------------------------------

/// Everything a farm's gateway put on its upstream leg, plus the farm
/// events the escape audit needs. Frames are copied into one flat buffer
/// while the farm runs and decoded only after the timed phase.
struct FarmCapture {
  std::vector<gq::obs::FarmEvent> events;
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> ends;  ///< Frame i = bytes[ends[i-1], ends[i]).
  /// Subscribe and tap. `all_events` keeps every FarmEvent (the digest
  /// hashes them); otherwise only DHCP binds and flow verdicts.
  void attach(gq::core::Farm& farm, bool all_events);
};

/// The s2/s3 audit: an inmate-sourced upstream frame must match an
/// authorising verdict (FORWARD, LIMIT, REWRITE) for its exact (proto,
/// global source, destination, destination port). Returns the number of
/// distinct escaped tuples; each is printed to stderr.
std::uint64_t count_escapes(const FarmCapture& capture);

// --- Registry harvest ----------------------------------------------------

/// MetricsRegistry::render_json output, parsed and summed across any
/// number of registries (one per shard).
class RegistryHarvest {
 public:
  /// False if `json` does not parse as the registry's format.
  bool add(const std::string& json);
  /// Sum of counters (or gauges) whose name starts with `prefix` and
  /// ends with `suffix`, e.g. ("gw.", ".cache_hit").
  [[nodiscard]] double counters(std::string_view prefix,
                                std::string_view suffix) const;
  [[nodiscard]] double gauges(std::string_view prefix,
                              std::string_view suffix) const;
  /// Quantile of the bucket-wise sum of matching histograms, with the
  /// same in-bucket interpolation as obs::Histogram::quantile.
  [[nodiscard]] double histogram_quantile(std::string_view prefix,
                                          std::string_view suffix,
                                          double q) const;

 private:
  struct Hist {
    std::vector<double> bounds;
    std::vector<double> counts;  ///< bounds.size() + 1 (overflow last).
  };
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Hist> histograms_;
};

// --- Isolated iterations ----------------------------------------------------

/// One iteration's results, in a form that crosses a process boundary:
/// named numbers, named series, named one-line texts, per-layer numbers
/// and the spans the iteration recorded.
struct Record {
  std::map<std::string, double> num;
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, std::string> text;
  std::map<std::string, double> layer;
  std::vector<Span> spans;

  [[nodiscard]] double get(const std::string& key) const {
    const auto it = num.find(key);
    return it == num.end() ? 0 : it->second;
  }
  [[nodiscard]] std::string serialize() const;
  static std::optional<Record> parse(std::string_view text);
};

/// Run one iteration in a forked child and return its Record. Each
/// iteration thus starts from the same clean heap: memory the library
/// leaks or fragments in one iteration cannot slow the next, and peak
/// RSS is that of one iteration. The caller must hold no threads. A
/// child that crashes or exits nonzero yields text["error"]. Spans the
/// child records under `tracer` are imported into it.
///
/// The child is confined to one CPU, number `cpu_slot` (modulo the count)
/// among those the process may use. On a shared virtual machine a hand-off
/// between threads on different CPUs waits on a CPU wake-up whose latency
/// swings several-fold from run to run: unpinned, `detonate` moved
/// between 20 and 140 jobs/s from batch to batch. On one CPU every
/// hand-off is a local context switch. Rotating the CPU across
/// iterations samples every CPU, so one contended CPU cannot skew a
/// run's median.
Record isolated(Tracer& tracer, const std::function<Record()>& body,
                std::size_t cpu_slot);

/// The per-layer numbers every farm publishes in its registry, summed
/// over subfarms (and shards): gateway.*, containment.*, sinks.* and
/// trace.*.
void add_farm_layers(const RegistryHarvest& h,
                     std::map<std::string, double>& layer);

// --- Results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `e2e` holds the BENCHMARK.json
/// end-to-end metrics (untraced run); `layer` the per-layer ones (traced
/// run). `lines` are human-readable report lines printed before the
/// result, including the workload-specific names of each metric.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> lines;

  void fail(const std::string& why);
  void line(const std::string& text) { lines.push_back(text); }
  /// Add a record's num["attempted"]/num["failed"] and report its
  /// text["failures"] and text["error"].
  void account(const Record& record, const std::string& label);
  /// Every record's text["digest"] must equal `reference`.
  void check_digests(const std::vector<Record>& records,
                     const std::string& reference);
  /// The end-to-end metrics every workload reports, from the records'
  /// num["setup_s"], num["rate"] and series["op_ms"]: medians over
  /// iterations of set-up time and throughput, the median of all
  /// operation latencies, and the median over iterations of each
  /// iteration's tail latency. (A tail pooled over a whole run sits at
  /// p99+ and reads scheduler noise of the host; each iteration's tail
  /// sits in the slow class of operations it repeats.) Each is also
  /// printed under the workload's own name: `rate_name` for throughput
  /// (median over iterations of work per host second) and `op_name` for
  /// the operation whose latency op_p50_ms/op_tail_ms summarise.
  void set_e2e(const std::vector<Record>& records, const char* rate_name,
               const char* rate_unit, const char* op_name);
  /// Per-layer numbers: medians over the traced records (counts repeat
  /// exactly across iterations of one seed), plus bench.trace_overhead,
  /// the relative loss of num["rate"] in traced against untraced ones.
  void set_layers(const std::vector<Record>& records);
};

/// Run `iteration` in isolated children until the run's seconds are
/// spent, and at least three times, rotating over the CPUs (see
/// isolated()). In a traced run even iterations are traced and odd ones
/// are not, so the two can be compared; each record's num["traced"]
/// says which.
std::vector<Record> repeat_isolated(const Options& options, Tracer& tracer,
                                    const std::function<Record()>& iteration);

/// Report `failures` (one per entry) through a record.
void record_failures(Record& record, const std::vector<std::string>& failures);

Outcome run_contain(const Options& options, Tracer& tracer);
Outcome run_detonate(const Options& options, Tracer& tracer);
Outcome run_flowdb(const Options& options, Tracer& tracer);

}  // namespace gqbench
