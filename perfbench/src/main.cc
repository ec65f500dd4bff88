// gq_perfbench: one command that runs a named workload of the GQ farm
// library from a seed, checks its outputs, and prints its metrics.
//
//   gq_perfbench --workload contain|detonate|flowdb --seed N --seconds S
//                --trace 0|1 --scratch DIR [--spans-dir DIR]
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured without
// tracing; with --trace 1 they are the per-layer ones from a traced run,
// which also writes its spans to --spans-dir. Lines before it are a
// human-readable report. Bad arguments exit 2 without a result.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "util/strings.h"

namespace {

using namespace gqbench;

/// Every per-layer metric a traced run reports, whichever workload runs;
/// a layer the workload does not exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"core.run_for.wall_s", "s"},
    {"core.run_for.user_cpu_s", "s"},
    {"core.run_for.sys_cpu_s", "s"},
    {"netsim.events", "count"},
    {"netsim.ns_per_event", "ns"},
    {"netsim.lockstep.epochs", "count"},
    {"netsim.lockstep.messages", "count"},
    {"netsim.lockstep.overflow_dropped", "count"},
    {"netsim.lockstep.us_per_epoch", "us"},
    {"netsim.lockstep.coord_s", "s"},
    {"gateway.flows_created", "count"},
    {"gateway.frames_from_inmates", "count"},
    {"gateway.cache_hit", "count"},
    {"gateway.cache_miss", "count"},
    {"gateway.table_hit", "count"},
    {"gateway.table_fallback", "count"},
    {"gateway.shim_retries", "count"},
    {"gateway.verdict_timeouts", "count"},
    {"gateway.fail_closed", "count"},
    {"gateway.safety_rejects", "count"},
    {"gateway.local_verdict_ratio", "ratio"},
    {"gateway.shim_rtt_sim_us_p50", "sim_us"},
    {"containment.decisions", "count"},
    {"containment.shed", "count"},
    {"packet.frames_replayed", "count"},
    {"packet.decode_ns_per_frame", "ns"},
    {"packet.view_parse_ns_per_frame", "ns"},
    {"sinks.smtp_sessions", "count"},
    {"sinks.data_transfers", "count"},
    {"trace.packets", "count"},
    {"trace.bytes", "B"},
    {"trace.segments", "count"},
    {"trace.evicted", "count"},
    {"orchestrator.jobs_completed", "count"},
    {"orchestrator.jobs_rejected", "count"},
    {"orchestrator.recycles", "count"},
    {"orchestrator.append.calls", "count"},
    {"orchestrator.append.rows", "count"},
    {"orchestrator.append.wall_s", "s"},
    {"flowdb.open.wall_ms_p50", "ms"},
    {"flowdb.scan.wall_s", "s"},
    {"flowdb.aggregate.wall_s", "s"},
    {"flowdb.scan.segments_pruned", "count"},
    {"flowdb.scan.segments_scanned", "count"},
    {"flowdb.scan.chunks_pruned", "count"},
    {"flowdb.scan.chunks_scanned", "count"},
    {"flowdb.scan.rows_scanned", "count"},
    {"flowdb.scan.rows_matched", "count"},
    {"flowdb.rows_scanned_per_match", "ratio"},
    {"flowdb.append.rows", "count"},
    {"flowdb.append.wall_s", "s"},
    {"flowdb.compact.wall_s", "s"},
    {"flowdb.compact.segments_merged", "count"},
    {"flowdb.bytes_written_per_row", "B/row"},
    {"bench.trace_overhead", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gq_perfbench: %s\nusage: gq_perfbench --workload "
               "contain|detonate|flowdb --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--spans-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_scratch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end) usage("bad --seed");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end || !(options.seconds > 0) ||
          options.seconds > 600)
        usage("bad --seconds");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      options.trace = value == "1";
    } else if (arg == "--scratch") {
      options.scratch = value;
      have_scratch = !value.empty();
    } else if (arg == "--spans-dir") {
      options.spans_dir = value;
    } else {
      usage("unknown argument");
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!have_scratch) usage("--scratch is required");
  return options;
}

std::string number(double v) { return gq::util::format("%.12g", v); }

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  Outcome (*run)(const Options&, Tracer&) = nullptr;
  if (options.workload == "contain") run = run_contain;
  if (options.workload == "detonate") run = run_detonate;
  if (options.workload == "flowdb") run = run_flowdb;
  if (!run) usage("unknown workload");

  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::exists(options.scratch, ec)) usage("--scratch must not exist yet");
  fs::create_directories(options.scratch, ec);
  if (ec) usage("cannot create --scratch");

  Tracer tracer;
  const Outcome outcome = run(options, tracer);
  fs::remove_all(options.scratch, ec);

  if (options.trace && !options.spans_dir.empty()) {
    fs::create_directories(options.spans_dir, ec);
    const std::string path =
        options.spans_dir + "/" + options.workload + "-seed" +
        std::to_string(options.seed) + ".spans.jsonl";
    if (tracer.write_jsonl(path))
      std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                  path.c_str());
  }

  for (const auto& line : outcome.lines) std::printf("%s\n", line.c_str());
  std::printf("fail_ratio %s (%llu failed / %llu attempted)\n",
              number(outcome.attempted
                         ? static_cast<double>(outcome.failed) /
                               static_cast<double>(outcome.attempted)
                         : 0)
                  .c_str(),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));

  std::string metrics;
  auto add = [&metrics](const std::string& name, double value,
                        const std::string& unit) {
    metrics += gq::util::format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                                metrics.empty() ? "" : ", ", name.c_str(),
                                number(value).c_str(), unit.c_str());
  };
  if (options.trace) {
    for (const auto& m : kLayerMetrics) {
      const auto it = outcome.layer.find(m.name);
      const double value = it == outcome.layer.end() ? 0 : it->second;
      std::printf("  %-36s %s %s\n", m.name, number(value).c_str(), m.unit);
      add(m.name, value, m.unit);
    }
  } else {
    for (const auto& m : outcome.e2e) add(m.name, m.value, m.unit);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome.correct && outcome.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return 0;
}
