#include "common.h"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "packet/frame.h"
#include "util/strings.h"

namespace gqbench {

using namespace gq;

namespace {

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};

CpuTimes cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

}  // namespace

// --- Tracer ----------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, std::string_view name, bool cpu)
    : tracer_(tracer), cpu_(cpu) {
  if (!tracer_) return;
  Span span;
  span.id = tracer_->spans_.size() + 1;
  span.parent =
      tracer_->open_.empty() ? 0 : tracer_->spans_[tracer_->open_.back()].id;
  span.run = tracer_->run_;
  span.name = std::string(name);
  if (cpu_) {
    const CpuTimes t = cpu_now();
    user0_ = t.user_s;
    sys0_ = t.sys_s;
  }
  span.start_s = seconds_since(tracer_->origin_);
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

void Tracer::Scope::end() {
  if (!tracer_) return;
  Span& span = tracer_->spans_[index_];
  span.end_s = seconds_since(tracer_->origin_);
  if (cpu_) {
    const CpuTimes t = cpu_now();
    span.user_cpu_s = t.user_s - user0_;
    span.sys_cpu_s = t.sys_s - sys0_;
  }
  tracer_->open_.pop_back();
  tracer_ = nullptr;
}

void Tracer::import(std::vector<Span> spans) {
  for (auto& span : spans) spans_.push_back(std::move(span));
}

Tracer::Total Tracer::total(std::string_view name, std::uint64_t run) const {
  Total t;
  for (const Span& s : spans_) {
    if (s.run != run || s.name != name) continue;
    t.wall_s += s.end_s - s.start_s;
    t.user_cpu_s += s.user_cpu_s;
    t.sys_cpu_s += s.sys_cpu_s;
  }
  return t;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::unordered_map<std::uint64_t, double> child_time;
  for (const Span& s : spans_)
    if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const Span& s : spans_) {
    const double duration = s.end_s - s.start_s;
    out << util::format(
        "{\"id\":%llu,\"parent\":%llu,\"run\":%llu,\"name\":\"%s\","
        "\"start_s\":%.9f,\"end_s\":%.9f,\"self_s\":%.9f,"
        "\"user_cpu_s\":%.6f,\"sys_cpu_s\":%.6f}\n",
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.run), s.name.c_str(), s.start_s,
        s.end_s, duration - child_time[s.id], s.user_cpu_s, s.sys_cpu_s);
  }
  return static_cast<bool>(out);
}

// --- Statistics ------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t index = n > 10 ? n - 11 : n - 1;
  t.value = values[index];
  t.percentile = 100.0 * static_cast<double>(index + 1) /
                 static_cast<double>(n);
  return t;
}

// --- Isolated iterations --------------------------------------------------

std::string Record::serialize() const {
  std::string out;
  for (const auto& [key, v] : num)
    out += util::format("n %s %.17g\n", key.c_str(), v);
  for (const auto& [key, v] : layer)
    out += util::format("l %s %.17g\n", key.c_str(), v);
  for (const auto& [key, values] : series) {
    out += "s " + key;
    for (const double v : values) out += util::format(" %.17g", v);
    out += '\n';
  }
  for (const auto& [key, v] : text) out += "t " + key + " " + v + "\n";
  for (const auto& sp : spans)
    out += util::format("p %llu %llu %llu %.17g %.17g %.17g %.17g %s\n",
                        static_cast<unsigned long long>(sp.id),
                        static_cast<unsigned long long>(sp.parent),
                        static_cast<unsigned long long>(sp.run), sp.start_s,
                        sp.end_s, sp.user_cpu_s, sp.sys_cpu_s,
                        sp.name.c_str());
  return out;
}

std::optional<Record> Record::parse(std::string_view text) {
  Record r;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind, key;
    if (!(fields >> kind)) return std::nullopt;
    if (kind == "p") {
      Span sp;
      unsigned long long id = 0, parent = 0, run = 0;
      if (!(fields >> id >> parent >> run >> sp.start_s >> sp.end_s >>
            sp.user_cpu_s >> sp.sys_cpu_s >> sp.name))
        return std::nullopt;
      sp.id = id;
      sp.parent = parent;
      sp.run = run;
      r.spans.push_back(std::move(sp));
      continue;
    }
    if (!(fields >> key)) return std::nullopt;
    if (kind == "t") {
      std::getline(fields >> std::ws, r.text[key]);
    } else if (kind == "s") {
      auto& values = r.series[key];
      for (double v; fields >> v;) values.push_back(v);
    } else if (kind == "n" || kind == "l") {
      double v = 0;
      if (!(fields >> v)) return std::nullopt;
      (kind == "n" ? r.num : r.layer)[key] = v;
    } else {
      return std::nullopt;
    }
  }
  return r;
}

namespace {

void pin_cpu(std::size_t slot) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  if (cpus.empty()) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  CPU_SET(cpus[slot % cpus.size()], &pinned);
  sched_setaffinity(0, sizeof pinned, &pinned);
}

}  // namespace

Record isolated(Tracer& tracer, const std::function<Record()>& body,
                std::size_t cpu_slot) {
  std::fflush(stdout);
  std::fflush(stderr);
  Record failed;
  int fds[2];
  if (pipe(fds) != 0) {
    failed.text["error"] = "pipe failed";
    return failed;
  }
  const std::size_t first_span = tracer.spans().size();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    failed.text["error"] = "fork failed";
    return failed;
  }
  if (pid == 0) {
    // The child never returns into the caller: it dies with its parent,
    // and an exception ends it like a crash.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == 1) _exit(1);
    close(fds[0]);
    pin_cpu(cpu_slot);
    Record r;
    try {
      r = body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "iteration failed: %s\n", e.what());
      _exit(1);
    } catch (...) {
      _exit(1);
    }
    r.spans.assign(
        tracer.spans().begin() + static_cast<std::ptrdiff_t>(first_span),
        tracer.spans().end());
    const std::string bytes = r.serialize();
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n =
          write(fds[1], bytes.data() + written, bytes.size() - written);
      if (n <= 0) _exit(1);
      written += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(0);
  }
  close(fds[1]);
  std::string bytes;
  char buf[65536];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    failed.text["error"] = "iteration process failed";
    return failed;
  }
  auto r = Record::parse(bytes);
  if (!r) {
    failed.text["error"] = "iteration result unreadable";
    return failed;
  }
  tracer.import(r->spans);
  return *r;
}

void Outcome::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

void Outcome::account(const Record& record, const std::string& label) {
  attempted += static_cast<std::uint64_t>(record.get("attempted"));
  failed += static_cast<std::uint64_t>(record.get("failed"));
  if (const auto it = record.text.find("error"); it != record.text.end()) {
    ++failed;
    fail(label + ": " + it->second);
  }
  if (const auto it = record.text.find("failures"); it != record.text.end())
    fail(label + ": " + it->second);
}

void Outcome::check_digests(const std::vector<Record>& records,
                            const std::string& reference) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto it = records[i].text.find("digest");
    if (it != records[i].text.end() && it->second == reference) continue;
    ++failed;
    fail(util::format("iteration %zu digest differs from the reference: %s",
                      i, it == records[i].text.end() ? "(none)"
                                                     : it->second.c_str()));
  }
}

void Outcome::set_e2e(const std::vector<Record>& records,
                      const char* rate_name, const char* rate_unit,
                      const char* op_name) {
  std::vector<double> setups, rates, op_ms, tails;
  std::string per_iteration;
  Tail t;
  for (const Record& r : records) {
    setups.push_back(r.get("setup_s"));
    rates.push_back(r.get("rate"));
    per_iteration += util::format(" %.4g", r.get("rate"));
    if (const auto it = r.series.find("op_ms"); it != r.series.end()) {
      op_ms.insert(op_ms.end(), it->second.begin(), it->second.end());
      t = tail(it->second);
      tails.push_back(t.value);
    }
  }
  const double setup = median(setups);
  const double rate = median(rates);
  const double p50 = median(op_ms);
  const double tail_ms = median(tails);
  const double rss = peak_rss_mb();
  e2e = {{"setup_s", setup, "s"},
         {"throughput", rate, "1/s"},
         {"op_p50_ms", p50, "ms"},
         {"op_tail_ms", tail_ms, "ms"},
         {"peak_rss_mb", rss, "MB"}};
  line(util::format("setup_s %.6f s (median of %zu)", setup, setups.size()));
  line(util::format("%s %.6f %s (median of %zu iterations:%s)", rate_name,
                    rate, rate_unit, rates.size(), per_iteration.c_str()));
  line(util::format("%s_p50_ms %.6f ms (%zu samples)", op_name, p50,
                    op_ms.size()));
  line(util::format("%s_tail_ms %.6f ms (median over iterations of each "
                    "one's p%.2f of %zu samples, 10 beyond)",
                    op_name, tail_ms, t.percentile, t.samples));
  line(util::format("peak_rss_mb %.3f MB (largest iteration)", rss));
}

void Outcome::set_layers(const std::vector<Record>& records) {
  std::map<std::string, std::vector<double>> per_name;
  std::vector<double> traced, untraced;
  for (const Record& r : records) {
    (r.get("traced") != 0 ? traced : untraced).push_back(r.get("rate"));
    for (const auto& [name, value] : r.layer) per_name[name].push_back(value);
  }
  for (const auto& [name, values] : per_name) layer[name] = median(values);
  const double on = median(traced), off = median(untraced);
  layer["bench.trace_overhead"] = off > 0 ? (off - on) / off : 0;
}

std::vector<Record> repeat_isolated(const Options& options, Tracer& tracer,
                                    const std::function<Record()>& iteration) {
  std::vector<Record> records;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < 3 || seconds_since(start) < options.seconds;
       ++i) {
    tracer.set_enabled(options.trace && i % 2 == 0);
    tracer.begin_run();
    Record r = isolated(tracer, iteration, i);
    r.num["traced"] = tracer.enabled() ? 1 : 0;
    records.push_back(std::move(r));
  }
  tracer.set_enabled(false);
  return records;
}

void record_failures(Record& record, const std::vector<std::string>& failures) {
  std::string joined;
  for (const auto& why : failures)
    joined += (joined.empty() ? "" : " | ") + why;
  if (!joined.empty()) record.text["failures"] = joined;
}

// --- Escape oracle -----------------------------------------------------------

void FarmCapture::attach(core::Farm& farm, bool all_events) {
  farm.gateway().set_upstream_tap(
      [this](util::TimePoint, const std::vector<std::uint8_t>& frame) {
        bytes.insert(bytes.end(), frame.begin(), frame.end());
        ends.push_back(bytes.size());
      });
  farm.telemetry().bus().subscribe([this, all_events](const obs::FarmEvent& e) {
    if (all_events || e.kind == obs::FarmEvent::Kind::kDhcpBind ||
        e.kind == obs::FarmEvent::Kind::kFlowVerdict)
      events.push_back(e);
  });
}

std::uint64_t count_escapes(const FarmCapture& capture) {
  using Tuple =
      std::tuple<pkt::FlowProto, util::Ipv4Addr, util::Ipv4Addr, std::uint16_t>;
  std::set<util::Ipv4Addr> inmate_globals;
  std::map<std::uint16_t, std::set<util::Ipv4Addr>> globals_by_vlan;
  std::set<Tuple> authorized;
  for (const auto& e : capture.events) {
    if (e.kind == obs::FarmEvent::Kind::kDhcpBind) {
      globals_by_vlan[e.vlan].insert(e.inmate_global);
      inmate_globals.insert(e.inmate_global);
      continue;
    }
    if (e.kind != obs::FarmEvent::Kind::kFlowVerdict) continue;
    if (e.verdict != shim::Verdict::kForward &&
        e.verdict != shim::Verdict::kLimit &&
        e.verdict != shim::Verdict::kRewrite)
      continue;
    for (const auto& global : globals_by_vlan[e.vlan])
      authorized.insert({e.proto, global, e.orig_dst.addr, e.orig_dst.port});
  }
  std::set<Tuple> escaped;
  std::size_t begin = 0;
  for (const std::size_t end : capture.ends) {
    const std::span<const std::uint8_t> frame(capture.bytes.data() + begin,
                                              end - begin);
    begin = end;
    const auto decoded = pkt::decode_frame(frame);
    if (!decoded || !decoded->ip) continue;
    if (!decoded->is_tcp() && !decoded->is_udp()) continue;
    if (!inmate_globals.count(decoded->ip->src)) continue;
    const Tuple t{decoded->is_tcp() ? pkt::FlowProto::kTcp
                                    : pkt::FlowProto::kUdp,
                  decoded->ip->src, decoded->ip->dst, decoded->dst_port()};
    if (authorized.count(t) || !escaped.insert(t).second) continue;
    std::fprintf(stderr, "ESCAPE: %s -> %s:%u\n",
                 decoded->ip->src.str().c_str(),
                 decoded->ip->dst.str().c_str(), decoded->dst_port());
  }
  return escaped.size();
}

// --- Registry harvest -----------------------------------------------------

namespace {

/// Just enough JSON for MetricsRegistry::render_json: objects, arrays,
/// strings without escapes beyond \" and \\, numbers, and literals.
struct JsonValue {
  enum class Type { kNull, kNumber, kString, kArray, kObject } type =
      Type::kNull;
  double number = 0;
  std::string string;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out) {
    if (!value(out)) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r'))
      ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool string(std::string& out) {
    if (!eat('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      out += text_[pos_++];
    }
    return eat('"');
  }
  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.type = JsonValue::Type::kObject;
      if (eat('}')) return true;
      do {
        std::pair<std::string, JsonValue> member;
        if (!string(member.first) || !eat(':') || !value(member.second))
          return false;
        out.members.push_back(std::move(member));
      } while (eat(','));
      return eat('}');
    }
    if (c == '[') {
      ++pos_;
      out.type = JsonValue::Type::kArray;
      if (eat(']')) return true;
      do {
        out.items.emplace_back();
        if (!value(out.items.back())) return false;
      } while (eat(','));
      return eat(']');
    }
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return string(out.string);
    }
    for (const std::string_view literal : {"true", "false", "null"}) {
      if (text_.substr(pos_, literal.size()) == literal) {
        pos_ += literal.size();
        return true;
      }
    }
    const std::string rest(text_.substr(pos_, 40));
    char* end = nullptr;
    out.number = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return false;
    out.type = JsonValue::Type::kNumber;
    pos_ += static_cast<std::size_t>(end - rest.c_str());
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

const JsonValue* member(const JsonValue& object, std::string_view key) {
  for (const auto& [name, value] : object.members)
    if (name == key) return &value;
  return nullptr;
}

bool matches(const std::string& name, std::string_view prefix,
             std::string_view suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

bool RegistryHarvest::add(const std::string& json) {
  JsonValue root;
  if (!JsonParser(json).parse(root) || root.type != JsonValue::Type::kObject)
    return false;
  const JsonValue* counters = member(root, "counters");
  const JsonValue* gauges = member(root, "gauges");
  const JsonValue* histograms = member(root, "histograms");
  if (!counters || !gauges || !histograms) return false;
  for (const auto& [name, v] : counters->members) counters_[name] += v.number;
  for (const auto& [name, v] : gauges->members) gauges_[name] += v.number;
  for (const auto& [name, h] : histograms->members) {
    const JsonValue* buckets = member(h, "buckets");
    if (!buckets) return false;
    Hist& hist = histograms_[name];
    const bool fresh = hist.counts.empty();
    for (std::size_t i = 0; i < buckets->items.size(); ++i) {
      const JsonValue* le = member(buckets->items[i], "le");
      const JsonValue* count = member(buckets->items[i], "count");
      if (!le || !count) return false;
      if (fresh) {
        if (le->type == JsonValue::Type::kNumber)
          hist.bounds.push_back(le->number);
        hist.counts.push_back(0);
      }
      if (i >= hist.counts.size()) return false;  // Mismatched bounds.
      hist.counts[i] += count->number;
    }
  }
  return true;
}

double RegistryHarvest::counters(std::string_view prefix,
                                 std::string_view suffix) const {
  double sum = 0;
  for (const auto& [name, value] : counters_)
    if (matches(name, prefix, suffix)) sum += value;
  return sum;
}

double RegistryHarvest::gauges(std::string_view prefix,
                               std::string_view suffix) const {
  double sum = 0;
  for (const auto& [name, value] : gauges_)
    if (matches(name, prefix, suffix)) sum += value;
  return sum;
}

double RegistryHarvest::histogram_quantile(std::string_view prefix,
                                           std::string_view suffix,
                                           double q) const {
  std::vector<double> bounds, counts;
  for (const auto& [name, hist] : histograms_) {
    if (!matches(name, prefix, suffix)) continue;
    if (counts.empty()) {
      bounds = hist.bounds;
      counts.assign(hist.counts.size(), 0);
    }
    if (hist.bounds != bounds) continue;  // Different bucket layout.
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += hist.counts[i];
  }
  double n = 0;
  for (const double c : counts) n += c;
  if (n == 0 || bounds.empty()) return 0;
  const double rank = std::clamp(q, 0.0, 1.0) * n;
  double cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative < rank || counts[i] == 0) continue;
    const double hi = i < bounds.size() ? bounds[i] : bounds.back();
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double within = (rank - (cumulative - counts[i])) / counts[i];
    return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
  }
  return bounds.back();
}

void add_farm_layers(const RegistryHarvest& h,
                     std::map<std::string, double>& layer) {
  const double flows = h.counters("gw.", ".flows_created");
  layer["gateway.flows_created"] = flows;
  layer["gateway.frames_from_inmates"] =
      h.counters("gw.", ".frames_from_inmates");
  for (const char* name : {"cache_hit", "cache_miss", "table_hit",
                           "table_fallback", "shim_retries",
                           "verdict_timeouts", "fail_closed"})
    layer[std::string("gateway.") + name] =
        h.counters("gw.", std::string(".") + name);
  layer["gateway.safety_rejects"] = h.counters("gw.", ".safety.rejects");
  layer["gateway.local_verdict_ratio"] =
      flows > 0 ? (layer["gateway.cache_hit"] + layer["gateway.table_hit"]) /
                      flows
                : 0;
  layer["gateway.shim_rtt_sim_us_p50"] =
      h.histogram_quantile("gw.", ".shim_rtt_us", 0.5);
  layer["containment.decisions"] = h.counters("cs.", ".decisions");
  layer["containment.shed"] =
      h.counters("cs.", ".shed_refused") + h.counters("cs.", ".shed_deferred");
  layer["sinks.smtp_sessions"] = h.counters("sink.", ".sessions");
  layer["sinks.data_transfers"] = h.counters("sink.", ".data_transfers");
  layer["trace.packets"] = h.counters("trace.", ".packets");
  layer["trace.evicted"] = h.counters("trace.", ".evicted");
  layer["trace.bytes"] = h.gauges("trace.", ".bytes");
  layer["trace.segments"] = h.gauges("trace.", ".segments");
}

}  // namespace gqbench
