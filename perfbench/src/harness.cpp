#include "harness.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>

#include "index/document.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): streams of one seed are independent.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double segmented_percentile(const std::vector<double>& values, std::size_t segments, double pct) {
  segments = std::max<std::size_t>(1, std::min(segments, values.size()));
  std::vector<double> per_segment;
  for (std::size_t s = 0; s < segments; ++s) {
    const std::size_t lo = values.size() * s / segments;
    const std::size_t hi = values.size() * (s + 1) / segments;
    per_segment.push_back(percentile({values.begin() + static_cast<std::ptrdiff_t>(lo),
                                      values.begin() + static_cast<std::ptrdiff_t>(hi)},
                                     pct));
  }
  return median(std::move(per_segment));
}

std::uint32_t Tracer::record(const char* name, std::uint32_t parent, std::uint32_t trace,
                             std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return 0;
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{id, parent, trace, name, start_ns, end_ns});
  return id;
}

std::map<std::string, Tracer::NameTotals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, NameTotals> out;
  for (const Span& s : spans_) {
    NameTotals& t = out[s.name];
    ++t.calls;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - child_ns[s.id];
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"trace\":" << s.trace
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

std::string fmt(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string setups_note(const std::string& workload, const std::vector<double>& setups) {
  std::string out = workload + ": set-ups (s)";
  for (const double s : setups) {
    out += ' ';
    out += fmt(s);
  }
  return out;
}

double frac(double num, double den) { return den > 0 ? num / den : 0.0; }

void add_cache_stats(planetp::search::CandidateCacheStats& into,
                     const planetp::search::CandidateCacheStats& from) {
  into.term_hits += from.term_hits;
  into.term_misses += from.term_misses;
  into.surgical_keeps += from.surgical_keeps;
  into.surgical_fixes += from.surgical_fixes;
  into.full_reprobes += from.full_reprobes;
}

void report_cache_fracs(Report& report, const planetp::search::CandidateCacheStats& before,
                        const planetp::search::CandidateCacheStats& after) {
  const auto hits = static_cast<double>(after.term_hits - before.term_hits);
  const auto misses = static_cast<double>(after.term_misses - before.term_misses);
  const auto surgical = static_cast<double>(after.surgical_keeps + after.surgical_fixes -
                                            before.surgical_keeps - before.surgical_fixes);
  const auto reprobes = static_cast<double>(after.full_reprobes - before.full_reprobes);
  report.add("search.term_hit_frac", frac(hits, hits + misses), "fraction");
  report.add("search.surgical_frac", frac(surgical, surgical + reprobes), "fraction");
}

namespace {

std::string cpu_set_string() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
  }
  return out;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string environment_json(const Args& args) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::ostringstream out;
  out << "{\"workload\":" << json_string(args.workload) << ",\"seed\":" << args.seed
      << ",\"seconds\":" << fmt(args.seconds) << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"smoke\":" << (args.smoke ? 1 : 0)
      << ",\"cpu_set\":" << json_string(cpu_set_string())
      << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
      << ",\"commit\":" << json_string(commit != nullptr ? commit : "unknown") << "}";
  return out.str();
}

std::string layer_table(const Tracer& tracer, double operations) {
  const auto totals = tracer.totals();
  std::map<std::string, std::int64_t> by_layer;
  std::int64_t all_self = 0;
  for (const auto& [name, t] : totals) {
    by_layer[name.substr(0, name.find('.'))] += t.self_ns;
    all_self += t.self_ns;
  }
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %10s %14s %14s\n", "span", "calls", "self_us/op",
                "total_us/op");
  out << line;
  const double ops = operations > 0 ? operations : 1.0;
  for (const auto& [name, t] : totals) {
    std::snprintf(line, sizeof line, "%-28s %10llu %14.3f %14.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.calls),
                  static_cast<double>(t.self_ns) / 1e3 / ops,
                  static_cast<double>(t.total_ns) / 1e3 / ops);
    out << line;
  }
  std::snprintf(line, sizeof line, "%-28s %14s %10s\n", "layer", "self_us/op", "share");
  out << line;
  for (const auto& [layer, self] : by_layer) {
    std::snprintf(line, sizeof line, "%-28s %14.3f %9.1f%%\n", layer.c_str(),
                  static_cast<double>(self) / 1e3 / ops,
                  all_self > 0 ? 100.0 * static_cast<double>(self) / static_cast<double>(all_self)
                               : 0.0);
    out << line;
  }
  return out.str();
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"text.analyze_us", "us"},
        {"search.lookup_us", "us"},
        {"search.rank_peers_us", "us"},
        {"search.merge_us", "us"},
        {"search.contacts", "count"},
        {"search.useful_contact_frac", "fraction"},
        {"search.term_hit_frac", "fraction"},
        {"search.surgical_frac", "fraction"},
        {"search.recall", "fraction"},
        {"index.eval_us", "us"},
        {"index.docs_shipped", "count"},
        {"index.shipped_useful_frac", "fraction"},
        {"index.store_publish_us", "us"},
        {"index.merges", "count"},
        {"index.coalesces", "count"},
        {"index.tombstones", "count"},
        {"bloom.project_us", "us"},
        {"bloom.encode_full_us", "us"},
        {"bloom.encode_diff_us", "us"},
        {"bloom.full_bytes", "bytes"},
        {"bloom.diff_bytes", "bytes"},
        {"bloom.merge_diff_us", "us"},
        {"gossip.step_ms", "ms"},
        {"gossip.payloads", "count"},
        {"gossip.duplicate_frac", "fraction"},
        {"gossip.converge_p50_s", "sim_s"},
        {"gossip.converge_p90_s", "sim_s"},
        {"gossip.rounds", "count"},
        {"gossip.scan_entries_per_round", "count"},
        {"gossip.summary_builds", "count"},
    };
    for (const char* type : {"Rumor", "RumorAck", "SummaryRequest", "Summary", "PullRequest",
                             "PullResponse", "RumorDigest", "RumorWant"}) {
      m.emplace_back(std::string("gossip.bytes.") + type, "bytes");
    }
    for (const char* type : {"Rumor", "RumorAck", "SummaryRequest", "Summary", "PullRequest",
                             "PullResponse", "RumorDigest", "RumorWant"}) {
      m.emplace_back(std::string("gossip.msgs.") + type, "count");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"gossip.window_frames", "count"},
        {"net.codec_us", "us"},
        {"net.frames", "count"},
        {"net.transit_us", "us"},
        {"net.failures", "count"},
        {"sim.slice_ms", "ms"},
        {"sim.slice_growth", "ratio"},
        {"sim.events", "count"},
        {"sim.events_growth", "ratio"},
        {"core.publish_rest_us", "us"},
        {"bench.lag_p90_ms", "ms"},
        {"bench.coverage", "fraction"},
        {"bench.overhead", "fraction"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kMetrics;
}

void complete_per_layer(Report& report) {
  std::set<std::string> present;
  for (const Metric& m : report.metrics) present.insert(m.name);
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (!present.contains(name)) report.add(name, 0.0, unit);
  }
}

planetp::corpus::SynthCollection make_collection(std::size_t docs, std::size_t queries,
                                                 std::uint64_t seed) {
  // AP89's shape (vocabulary, document length) at the requested document and
  // query counts, with topics scaled the way the preset scales them.
  planetp::corpus::CollectionSpec spec =
      planetp::corpus::preset_ap89(std::max<std::size_t>(1, 84'678 / std::max<std::size_t>(docs, 1)));
  spec.num_docs = docs;
  spec.num_queries = queries;
  spec.seed = sub_seed(seed, 0xC0);
  return planetp::corpus::generate(spec);
}

std::vector<std::uint32_t> weibull_placement(std::size_t docs, std::size_t peers,
                                             std::uint64_t seed) {
  constexpr double kShape = 0.7;
  std::vector<double> weight(peers);
  for (std::size_t i = 0; i < peers; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(peers);
    weight[i] = std::pow(-std::log(1.0 - u), 1.0 / kShape);  // Weibull quantile
  }
  const double total = std::accumulate(weight.begin(), weight.end(), 0.0);
  std::vector<std::size_t> count(peers, 1);  // everyone shares something
  std::size_t assigned = peers;
  for (std::size_t i = 0; i < peers && assigned < docs; ++i) {
    const auto extra = static_cast<std::size_t>(weight[i] / total *
                                                static_cast<double>(docs - peers));
    const std::size_t take = std::min(extra, docs - assigned);
    count[i] += take;
    assigned += take;
  }
  // Rounding leftovers go to the heaviest shares first.
  for (std::size_t i = peers; assigned < docs; ++assigned) {
    i = i == 0 ? peers - 1 : i - 1;
    ++count[i];
  }

  planetp::Rng rng(sub_seed(seed, 0x9A));
  std::vector<std::uint32_t> holder(peers);
  std::iota(holder.begin(), holder.end(), 0);
  std::shuffle(holder.begin(), holder.end(), rng);
  std::vector<std::uint32_t> owners;
  owners.reserve(docs);
  for (std::size_t i = 0; i < peers; ++i) owners.insert(owners.end(), count[i], holder[i]);
  owners.resize(docs);
  std::shuffle(owners.begin(), owners.end(), rng);
  return owners;
}

std::string doc_body(const planetp::corpus::SynthDoc& doc) {
  std::string body;
  body.reserve(doc.length() * 8);
  for (const auto& [term, freq] : doc.terms) {
    const std::string word = planetp::corpus::SynthCollection::term_string(term);
    for (std::uint32_t f = 0; f < freq; ++f) {
      body += word;
      body += ' ';
    }
  }
  return body;
}

std::string doc_xml(const planetp::corpus::SynthDoc& doc) {
  std::string title = "d";
  title += std::to_string(doc.id);
  return planetp::index::wrap_text_as_xml(title, doc_body(doc));
}

std::string query_text(const planetp::corpus::SynthQuery& query) {
  std::string text;
  for (const planetp::corpus::TermId t : query.terms) {
    if (!text.empty()) text += ' ';
    text += planetp::corpus::SynthCollection::term_string(t);
  }
  return text;
}

}  // namespace perfbench
