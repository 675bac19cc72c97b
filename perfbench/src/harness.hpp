#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "corpus/synthetic.hpp"
#include "search/candidate_cache.hpp"

/// \file harness.hpp
/// Shared plumbing of the end-to-end benchmark: command-line arguments, the
/// wall/CPU clocks, the in-memory span tracer, the metric report and the
/// environment stamp. Workloads only call into the program through its public
/// headers; everything here is benchmark-side.

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;      ///< tiny sizes: checks that every metric is emitted
  std::string out_dir = ".bench_out";
};

/// Monotonic wall clock in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by every thread of this process, in nanoseconds.
std::int64_t process_cpu_ns();

/// CPU time consumed by the calling thread, in nanoseconds.
std::int64_t thread_cpu_ns();

/// Peak resident set (VmHWM) in MB.
double peak_rss_mb();

/// Independent sub-seed for one input stream of a workload.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// Percentile in [0, 100] with linear interpolation; 0 for an empty set.
double percentile(std::vector<double> values, double pct);
double mean(const std::vector<double>& values);
double median(std::vector<double> values);

/// Steady percentile of a time series: split \p values (in issue order) into
/// \p segments contiguous runs, take \p pct within each, and return the
/// median of those. A transient stall moves one segment, not the result.
double segmented_percentile(const std::vector<double>& values, std::size_t segments, double pct);

/// Number of segments a run's samples are split into for reporting.
inline constexpr std::size_t kSegments = 10;

/// A span at a layer boundary: spans of one operation share `trace`, and a
/// child names its cause in `parent` (0 = root).
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint32_t trace = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Keeps spans in memory; they are written out once, at exit. Disabled
/// tracers record nothing and cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Record a finished span; returns its id (0 when disabled).
  std::uint32_t record(const char* name, std::uint32_t parent, std::uint32_t trace,
                       std::int64_t start_ns, std::int64_t end_ns);

  /// Time \p fn as a span and return its duration in nanoseconds.
  template <typename Fn>
  std::int64_t timed(const char* name, std::uint32_t parent, std::uint32_t trace, Fn&& fn,
                     std::uint32_t* id = nullptr) {
    const std::int64_t start = now_ns();
    fn();
    const std::int64_t end = now_ns();
    const std::uint32_t sid = record(name, parent, trace, start, end);
    if (id != nullptr) *id = sid;
    return end - start;
  }

  /// Per span name: call count, total and self time (ns). Self time is the
  /// span's duration minus its children's durations. Children that mirror a
  /// call after the fact (see README "Traced run") are not inside the parent's
  /// interval, so durations, not interval overlap, are subtracted.
  struct NameTotals {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, NameTotals> totals() const;

  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The run's outcome: correctness counters, metrics, and the text lines
/// (per-layer table, notes) that precede the final JSON line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Format a double with every significant digit (round-trippable).
std::string fmt(double v);

/// Note listing every set-up time of a run, in seconds.
std::string setups_note(const std::string& workload, const std::vector<double>& setups);

/// \p num / \p den, or 0 when \p den is 0.
double frac(double num, double den);

/// Field-wise sum of the candidate-cache counters the traced runs read.
void add_cache_stats(planetp::search::CandidateCacheStats& into,
                     const planetp::search::CandidateCacheStats& from);

/// search.term_hit_frac and search.surgical_frac from the counters' growth
/// between \p before and \p after.
void report_cache_fracs(Report& report, const planetp::search::CandidateCacheStats& before,
                        const planetp::search::CandidateCacheStats& after);

/// The environment stamp (CPU set, nproc, build type, compiler, commit, seed)
/// as a JSON object.
std::string environment_json(const Args& args);

/// Per-layer self-time table of \p tracer, normalised per operation.
std::string layer_table(const Tracer& tracer, double operations);

/// The per-layer metric names, with units, in report order. A traced run
/// reports every one of them; layers a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fill every per-layer metric a workload did not set with 0.
void complete_per_layer(Report& report);

// ---------------------------------------------------------------------------
// Corpus helpers shared by the document workloads
// ---------------------------------------------------------------------------

/// AP89-shaped synthetic collection of \p docs documents and \p queries
/// judged queries drawn from \p seed.
planetp::corpus::SynthCollection make_collection(std::size_t docs, std::size_t queries,
                                                 std::uint64_t seed);

/// Weibull placement (shape 0.7, as corpus::PlacementOptions) of \p docs
/// documents on \p peers peers, stratified: peer shares sit at the
/// distribution's quantiles, so every seed has the same heavy-tailed share
/// sizes; the seed picks which peer holds which share and which documents.
/// Returns owner_of[doc]; every peer holds at least one document.
std::vector<std::uint32_t> weibull_placement(std::size_t docs, std::size_t peers,
                                             std::uint64_t seed);

/// A synthetic document rendered as plain text: each term repeated by its
/// frequency.
std::string doc_body(const planetp::corpus::SynthDoc& doc);

/// The document as the XML envelope a peer publishes.
std::string doc_xml(const planetp::corpus::SynthDoc& doc);

/// A query as the text a user types.
std::string query_text(const planetp::corpus::SynthQuery& query);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

int run_query_live(const Args& args, Report& report, Tracer& tracer);
int run_publish_mix(const Args& args, Report& report, Tracer& tracer);
int run_churn_sim(const Args& args, Report& report, Tracer& tracer);

}  // namespace perfbench
