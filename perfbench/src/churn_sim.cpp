// churn_sim: gossip at paper scale under churn (Fig 4b's community) through
// sim::SimCommunity. No documents, search or sockets: only the gossip and
// sim layers run, and this is where gossip cost grows with time and size.

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "gossip/messages.hpp"
#include "harness.hpp"
#include "sim/community.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using planetp::Duration;
using planetp::TimePoint;
using planetp::gossip::PeerId;

struct ChurnShape {
  std::size_t members = 1000;
  double always_on_fraction = 0.4;
  Duration mean_online = 60 * planetp::kMinute;
  Duration mean_offline = 140 * planetp::kMinute;
  double rejoin_with_keys_prob = 0.05;
  std::uint32_t new_keys_on_rejoin = 1000;
  std::uint32_t base_keys = 1000;
  Duration warmup = planetp::kHour;  ///< simulated inside set-up
  Duration window = planetp::kHour;  ///< timed; events tracked
  Duration drain = planetp::kHour;   ///< timed; lets window events converge
  Duration slice = planetp::kMinute; ///< one operation: a simulated minute
};

/// Per-layer sim metrics are reported per 10 simulated minutes.
constexpr std::size_t kSlicesPerLayerSlice = 10;

/// One membership transition of the generated churn schedule.
struct ChurnEvent {
  TimePoint at = 0;
  PeerId peer = 0;
  bool online = false;        ///< rejoin (true) or silent departure (false)
  std::uint32_t new_keys = 0; ///< keys shared on rejoin
};

/// The churn schedule, generated from the seed alone. Cyclers alternate
/// exponential on and off periods and start online with probability
/// on/(on+off). The draws are Latin-hypercube stratified across cyclers
/// (exactly that share starts online, and the k-th periods of all cyclers
/// cover the exponential's quantiles once each), so every seed puts about
/// the same number of transitions in each hour. Every 20th rejoin in time
/// order, from a random offset, carries new keys.
std::vector<ChurnEvent> make_schedule(const ChurnShape& shape, std::uint64_t seed) {
  planetp::Rng rng(sub_seed(seed, 0xC4));
  const auto always_on =
      static_cast<std::size_t>(shape.always_on_fraction * static_cast<double>(shape.members));
  const std::size_t cyclers = shape.members - always_on;
  const double p_online = static_cast<double>(shape.mean_online) /
                          static_cast<double>(shape.mean_online + shape.mean_offline);
  const TimePoint horizon = shape.warmup + shape.window + shape.drain;

  // strata[i] = cycler i's stratum in a fresh permutation, one per draw index.
  std::vector<std::size_t> strata(cyclers);
  const auto shuffle_strata = [&] {
    std::iota(strata.begin(), strata.end(), 0);
    std::shuffle(strata.begin(), strata.end(), rng);
  };
  const auto stratified_u = [&](std::size_t i) {
    return (static_cast<double>(strata[i]) + rng.uniform()) / static_cast<double>(cyclers);
  };

  shuffle_strata();
  std::vector<bool> online(cyclers);
  std::vector<TimePoint> at(cyclers, 0);
  std::vector<ChurnEvent> events;
  for (std::size_t i = 0; i < cyclers; ++i) {
    online[i] = stratified_u(i) < p_online;
    if (!online[i]) events.push_back(ChurnEvent{0, static_cast<PeerId>(always_on + i), false, 0});
  }
  for (bool any = true; any;) {
    any = false;
    shuffle_strata();
    for (std::size_t i = 0; i < cyclers; ++i) {
      if (at[i] >= horizon) continue;
      const Duration mean = online[i] ? shape.mean_online : shape.mean_offline;
      at[i] += static_cast<Duration>(-static_cast<double>(mean) * std::log(1.0 - stratified_u(i)));
      if (at[i] >= horizon) continue;
      online[i] = !online[i];
      events.push_back(ChurnEvent{at[i], static_cast<PeerId>(always_on + i), online[i], 0});
      any = true;
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) { return a.at < b.at; });
  const auto stride = static_cast<std::uint64_t>(1.0 / shape.rejoin_with_keys_prob + 0.5);
  std::uint64_t rejoins = rng.below(stride);
  for (ChurnEvent& ev : events) {
    if (ev.online && rejoins++ % stride == 0) ev.new_keys = shape.new_keys_on_rejoin;
  }
  return events;
}

struct Slice {
  double wall_s = 0.0;
  double events = 0.0;
};

struct ChurnRun {
  double timed_wall_s = 0.0;
  double timed_cpu_s = 0.0;
  std::vector<Slice> slices;   ///< timed slices (window + drain)
  std::uint64_t window_bytes = 0;
  std::uint64_t timed_bytes = 0;  ///< window and drain
  std::vector<double> converge_s;
  std::size_t tracked = 0;
  std::size_t pending = 0;      ///< tracker events still open after the drain
  std::size_t unconverged = 0;  ///< of those, held below their version somewhere
  std::uint64_t rounds = 0;
  std::uint64_t scan_entries = 0;
  std::uint64_t summary_builds = 0;
  std::array<std::uint64_t, planetp::gossip::kMessageTypeCount> bytes_by_type{};
  std::array<std::uint64_t, planetp::gossip::kMessageTypeCount> msgs_by_type{};
  std::uint64_t payloads = 0;
  std::uint64_t duplicates = 0;
};

/// Builds the community and simulates the warm-up hour (set-up); run()
/// then times the window and the drain.
class ChurnBench {
 public:
  ChurnBench(const ChurnShape& shape, std::uint64_t seed) : shape_(shape) {
    const std::int64_t t0 = now_ns();
    schedule_ = make_schedule(shape, seed);
    planetp::sim::SimConfig cfg;
    cfg.seed = sub_seed(seed, 0x51);
    sim_ = std::make_unique<planetp::sim::SimCommunity>(cfg);
    for (std::size_t i = 0; i < shape.members; ++i) {
      sim_->add_peer(planetp::sim::SimPeerSpec{planetp::sim::link_speed::kLan45M,
                                               shape.base_keys});
    }
    tracker_ = sim_->add_tracker("all", [](PeerId) { return true; });
    last_offline_.assign(shape.members, -1);
    sim_->start_converged();
    sim_->set_tracking(false);
    for (const ChurnEvent& ev : schedule_) {
      sim_->queue().schedule_at(ev.at, [this, ev] {
        if (ev.online) {
          const planetp::gossip::RumorId id = sim_->rejoin(ev.peer, ev.new_keys);
          if (in_window_) {
            window_events_.push_back(WindowEvent{id, ev.at, sim_->online_peers()});
          }
        } else {
          sim_->go_offline(ev.peer);
          last_offline_[ev.peer] = ev.at;
        }
      });
    }
    sim_->run_until(shape.warmup);
    setup_s_ = static_cast<double>(now_ns() - t0) / 1e9;
  }

  /// Digest of every peer's directory (ids, versions, liveness beliefs): the
  /// simulator is deterministic, so set-ups from one seed must agree.
  std::uint64_t state_digest() const {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < sim_->num_peers(); ++i) {
      sim_->protocol(static_cast<PeerId>(i)).directory().for_each(
          [&](const planetp::gossip::PeerRecord& rec) {
            h = sub_seed(h ^ (static_cast<std::uint64_t>(i) << 40) ^
                             (static_cast<std::uint64_t>(rec.id) << 20) ^ (rec.online ? 1 : 0),
                         rec.version);
          });
    }
    return h;
  }

  ChurnBench(const ChurnBench&) = delete;
  ChurnBench& operator=(const ChurnBench&) = delete;

  double setup_s() const { return setup_s_; }

  ChurnRun run(Tracer& tracer) {
    ChurnRun r;
    planetp::sim::SimCommunity& sim = *sim_;
    sim.stats().reset();
    const std::uint64_t rounds0 = sim.rounds_executed();
    const auto [scan0, builds0] = directory_counters();
    sim.set_tracking(true);
    in_window_ = true;

    const TimePoint window_end = shape_.warmup + shape_.window;
    const TimePoint drain_end = window_end + shape_.drain;
    std::uint32_t trace_id = 0;
    const auto run_slices = [&](TimePoint until) {
      while (sim.queue().now() < until) {
        const TimePoint next = std::min(until, sim.queue().now() + shape_.slice);
        std::size_t events = 0;
        const std::int64_t start = now_ns();
        events = sim.queue().run_until(next);
        const std::int64_t end = now_ns();
        tracer.record("sim.slice", 0, ++trace_id, start, end);
        r.slices.push_back(Slice{static_cast<double>(end - start) / 1e9,
                                 static_cast<double>(events)});
        r.timed_wall_s += static_cast<double>(end - start) / 1e9;
      }
    };
    const std::int64_t cpu0 = process_cpu_ns();
    run_slices(window_end);
    sim.set_tracking(false);
    in_window_ = false;
    const planetp::sim::NetworkStats& stats = sim.stats();
    r.window_bytes = stats.total_bytes();
    r.bytes_by_type = stats.bytes_by_type();
    r.msgs_by_type = stats.messages_by_type();
    r.payloads = stats.gossip_stats().payloads_sent;
    r.duplicates = stats.gossip_stats().duplicate_payloads;
    run_slices(drain_end);
    r.timed_cpu_s = static_cast<double>(process_cpu_ns() - cpu0) / 1e9;
    r.timed_bytes = sim.stats().total_bytes();

    const planetp::sim::ConvergenceTracker& tracker = sim.tracker(tracker_);
    r.converge_s = tracker.durations().samples();
    r.tracked = tracker.tracked_events();
    r.pending = tracker.pending_events();
    // The tracker waits for each exact (origin, version); a peer that skipped
    // straight to a newer version of the origin holds the change too. With
    // the tracker's rule (peers online at the event and online ever since
    // must learn it), an event fails only if such a peer still holds an
    // older version of the origin.
    for (const WindowEvent& ev : window_events_) {
      for (const PeerId p : ev.online) {
        if (!sim.is_online(p) || last_offline_[p] >= ev.at) continue;
        const planetp::gossip::PeerRecord* rec = sim.protocol(p).directory().find(ev.id.origin);
        if (rec == nullptr || rec->version < ev.id.version) {
          ++r.unconverged;
          break;
        }
      }
    }
    r.rounds = sim.rounds_executed() - rounds0;
    const auto [scan1, builds1] = directory_counters();
    r.scan_entries = scan1 - scan0;
    r.summary_builds = builds1 - builds0;
    return r;
  }

 private:
  std::pair<std::uint64_t, std::uint64_t> directory_counters() {
    std::uint64_t scans = 0, builds = 0;
    for (std::size_t i = 0; i < sim_->num_peers(); ++i) {
      const auto& dir = sim_->protocol(static_cast<PeerId>(i)).directory();
      scans += dir.merge_scan_entries();
      builds += dir.summary_builds();
    }
    return {scans, builds};
  }

  ChurnShape shape_;
  std::vector<ChurnEvent> schedule_;
  std::unique_ptr<planetp::sim::SimCommunity> sim_;
  std::size_t tracker_ = 0;
  double setup_s_ = 0.0;
  struct WindowEvent {
    planetp::gossip::RumorId id;
    TimePoint at = 0;
    std::vector<PeerId> online;  ///< peers that must learn it
  };
  bool in_window_ = false;
  std::vector<WindowEvent> window_events_;
  std::vector<TimePoint> last_offline_;  ///< per peer; -1 = never left
};

/// Set-ups per run at least; setup_s is their median. A set-up takes about
/// 1 s, so five keep the median steady.
constexpr int kSetups = 5;
/// Wall seconds one timed window plus drain takes on the reference machine
/// (4 vCPU Xeon VM): a run repeats the timed part round(--seconds / this)
/// times, each on a fresh set-up, and pools their timed minutes.
constexpr double kTimedSeconds = 10.0;

bool same_outputs(const ChurnRun& a, const ChurnRun& b) {
  return a.converge_s == b.converge_s && a.timed_bytes == b.timed_bytes &&
         a.tracked == b.tracked && a.unconverged == b.unconverged && a.rounds == b.rounds;
}

}  // namespace

int run_churn_sim(const Args& args, Report& report, Tracer& tracer) {
  ChurnShape shape;
  if (args.smoke) {
    shape.members = 100;
    shape.warmup = 10 * planetp::kMinute;
    shape.window = 10 * planetp::kMinute;
    shape.drain = 10 * planetp::kMinute;
  }

  // Every set-up is the full community build plus the warm-up hour. The
  // simulator is deterministic, so set-ups and repetitions from one seed
  // must agree exactly.
  const int reps = std::max(1, static_cast<int>(std::lround(args.seconds / kTimedSeconds)));
  std::vector<double> setups, walls, slice_ms, cpu_ms_per_slice;
  std::vector<std::uint64_t> digests;
  ChurnRun r;
  bool deterministic = true;
  Tracer untraced(false);
  for (int s = 0; s < std::max(reps, kSetups); ++s) {
    ChurnBench bench(shape, args.seed);
    setups.push_back(bench.setup_s());
    digests.push_back(bench.state_digest());
    if (s >= reps) continue;
    ChurnRun run = bench.run(untraced);
    walls.push_back(run.timed_wall_s);
    for (const Slice& slice : run.slices) slice_ms.push_back(slice.wall_s * 1e3);
    cpu_ms_per_slice.push_back(run.timed_cpu_s * 1e3 / static_cast<double>(run.slices.size()));
    if (s == 0) {
      r = std::move(run);
    } else {
      deterministic = deterministic && same_outputs(r, run);
    }
  }
  deterministic = deterministic && std::all_of(digests.begin(), digests.end(), [&](std::uint64_t d) {
                    return d == digests.front();
                  });
  if (!deterministic) report.note("churn_sim: set-ups or runs from one seed diverged");

  report.attempted = r.tracked;
  report.failed = r.unconverged;
  // Events still unconverged after the drain are failed operations (they
  // feed the error rate); the outputs are wrong only if the simulation is
  // not reproducible from its seed.
  report.correct = deterministic && r.tracked > 0;
  report.note("churn_sim: " + std::to_string(r.tracked) + " window events, " +
              std::to_string(r.converge_s.size()) + " converged exactly, " +
              std::to_string(r.pending) + " open in the tracker, " +
              std::to_string(r.unconverged) + " not converged by the end of the drain");

  const double window_s = static_cast<double>(shape.window) / planetp::kSecond;
  if (!args.trace) {
    // An operation is one simulated minute of the community. Its latency
    // samples are every timed minute of every repetition.
    report.add("setup_s", median(setups), "s");
    report.note(setups_note("churn_sim", setups));
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("op_p50_ms", percentile(slice_ms, 50.0), "ms");
    report.add("op_p90_ms", percentile(slice_ms, 90.0), "ms");
    report.add("op_cpu_ms", median(cpu_ms_per_slice), "ms");
    report.add("op_bytes",
               static_cast<double>(r.timed_bytes) / static_cast<double>(r.slices.size()),
               "bytes");
    report.note("churn_sim: " + fmt(median(walls)) + " s wall per timed part, " +
                fmt(static_cast<double>(r.window_bytes) /
                    (static_cast<double>(shape.members) * window_s)) +
                " bytes per member per simulated s, converge p50/p90 " +
                fmt(percentile(r.converge_s, 50.0)) + "/" + fmt(percentile(r.converge_s, 90.0)) +
                " simulated s");
    return 0;
  }

  // Traced run: one more community from the same seed runs the same timed
  // part with one span per simulated slice; the untraced runs above are the
  // overhead baseline.
  ChurnBench traced_bench(shape, args.seed);
  const ChurnRun t = traced_bench.run(tracer);
  // Per-layer slices are 10 simulated minutes: groups of the timed minutes.
  std::vector<double> layer_slice_ms, layer_slice_events;
  for (std::size_t i = 0; i < t.slices.size(); ++i) {
    if (i % kSlicesPerLayerSlice == 0) {
      layer_slice_ms.push_back(0.0);
      layer_slice_events.push_back(0.0);
    }
    layer_slice_ms.back() += t.slices[i].wall_s * 1e3;
    layer_slice_events.back() += t.slices[i].events;
  }
  report.add("gossip.rounds", static_cast<double>(t.rounds), "count");
  report.add("gossip.scan_entries_per_round",
             frac(static_cast<double>(t.scan_entries), static_cast<double>(t.rounds)), "count");
  report.add("gossip.summary_builds", static_cast<double>(t.summary_builds), "count");
  static const char* kTypes[] = {"Rumor",       "RumorAck",     "SummaryRequest", "Summary",
                                 "PullRequest", "PullResponse", "RumorDigest",    "RumorWant"};
  for (std::size_t i = 0; i < planetp::gossip::kMessageTypeCount && i < 8; ++i) {
    report.add(std::string("gossip.bytes.") + kTypes[i], static_cast<double>(t.bytes_by_type[i]),
               "bytes");
    report.add(std::string("gossip.msgs.") + kTypes[i], static_cast<double>(t.msgs_by_type[i]),
               "count");
  }
  report.add("gossip.payloads", static_cast<double>(t.payloads), "count");
  report.add("gossip.duplicate_frac",
             frac(static_cast<double>(t.duplicates), static_cast<double>(t.payloads)), "fraction");
  report.add("gossip.converge_p50_s", percentile(t.converge_s, 50.0), "sim_s");
  report.add("gossip.converge_p90_s", percentile(t.converge_s, 90.0), "sim_s");
  report.add("sim.slice_ms", median(layer_slice_ms), "ms");
  report.add("sim.slice_growth", frac(layer_slice_ms.back(), layer_slice_ms.front()), "ratio");
  report.add("sim.events", median(layer_slice_events), "count");
  report.add("sim.events_growth", frac(layer_slice_events.back(), layer_slice_events.front()),
             "ratio");
  double sliced = 0.0;
  for (const Slice& s : t.slices) sliced += s.wall_s;
  report.add("bench.coverage", frac(sliced, t.timed_wall_s), "fraction");
  report.add("bench.overhead", t.timed_wall_s / median(walls) - 1.0, "fraction");
  report.note("churn_sim traced run: " + std::to_string(t.slices.size()) +
              " slices of one simulated minute");
  report.note(layer_table(tracer, static_cast<double>(t.slices.size())));
  return 0;
}

}  // namespace perfbench
