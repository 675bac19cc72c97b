// publish_mix: writes beside reads, with no sockets. An in-process
// core::Community in kGossipStep mode, preloaded and converged; one caller
// then runs a closed loop of publishes on the virtual clock, each followed by
// a fixed simulated gossip step and one ranked query from a rotating peer.
// The write path does most of the work here: text, index, bloom projection
// and encoding, the broker snippet, and the spreading of real filter diffs.

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "bloom/wire.hpp"
#include "core/community.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using planetp::core::Community;
using planetp::core::Node;
using planetp::index::DocumentId;

struct MixShape {
  std::size_t peers = 32;
  std::size_t base_docs = 600;
  double ops_per_second = 50.0;  ///< stream length per second of --seconds
  planetp::Duration step = 2 * planetp::kSecond;
  planetp::Duration drain_limit = 30 * planetp::kMinute;
  std::size_t k = 20;
  std::size_t other_every = 10;  ///< every 10th write is an unpublish or republish
};

/// Generated queries the follow-up searches draw from; more than AP89's 97,
/// so each seed's query mix costs about the same.
constexpr std::size_t kQueries = 300;

enum class OpKind { kPublish, kUnpublish, kRepublish };

struct Op {
  OpKind kind = OpKind::kPublish;
  std::uint32_t owner = 0;
  std::size_t doc = 0;    ///< collection index of the new content
  std::size_t query = 0;  ///< collection query index for the follow-up search
};

/// A write whose convergence is being watched: every online peer must hold
/// the origin at >= version.
struct Change {
  std::uint32_t origin = 0;
  std::uint64_t version = 0;
  planetp::TimePoint at = 0;
};

/// Mirror of one peer's write path, for the traced run: the same public
/// calls Node::publish makes internally, re-issued on identical state.
struct Mirror {
  explicit Mirror(std::uint32_t id)
      : store(id), last(planetp::bloom::BloomParams{}) {
    planetp::ByteWriter w;
    planetp::bloom::encode_filter(w, last);
    last_wire = w.take();
  }
  planetp::index::DataStore store;
  planetp::bloom::BloomFilter last;
  std::vector<std::uint8_t> last_wire;
};

struct PassResult {
  std::vector<double> publish_ms, query_ms;
  std::vector<double> write_call_ms;  ///< per write: its publish/unpublish/republish call
  std::vector<double> step_s;         ///< per write: the gossip step after it
  std::vector<double> cpu_ms_per_write;  ///< process CPU per write cycle, one per segment
  std::uint64_t payload_bytes = 0;       ///< gossip payload bytes sent during the stream
  std::size_t writes = 0;
  std::vector<double> converge_s;
  std::size_t unconverged = 0;
  bool final_state_ok = false;
};

/// Per-layer accumulators of the traced pass (means are per call).
struct LayerSums {
  std::vector<double> analyze_us, store_us, project_us, encode_full_us, encode_diff_us,
      full_bytes, diff_bytes, merge_diff_us, lookup_us;
  double mirrored_ns = 0.0, publish_ns = 0.0;
  planetp::gossip::GossipStats gossip;
  planetp::index::EpochStats epochs;
  planetp::search::CandidateCacheStats cache_before, cache_after;
};

class MixBench {
 public:
  MixBench(const MixShape& shape, const Args& args, bool traced)
      : shape_(shape), traced_(traced) {
    const std::int64_t t0 = now_ns();
    const std::size_t stream = std::max<std::size_t>(
        1, static_cast<std::size_t>(shape.ops_per_second * args.seconds + 0.5));
    collection_ = make_collection(shape.base_docs + stream, kQueries, args.seed);
    // The base corpus and the stream are placed separately, with the same
    // seed and so the same peer shares: every peer writes exactly its share
    // of the stream, and only the order of the writes varies with the seed.
    owners_ = weibull_placement(shape.base_docs, shape.peers, args.seed);
    const std::vector<std::uint32_t> stream_owners =
        weibull_placement(stream, shape.peers, args.seed);
    owners_.insert(owners_.end(), stream_owners.begin(), stream_owners.end());
    make_ops(stream, args.seed);

    community_ = std::make_unique<Community>(planetp::core::NodeConfig{},
                                             planetp::core::SyncMode::kGossipStep,
                                             sub_seed(args.seed, 0x77));
    for (std::size_t i = 0; i < shape.peers; ++i) {
      community_->create_node();
      if (traced_) mirrors_.push_back(std::make_unique<Mirror>(static_cast<std::uint32_t>(i)));
    }
    live_docs_.resize(shape.peers);
    for (std::size_t d = 0; d < shape.base_docs; ++d) {
      const std::string xml = doc_xml(collection_.docs[d]);
      const DocumentId id = community_->node(owners_[d]).publish(xml);
      live_docs_[owners_[d]].push_back(id);
      if (traced_) mirror_write(owners_[d], [&](Mirror& m) { m.store.publish(xml); });
    }
    converged_ = community_->step_until_converged(2 * planetp::kHour);
    // Warm the candidate caches: one query per peer.
    for (std::size_t i = 0; i < shape.peers; ++i) {
      community_->node(static_cast<std::uint32_t>(i))
          .ranked_search(query_text(collection_.queries[i % collection_.queries.size()]), shape.k);
    }
    setup_s_ = static_cast<double>(now_ns() - t0) / 1e9;
  }

  MixBench(const MixBench&) = delete;
  MixBench& operator=(const MixBench&) = delete;

  double setup_s() const { return setup_s_; }
  bool converged() const { return converged_; }

  PassResult run(Tracer& tracer, LayerSums* layers);

 private:
  void make_ops(std::size_t stream, std::uint64_t seed) {
    planetp::Rng rng(sub_seed(seed, 0x0B));
    std::vector<std::size_t> query_order(collection_.queries.size());
    std::iota(query_order.begin(), query_order.end(), 0);
    std::shuffle(query_order.begin(), query_order.end(), rng);
    const std::uint64_t offset = rng.below(shape_.other_every);
    std::uint64_t others = 0;
    for (std::size_t j = 0; j < stream; ++j) {
      Op op;
      op.doc = shape_.base_docs + j;
      op.owner = owners_[op.doc];
      op.query = query_order[j % query_order.size()];
      if ((j + offset) % shape_.other_every == 0) {
        op.kind = others++ % 2 == 0 ? OpKind::kUnpublish : OpKind::kRepublish;
      }
      ops_.push_back(op);
    }
  }

  template <typename Fn>
  void mirror_write(std::uint32_t owner, Fn&& fn) {
    Mirror& m = *mirrors_[owner];
    fn(m);
    m.last = m.store.bloom_filter();
    planetp::ByteWriter w;
    planetp::bloom::encode_filter(w, m.last);
    m.last_wire = w.take();
  }

  /// The traced pass's re-issue of Node::publish's internal layer calls.
  void mirror_publish(std::uint32_t owner, const std::string& xml, const std::string& body,
                      std::uint32_t root, std::uint32_t trace, Tracer& tracer,
                      LayerSums& sums);

  /// Search-side mirror: CandidateCache::lookup over the searcher's view.
  void mirror_lookup(std::uint32_t searcher, const std::string& query, std::uint32_t root,
                     std::uint32_t trace, Tracer& tracer, LayerSums& sums);

  bool final_state_ok();

  MixShape shape_;
  bool traced_;
  planetp::corpus::SynthCollection collection_;
  std::vector<std::uint32_t> owners_;
  std::vector<Op> ops_;
  std::unique_ptr<Community> community_;
  std::vector<std::vector<DocumentId>> live_docs_;
  std::vector<std::unique_ptr<Mirror>> mirrors_;
  std::vector<std::unique_ptr<planetp::search::CandidateCache>> lookup_mirrors_;
  double setup_s_ = 0.0;
  bool converged_ = false;
};

void MixBench::mirror_publish(std::uint32_t owner, const std::string& xml,
                              const std::string& body, std::uint32_t root, std::uint32_t trace,
                              Tracer& tracer, LayerSums& sums) {
  Mirror& m = *mirrors_[owner];
  std::uint32_t store_span = 0;
  const double store_ns = static_cast<double>(
      tracer.timed("index.store_publish", root, trace, [&] { m.store.publish(xml); },
                   &store_span));
  const double analyze_ns = static_cast<double>(tracer.timed(
      "text.analyze", store_span, trace, [&] { (void)m.store.analyzer().analyze(body); }));
  planetp::bloom::BloomFilter current(planetp::bloom::BloomParams{});
  const double project_ns = static_cast<double>(
      tracer.timed("bloom.project", root, trace, [&] { current = m.store.bloom_filter(); }));
  std::vector<std::uint8_t> full, diff;
  const double full_ns = static_cast<double>(tracer.timed("bloom.encode_full", root, trace, [&] {
    planetp::ByteWriter w;
    planetp::bloom::encode_filter(w, current);
    full = w.take();
  }));
  const double diff_ns = static_cast<double>(tracer.timed("bloom.encode_diff", root, trace, [&] {
    planetp::ByteWriter w;
    planetp::bloom::encode_diff(w, current.diff_from(m.last));
    diff = w.take();
  }));
  // A receiver's cost: fold the diff into its at-rest copy of our filter.
  const double merge_ns = static_cast<double>(tracer.timed("bloom.merge_diff", 0, trace, [&] {
    (void)planetp::bloom::merge_diff_wire(m.last_wire, diff);
  }));
  sums.analyze_us.push_back(analyze_ns / 1e3);
  sums.store_us.push_back(store_ns / 1e3);
  sums.project_us.push_back(project_ns / 1e3);
  sums.encode_full_us.push_back(full_ns / 1e3);
  sums.encode_diff_us.push_back(diff_ns / 1e3);
  sums.merge_diff_us.push_back(merge_ns / 1e3);
  sums.full_bytes.push_back(static_cast<double>(full.size()));
  sums.diff_bytes.push_back(static_cast<double>(diff.size()));
  sums.mirrored_ns += store_ns + project_ns + full_ns + diff_ns;
  m.last = std::move(current);
  m.last_wire = std::move(full);
}

void MixBench::mirror_lookup(std::uint32_t searcher, const std::string& query,
                             std::uint32_t root, std::uint32_t trace, Tracer& tracer,
                             LayerSums& sums) {
  if (lookup_mirrors_.empty()) {
    for (std::size_t i = 0; i < shape_.peers; ++i) {
      lookup_mirrors_.push_back(std::make_unique<planetp::search::CandidateCache>());
    }
  }
  Node& node = community_->node(searcher);
  planetp::search::CandidateCache& cache = *lookup_mirrors_[searcher];
  std::vector<planetp::search::PeerFilter> views;
  std::vector<std::shared_ptr<const planetp::bloom::BloomFilter>> pinned;
  node.protocol().directory().for_each([&](const planetp::gossip::PeerRecord& r) {
    if (!r.online || r.filter_wire.empty()) return;
    auto f = node.filter_of(r.id);
    if (f == nullptr) return;
    if (cache.version_of(r.id) != r.version) cache.update_peer(r.id, f, r.version);
    views.push_back(planetp::search::PeerFilter{r.id, f.get(), r.suspicion});
    pinned.push_back(std::move(f));
  });
  const auto terms = node.store().analyzer().analyze(query);
  const double ns = static_cast<double>(tracer.timed(
      "search.lookup", root, trace, [&] { (void)cache.lookup(terms, views); }));
  sums.lookup_us.push_back(ns / 1e3);
}

bool MixBench::final_state_ok() {
  // Every peer holds every publisher's last version and filter bytes.
  for (std::size_t b = 0; b < shape_.peers; ++b) {
    const auto origin = static_cast<std::uint32_t>(b);
    const planetp::gossip::PeerRecord* own =
        community_->node(origin).protocol().directory().find(origin);
    if (own == nullptr) return false;
    for (std::size_t a = 0; a < shape_.peers; ++a) {
      const planetp::gossip::PeerRecord* seen =
          community_->node(static_cast<std::uint32_t>(a)).protocol().directory().find(origin);
      if (seen == nullptr || seen->version != own->version ||
          seen->filter_wire != own->filter_wire) {
        return false;
      }
    }
  }
  return true;
}

planetp::gossip::GossipStats gossip_total(Community& c) {
  planetp::gossip::GossipStats s;
  for (std::size_t i = 0; i < c.size(); ++i) s += c.node(static_cast<std::uint32_t>(i)).gossip_stats();
  return s;
}

planetp::index::EpochStats epoch_total(Community& c) {
  planetp::index::EpochStats s;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const planetp::index::EpochStats e = c.node(static_cast<std::uint32_t>(i)).store().epochs().stats();
    s.merges_completed += e.merges_completed;
    s.coalesces += e.coalesces;
    s.tombstones_created += e.tombstones_created;
  }
  return s;
}

planetp::search::CandidateCacheStats cache_total(Community& c) {
  planetp::search::CandidateCacheStats s;
  for (std::size_t i = 0; i < c.size(); ++i) {
    add_cache_stats(s, c.node(static_cast<std::uint32_t>(i)).candidate_cache().stats());
  }
  return s;
}

PassResult MixBench::run(Tracer& tracer, LayerSums* layers) {
  PassResult r;
  Community& c = *community_;
  planetp::Rng pick(0x5e1ec7);
  std::vector<Change> pending;
  const auto check_converged = [&] {
    const planetp::TimePoint now = c.now();
    std::erase_if(pending, [&](const Change& ch) {
      for (std::size_t i = 0; i < c.size(); ++i) {
        const auto id = static_cast<std::uint32_t>(i);
        if (!c.is_online(id)) continue;
        const planetp::gossip::PeerRecord* rec = c.node(id).protocol().directory().find(ch.origin);
        if (rec == nullptr || rec->version < ch.version) return false;
      }
      r.converge_s.push_back(static_cast<double>(now - ch.at) / planetp::kSecond);
      return true;
    });
  };
  const planetp::gossip::GossipStats gossip0 = gossip_total(c);
  const planetp::index::EpochStats epochs0 = epoch_total(c);
  const planetp::search::CandidateCacheStats cache0 = cache_total(c);

  std::uint32_t trace = 0;
  std::int64_t cpu_mark = process_cpu_ns();
  std::size_t segment_start = 0;
  for (std::size_t j = 0; j < ops_.size(); ++j) {
    const Op& op = ops_[j];
    Node& owner = c.node(op.owner);
    std::vector<DocumentId>& live = live_docs_[op.owner];
    OpKind kind = op.kind;
    if (kind != OpKind::kPublish && live.empty()) kind = OpKind::kPublish;
    const std::string xml = doc_xml(collection_.docs[op.doc]);
    ++trace;

    std::int64_t start = now_ns();
    if (kind == OpKind::kPublish) {
      const DocumentId id = owner.publish(xml);
      const std::int64_t end = now_ns();
      const std::uint32_t root = tracer.record("core.publish", 0, trace, start, end);
      live.push_back(id);
      r.publish_ms.push_back(static_cast<double>(end - start) / 1e6);
      r.write_call_ms.push_back(static_cast<double>(end - start) / 1e6);
      if (layers != nullptr) {
        mirror_publish(op.owner, xml, doc_body(collection_.docs[op.doc]), root, trace, tracer,
                       *layers);
        layers->publish_ns += static_cast<double>(end - start);
      }
    } else {
      const std::size_t victim = pick.below(live.size());
      const DocumentId id = live[victim];
      if (kind == OpKind::kUnpublish) {
        owner.unpublish(id);
        live[victim] = live.back();
        live.pop_back();
      } else {
        owner.republish(id, xml);
      }
      r.write_call_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
      if (layers != nullptr) {
        mirror_write(op.owner, [&](Mirror& m) {
          if (kind == OpKind::kUnpublish) {
            m.store.unpublish(id);
          } else {
            m.store.republish(id, xml);
          }
        });
      }
    }
    ++r.writes;
    pending.push_back(Change{op.owner, owner.protocol().directory().find(op.owner)->version,
                             c.now()});

    start = now_ns();
    c.step(shape_.step);
    std::int64_t end = now_ns();
    tracer.record("gossip.step", 0, trace, start, end);
    r.step_s.push_back(static_cast<double>(end - start) / 1e9);
    check_converged();

    const auto searcher = static_cast<std::uint32_t>(j % c.size());
    const std::string query = query_text(collection_.queries[op.query]);
    start = now_ns();
    (void)c.node(searcher).ranked_search(query, shape_.k);
    end = now_ns();
    const std::uint32_t qroot = tracer.record("search.query", 0, trace, start, end);
    r.query_ms.push_back(static_cast<double>(end - start) / 1e6);
    if (layers != nullptr) mirror_lookup(searcher, query, qroot, trace, tracer, *layers);

    if (j + 1 == ops_.size() * (r.cpu_ms_per_write.size() + 1) / kSegments ||
        j + 1 == ops_.size()) {
      const std::int64_t cpu = process_cpu_ns();
      r.cpu_ms_per_write.push_back(static_cast<double>(cpu - cpu_mark) / 1e6 /
                                   static_cast<double>(j + 1 - segment_start));
      cpu_mark = cpu;
      segment_start = j + 1;
    }
  }
  planetp::gossip::GossipStats stream_gossip = gossip_total(c);
  stream_gossip -= gossip0;
  r.payload_bytes = stream_gossip.payload_bytes_sent;

  if (layers != nullptr) {
    layers->gossip = stream_gossip;
    const planetp::index::EpochStats e = epoch_total(c);
    layers->epochs.merges_completed = e.merges_completed - epochs0.merges_completed;
    layers->epochs.coalesces = e.coalesces - epochs0.coalesces;
    layers->epochs.tombstones_created = e.tombstones_created - epochs0.tombstones_created;
    layers->cache_before = cache0;
    layers->cache_after = cache_total(c);
  }

  // Drain: keep gossiping until every change has reached every online peer.
  const planetp::TimePoint drain_end = c.now() + shape_.drain_limit;
  while (!pending.empty() && c.now() < drain_end) {
    c.step(shape_.step);
    check_converged();
  }
  r.unconverged = pending.size();
  r.final_state_ok = pending.empty() && final_state_ok();
  return r;
}

constexpr int kSetups = 3;  ///< set-ups per run; setup_s is their median

}  // namespace

int run_publish_mix(const Args& args, Report& report, Tracer& tracer) {
  MixShape shape;
  if (args.smoke) {
    shape.peers = 8;
    shape.base_docs = 40;
    shape.ops_per_second = 4.0;
  }

  std::vector<double> setups;
  std::unique_ptr<MixBench> bench;
  bool setups_converged = true;
  for (int s = 0; s < kSetups; ++s) {
    bench.reset();
    bench = std::make_unique<MixBench>(shape, args, false);
    setups.push_back(bench->setup_s());
    setups_converged = setups_converged && bench->converged();
  }
  Tracer untraced(false);
  const PassResult r = bench->run(untraced, nullptr);

  report.attempted = r.writes;
  report.failed = r.unconverged;
  report.correct = setups_converged && r.final_state_ok;
  if (!report.correct) {
    report.note("publish_mix: final directories disagree with the publishers' own records");
  }

  if (!args.trace) {
    // An operation is one write cycle: the write call, the gossip step after
    // it and the follow-up query. Latency is the write call's.
    report.add("setup_s", median(setups), "s");
    report.note(setups_note("publish_mix", setups));
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("op_p50_ms", segmented_percentile(r.write_call_ms, kSegments, 50.0), "ms");
    report.add("op_p90_ms", segmented_percentile(r.write_call_ms, kSegments, 90.0), "ms");
    report.add("op_cpu_ms", median(r.cpu_ms_per_write), "ms");
    report.add("op_bytes",
               static_cast<double>(r.payload_bytes) / static_cast<double>(r.writes), "bytes");
    report.note("publish_mix: query p50 " +
                fmt(segmented_percentile(r.query_ms, kSegments, 50.0)) + " ms, converge p50/p90 " +
                fmt(percentile(r.converge_s, 50.0)) + "/" + fmt(percentile(r.converge_s, 90.0)) +
                " simulated s");
    return 0;
  }

  // Traced pass: a fresh community from the same seed, with every layer call
  // Node::publish makes re-issued on mirror stores between operations.
  MixBench traced(shape, args, true);
  LayerSums sums;
  const PassResult t = traced.run(tracer, &sums);
  if (!t.final_state_ok) report.correct = false;

  std::vector<double> rest;
  for (std::size_t i = 0; i < t.publish_ms.size() && i < sums.store_us.size(); ++i) {
    rest.push_back(t.publish_ms[i] * 1e3 - sums.store_us[i] - sums.project_us[i] -
                   sums.encode_full_us[i] - sums.encode_diff_us[i]);
  }
  report.add("text.analyze_us", mean(sums.analyze_us), "us");
  report.add("search.lookup_us", mean(sums.lookup_us), "us");
  report_cache_fracs(report, sums.cache_before, sums.cache_after);
  report.add("index.store_publish_us", mean(sums.store_us), "us");
  report.add("index.merges", static_cast<double>(sums.epochs.merges_completed), "count");
  report.add("index.coalesces", static_cast<double>(sums.epochs.coalesces), "count");
  report.add("index.tombstones", static_cast<double>(sums.epochs.tombstones_created), "count");
  report.add("bloom.project_us", mean(sums.project_us), "us");
  report.add("bloom.encode_full_us", mean(sums.encode_full_us), "us");
  report.add("bloom.encode_diff_us", mean(sums.encode_diff_us), "us");
  report.add("bloom.full_bytes", mean(sums.full_bytes), "bytes");
  report.add("bloom.diff_bytes", mean(sums.diff_bytes), "bytes");
  report.add("bloom.merge_diff_us", mean(sums.merge_diff_us), "us");
  report.add("gossip.step_ms", mean(t.step_s) * 1e3, "ms");
  report.add("gossip.payloads", static_cast<double>(sums.gossip.payloads_sent), "count");
  report.add("gossip.duplicate_frac",
             frac(static_cast<double>(sums.gossip.duplicate_payloads),
                  static_cast<double>(sums.gossip.payloads_sent)),
             "fraction");
  report.add("gossip.converge_p50_s", percentile(t.converge_s, 50.0), "sim_s");
  report.add("gossip.converge_p90_s", percentile(t.converge_s, 90.0), "sim_s");
  report.add("core.publish_rest_us", mean(rest), "us");
  report.add("bench.coverage", frac(sums.mirrored_ns, sums.publish_ns), "fraction");
  report.add("bench.overhead",
             frac(segmented_percentile(t.publish_ms, kSegments, 50.0),
                  segmented_percentile(r.publish_ms, kSegments, 50.0)) - 1.0,
             "fraction");
  report.note("publish_mix traced pass: " + std::to_string(t.writes) + " writes, " +
              std::to_string(t.publish_ms.size()) + " publishes");
  report.note(layer_table(tracer, static_cast<double>(t.writes)));
  return 0;
}

}  // namespace perfbench
