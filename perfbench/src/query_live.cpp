// query_live: ranked search over real sockets. A loopback net::LiveCluster
// with paper defaults boots converged with the whole collection published;
// one generator thread then issues ranked queries in an open loop at a fixed
// rate, rotating the searcher. This is the only workload where net and remote
// evaluation sit on the blocking path; bloom, gossip and index writes do
// nothing during its window.

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "harness.hpp"
#include "index/data_store.hpp"
#include "net/cluster.hpp"
#include "net/rpc.hpp"
#include "search/candidate_cache.hpp"
#include "search/distributed.hpp"
#include "search/ranker.hpp"

namespace perfbench {
namespace {

using planetp::index::DocumentId;
using planetp::search::ScoredDoc;

struct LiveShape {
  std::size_t peers = 16;
  std::size_t docs = 2000;
  std::size_t queries = 300;  ///< judged queries drawn with the collection
  std::size_t k = 20;
  /// Open-loop rate, about half of one CPU's closed-loop capacity.
  double queries_per_second = 500.0;
  int setups = 2;  ///< set-ups per run; setup_s is their median
};

/// One query of the open loop as issued and as answered.
struct Issued {
  std::uint32_t searcher = 0;  ///< cluster index
  std::uint32_t query = 0;     ///< collection query index
  std::int64_t due_ns = 0, start_ns = 0, end_ns = 0;
  std::vector<planetp::net::LiveHit> hits;
  bool threw = false;
  std::uint32_t span = 0;  ///< root span of the traced run
};

/// What the reference evaluation of one (searcher, query) pair produced.
struct Reference {
  std::vector<std::string> terms;
  std::vector<ScoredDoc> docs;
  std::vector<std::uint32_t> contacted;               ///< peer ids, contact order
  std::vector<std::vector<ScoredDoc>> contact_docs;  ///< what each contact returned
};

/// Transport counters summed over the cluster.
struct NetTotals {
  std::uint64_t bytes_out = 0, frames_out = 0, failures = 0, rounds = 0;
  planetp::search::CandidateCacheStats cache;
};

NetTotals net_totals(planetp::net::LiveCluster& cluster) {
  NetTotals t;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    planetp::net::LiveNode& node = cluster.node(i);
    const planetp::net::NetStats s = node.net_stats();
    t.bytes_out += s.bytes_out;
    t.frames_out += s.frames_out;
    t.failures += s.drops_backpressure + s.drops_backoff + s.drops_unroutable +
                  s.rpc_rejected_full + s.connects_failed;
    t.rounds += node.gossip_rounds();
    add_cache_stats(t.cache, node.candidate_cache().stats());
  }
  return t;
}

struct Window {
  std::vector<Issued> issued;
  NetTotals before, after;
  std::vector<double> cpu_ms_per_query;  ///< one value per segment
};

class LiveBench {
 public:
  LiveBench(const LiveShape& shape, const Args& args) : shape_(shape), seed_(args.seed) {
    collection_ = make_collection(shape.docs, shape.queries, args.seed);
    owners_ = weibull_placement(shape.docs, shape.peers, args.seed);
    planetp::Rng rng(sub_seed(args.seed, 0x0B));
    query_order_.resize(collection_.queries.size());
    std::iota(query_order_.begin(), query_order_.end(), 0);
    std::shuffle(query_order_.begin(), query_order_.end(), rng);
    build_mirrors();
  }

  LiveBench(const LiveBench&) = delete;
  LiveBench& operator=(const LiveBench&) = delete;

  /// Generate the collection, build a fresh cluster, publish every document
  /// on its owner, start and warm up; returns the seconds this took. The
  /// previous cluster, if any, is shut down first, outside the timing.
  double setup() {
    cluster_.reset();
    const std::int64_t t0 = now_ns();
    const planetp::corpus::SynthCollection collection =
        make_collection(shape_.docs, shape_.queries, seed_);
    const std::vector<std::uint32_t> owners = weibull_placement(shape_.docs, shape_.peers, seed_);
    cluster_ = std::make_unique<planetp::net::LiveCluster>(shape_.peers,
                                                           planetp::net::LiveNodeConfig{});
    for (std::size_t d = 0; d < collection.docs.size(); ++d) {
      const DocumentId id = cluster_->node(owners[d]).publish(doc_xml(collection.docs[d]));
      if (id != mirror_ids_[d]) mismatched_ids_ = true;
    }
    cluster_->start();
    // Warm-up: every (searcher, query) pair once, so connections are open and
    // every searcher's candidate cache holds every query term.
    for (std::size_t s = 0; s < shape_.peers; ++s) {
      for (const std::size_t q : query_order_) {
        (void)cluster_->node(s).ranked_search(texts_[q], shape_.k);
      }
    }
    return static_cast<double>(now_ns() - t0) / 1e9;
  }

  bool ids_match() const { return !mismatched_ids_; }

  /// Issue \p n queries in an open loop at the configured rate.
  Window run_window(std::size_t n, std::size_t first, Tracer& tracer) {
    Window w;
    w.issued.reserve(n);
    const auto period = static_cast<std::int64_t>(1e9 / shape_.queries_per_second);
    // A reactor counts a frame's bytes after the write that let the reader
    // return, so let the last reply's accounting land before each snapshot.
    const auto settled_totals = [&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return net_totals(*cluster_);
    };
    w.before = settled_totals();
    std::int64_t cpu_mark = process_cpu_ns();
    std::int64_t spin_ns = 0;  // generator CPU spent waiting in the segment
    std::size_t segment_start = 0;
    const std::int64_t t0 = now_ns() + 1'000'000;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t seq = first + i;
      Issued q;
      q.searcher = static_cast<std::uint32_t>(seq % shape_.peers);
      q.query = static_cast<std::uint32_t>(query_order_[seq % query_order_.size()]);
      q.due_ns = t0 + static_cast<std::int64_t>(i) * period;
      // Spin (yielding) rather than sleep until the query is due. A vCPU that
      // goes idle is descheduled by the hypervisor and resumes with caches
      // its neighbours have cooled, which tied latency to the neighbours'
      // load. The spin is the benchmark's CPU, not the program's, and is
      // taken out of query_cpu_ms.
      const std::int64_t spin_start = thread_cpu_ns();
      while (now_ns() < q.due_ns) std::this_thread::yield();
      spin_ns += thread_cpu_ns() - spin_start;
      q.start_ns = now_ns();
      try {
        q.hits = cluster_->node(q.searcher).ranked_search(texts_[q.query], shape_.k);
      } catch (const std::exception&) {
        q.threw = true;
      }
      q.end_ns = now_ns();
      q.span = tracer.record("net.query", 0, static_cast<std::uint32_t>(seq + 1), q.due_ns,
                             q.end_ns);
      w.issued.push_back(std::move(q));
      if (i + 1 == n * (w.cpu_ms_per_query.size() + 1) / kSegments || i + 1 == n) {
        const std::int64_t cpu = process_cpu_ns();
        w.cpu_ms_per_query.push_back(static_cast<double>(cpu - cpu_mark - spin_ns) / 1e6 /
                                     static_cast<double>(i + 1 - segment_start));
        cpu_mark = cpu;
        spin_ns = 0;
        segment_start = i + 1;
      }
    }
    w.after = settled_totals();
    return w;
  }

  /// tfipf_search over the mirror DataStores: the same documents, ids and
  /// options the live searcher uses, so hits must agree bit for bit.
  const Reference& reference(std::uint32_t searcher, std::uint32_t query) {
    const std::uint64_t key = static_cast<std::uint64_t>(searcher) << 32 | query;
    auto it = references_.find(key);
    if (it != references_.end()) return it->second;
    Reference ref;
    ref.terms = mirrors_[searcher]->analyzer().analyze(texts_[query]);
    if (!ref.terms.empty()) {
      const auto contact = [&](std::uint32_t peer,
                               const std::unordered_map<std::string, double>& weights)
          -> planetp::search::PeerSearchResult {
        auto docs = planetp::search::score_snapshot(*mirrors_[peer - 1]->snapshot(), weights);
        ref.contacted.push_back(peer);
        ref.contact_docs.push_back(docs);
        return planetp::search::PeerSearchResult::ok(std::move(docs));
      };
      planetp::search::DistributedSearchOptions opts;
      opts.k = shape_.k;
      opts.seed = 0x5ea2c4u ^ (searcher + 1);
      ref.docs = planetp::search::tfipf_search(ref.terms, views_[searcher], contact, opts).docs;
    }
    return references_.emplace(key, std::move(ref)).first->second;
  }

  bool matches(const Issued& q) {
    if (q.threw) return false;
    const Reference& ref = reference(q.searcher, q.query);
    if (q.hits.size() != ref.docs.size()) return false;
    for (std::size_t i = 0; i < q.hits.size(); ++i) {
      const planetp::net::LiveHit& h = q.hits[i];
      const ScoredDoc& d = ref.docs[i];
      if (h.peer != d.doc.peer || h.local != d.doc.local ||
          std::bit_cast<std::uint64_t>(h.score) != std::bit_cast<std::uint64_t>(d.score)) {
        return false;
      }
    }
    return true;
  }

  double recall(const Issued& q) const {
    const auto& relevant = collection_.queries[q.query].relevant_docs;
    if (relevant.empty()) return 1.0;
    std::size_t found = 0;
    for (const planetp::net::LiveHit& h : q.hits) {
      const auto it = synth_of_.find(DocumentId{h.peer, h.local});
      if (it != synth_of_.end() && relevant.contains(it->second)) ++found;
    }
    return static_cast<double>(found) / static_cast<double>(relevant.size());
  }

  /// Traced run: re-issue the searcher- and peer-side layer calls of one
  /// query on the mirrors, as children of the query's span \p root.
  /// Returns the mirrored time in ns.
  double mirror_query(const Issued& q, std::uint32_t root, std::uint32_t trace, Tracer& tracer,
                      std::map<std::string, double>& layer_ns);

  std::size_t remote_contacts(const Issued& q) {
    const Reference& ref = reference(q.searcher, q.query);
    return static_cast<std::size_t>(std::count_if(
        ref.contacted.begin(), ref.contacted.end(),
        [&](std::uint32_t p) { return p != q.searcher + 1; }));
  }

 private:
  void build_mirrors() {
    for (const auto& query : collection_.queries) texts_.push_back(query_text(query));
    for (std::size_t p = 0; p < shape_.peers; ++p) {
      mirrors_.push_back(
          std::make_unique<planetp::index::DataStore>(static_cast<std::uint32_t>(p + 1)));
    }
    for (std::size_t d = 0; d < collection_.docs.size(); ++d) {
      const DocumentId id = mirrors_[owners_[d]]->publish(doc_xml(collection_.docs[d]));
      mirror_ids_.push_back(id);
      synth_of_.emplace(id, collection_.docs[d].id);
    }
    for (auto& m : mirrors_) {
      m->epochs().wait_for_merges();
      filters_.push_back(std::make_shared<planetp::bloom::BloomFilter>(m->bloom_filter()));
    }
    // A searcher sees every other peer in id order, then itself.
    views_.resize(shape_.peers);
    for (std::size_t s = 0; s < shape_.peers; ++s) {
      for (std::size_t p = 0; p < shape_.peers; ++p) {
        if (p != s) {
          views_[s].push_back({static_cast<std::uint32_t>(p + 1), filters_[p].get(), 0});
        }
      }
      views_[s].push_back({static_cast<std::uint32_t>(s + 1), filters_[s].get(), 0});
      caches_.push_back(std::make_unique<planetp::search::CandidateCache>());
      for (std::size_t p = 0; p < shape_.peers; ++p) {
        caches_.back()->update_peer(static_cast<std::uint32_t>(p + 1), filters_[p], 1);
      }
    }
  }

  LiveShape shape_;
  std::uint64_t seed_;
  planetp::corpus::SynthCollection collection_;  ///< the mirrors' copy of the inputs
  std::vector<std::uint32_t> owners_;
  std::vector<std::size_t> query_order_;
  std::vector<std::string> texts_;
  std::vector<std::unique_ptr<planetp::index::DataStore>> mirrors_;
  std::vector<DocumentId> mirror_ids_;
  std::unordered_map<DocumentId, std::uint32_t, planetp::index::DocumentIdHash> synth_of_;
  std::vector<std::shared_ptr<planetp::bloom::BloomFilter>> filters_;
  std::vector<std::vector<planetp::search::PeerFilter>> views_;
  std::vector<std::unique_ptr<planetp::search::CandidateCache>> caches_;
  std::unordered_map<std::uint64_t, Reference> references_;
  std::unique_ptr<planetp::net::LiveCluster> cluster_;
  bool mismatched_ids_ = false;
};

double LiveBench::mirror_query(const Issued& q, std::uint32_t root, std::uint32_t trace,
                               Tracer& tracer, std::map<std::string, double>& layer_ns) {
  const Reference& ref = reference(q.searcher, q.query);
  const planetp::index::DataStore& self = *mirrors_[q.searcher];
  double total = 0.0;
  const auto add = [&](const char* name, std::int64_t ns) {
    layer_ns[name] += static_cast<double>(ns);
    total += static_cast<double>(ns);
  };
  std::vector<std::string> terms;
  add("text.analyze", tracer.timed("text.analyze", root, trace,
                                   [&] { terms = self.analyzer().analyze(texts_[q.query]); }));
  if (terms.empty()) return total;
  const planetp::search::HashedTerms hashed = planetp::search::HashedTerms::from(terms);
  std::optional<planetp::search::IpfTable> ipf;
  add("search.lookup", tracer.timed("search.lookup", root, trace, [&] {
        ipf.emplace(caches_[q.searcher]->lookup(hashed, views_[q.searcher]));
      }));
  add("search.rank_peers", tracer.timed("search.rank_peers", root, trace,
                                        [&] { (void)planetp::search::rank_peers(*ipf); }));
  const auto weights = ipf->weights();
  std::vector<std::vector<ScoredDoc>> returned;
  for (const std::uint32_t peer : ref.contacted) {
    const bool remote = peer != q.searcher + 1;
    if (remote) {
      add("net.codec", tracer.timed("net.codec", root, trace, [&] {
            planetp::net::RankedRequest req;
            req.request_id = trace;
            for (const auto& [term, weight] : weights) req.weights.push_back({term, weight});
            (void)planetp::net::decode_rpc(planetp::net::encode_rpc(req));
          }));
    }
    std::vector<ScoredDoc> docs;
    add("index.eval", tracer.timed("index.eval", root, trace, [&] {
          docs = planetp::search::score_snapshot(*mirrors_[peer - 1]->snapshot(), weights);
        }));
    if (remote) {
      add("net.codec", tracer.timed("net.codec", root, trace, [&] {
            planetp::net::RankedResponse resp;
            resp.request_id = trace;
            for (const ScoredDoc& d : docs) {
              const planetp::index::Document* doc = mirrors_[peer - 1]->document(d.doc);
              resp.docs.push_back(planetp::net::RemoteDoc{d.doc.peer, d.doc.local, d.score,
                                                          doc != nullptr ? doc->title : ""});
            }
            (void)planetp::net::decode_rpc(planetp::net::encode_rpc(resp));
          }));
    }
    returned.push_back(std::move(docs));
  }
  // The searcher-side merge: each contact's list folded into the ranking,
  // then cut to k.
  add("search.merge", tracer.timed("search.merge", root, trace, [&] {
        std::vector<ScoredDoc> merged;
        for (const auto& docs : returned) {
          merged.insert(merged.end(), docs.begin(), docs.end());
          std::sort(merged.begin(), merged.end(), planetp::search::ranks_before);
        }
        planetp::search::truncate_top_k(merged, shape_.k);
      }));
  return total;
}

/// Frames sent in \p w beyond a request and a reply per remote contact:
/// gossip or reconnects inside the window (expected 0).
std::uint64_t extra_frames(const Window& w, std::uint64_t remote_contacts) {
  const std::uint64_t frames = w.after.frames_out - w.before.frames_out;
  return frames > 2 * remote_contacts ? frames - 2 * remote_contacts : 0;
}

std::vector<double> latencies_ms(const Window& w) {
  std::vector<double> out;
  for (const Issued& q : w.issued) out.push_back(static_cast<double>(q.end_ns - q.due_ns) / 1e6);
  return out;
}

}  // namespace

int run_query_live(const Args& args, Report& report, Tracer& tracer) {
  LiveShape shape;
  if (args.smoke) {
    shape.peers = 4;
    shape.docs = 120;
    shape.queries_per_second = 100.0;
    shape.setups = 1;
  }
  LiveBench bench(shape, args);
  std::vector<double> setups;
  for (int s = 0; s < shape.setups; ++s) setups.push_back(bench.setup());

  // The traced run splits --seconds between an untraced and a traced window.
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(shape.queries_per_second * window_s + 0.5));
  Tracer untraced(false);
  const Window w = bench.run_window(n, 0, untraced);

  // Correctness: every top-k against the reference; a query that threw or
  // outlived the RPC timeout (a timed-out contact) also fails.
  const planetp::net::LiveNodeConfig defaults;
  std::uint64_t failed = 0;
  std::vector<double> recalls;
  std::size_t remote = 0;
  for (const Issued& q : w.issued) {
    const bool timed_out = (q.end_ns - q.start_ns) / 1000 >= defaults.rpc_timeout;
    if (!bench.matches(q) || timed_out) ++failed;
    recalls.push_back(bench.recall(q));
    remote += bench.remote_contacts(q);
  }
  report.attempted = w.issued.size();
  report.failed = failed;
  report.correct = failed == 0 && bench.ids_match();
  report.note("query_live: " + std::to_string(w.issued.size()) + " queries, " +
              std::to_string(failed) + " differ from the reference, " +
              std::to_string(w.after.failures - w.before.failures) + " transport failures, " +
              std::to_string(extra_frames(w, remote)) + " non-query frames in the window");

  const auto lat = latencies_ms(w);
  if (!args.trace) {
    // An operation is one ranked query.
    report.add("setup_s", median(setups), "s");
    report.note(setups_note("query_live", setups));
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("op_p50_ms", segmented_percentile(lat, kSegments, 50.0), "ms");
    report.add("op_p90_ms", segmented_percentile(lat, kSegments, 90.0), "ms");
    report.add("op_cpu_ms", median(w.cpu_ms_per_query), "ms");
    report.add("op_bytes",
               static_cast<double>(w.after.bytes_out - w.before.bytes_out) /
                   static_cast<double>(n),
               "bytes");
    report.note("query_live: mean recall@" + std::to_string(shape.k) + " " +
                fmt(mean(recalls)));
    return 0;
  }

  // Traced run: a second window of the same length on the same cluster with
  // one span per query, then the layer calls of each query re-issued on the
  // mirrors as the span's children. The first window is the untraced
  // baseline for the overhead.
  const Window t = bench.run_window(n, n, tracer);
  std::map<std::string, double> layer_ns;
  std::vector<double> transit_us, lag_ms;
  double mirrored = 0.0, e2e = 0.0;
  double contacts = 0.0, useful = 0.0, shipped = 0.0, shipped_useful = 0.0, remote_t = 0.0;
  std::uint64_t traced_failed = 0;
  for (std::size_t i = 0; i < t.issued.size(); ++i) {
    const Issued& q = t.issued[i];
    if (!bench.matches(q)) ++traced_failed;
    const double m =
        bench.mirror_query(q, q.span, static_cast<std::uint32_t>(n + i + 1), tracer, layer_ns);
    const double total = static_cast<double>(q.end_ns - q.due_ns);
    mirrored += m;
    e2e += total;
    transit_us.push_back((total - m) / 1e3);
    lag_ms.push_back(static_cast<double>(q.start_ns - q.due_ns) / 1e6);
    const Reference& ref = bench.reference(q.searcher, q.query);
    std::unordered_set<DocumentId, planetp::index::DocumentIdHash> top;
    for (const ScoredDoc& d : ref.docs) top.insert(d.doc);
    for (std::size_t c = 0; c < ref.contacted.size(); ++c) {
      const auto& docs = ref.contact_docs[c];
      const auto hit = static_cast<double>(
          std::count_if(docs.begin(), docs.end(), [&](const ScoredDoc& d) { return top.contains(d.doc); }));
      contacts += 1.0;
      useful += hit > 0 ? 1.0 : 0.0;
      if (ref.contacted[c] != q.searcher + 1) {
        remote_t += 1.0;
        shipped += static_cast<double>(docs.size());
        shipped_useful += hit;
      }
    }
  }
  report.attempted += t.issued.size();
  report.failed += traced_failed;
  if (traced_failed > 0) report.correct = false;
  const auto per_query = [&](const char* name) {
    return layer_ns[name] / 1e3 / static_cast<double>(t.issued.size());
  };
  const double queries = static_cast<double>(t.issued.size());
  const std::uint64_t t_frames = t.after.frames_out - t.before.frames_out;

  report.add("text.analyze_us", per_query("text.analyze"), "us");
  report.add("search.lookup_us", per_query("search.lookup"), "us");
  report.add("search.rank_peers_us", per_query("search.rank_peers"), "us");
  report.add("search.merge_us", per_query("search.merge"), "us");
  report.add("search.recall", mean(recalls), "fraction");
  report.add("search.contacts", contacts / queries, "count");
  report.add("search.useful_contact_frac", frac(useful, contacts), "fraction");
  report_cache_fracs(report, t.before.cache, t.after.cache);
  report.add("index.eval_us", per_query("index.eval"), "us");
  report.add("index.docs_shipped", frac(shipped, remote_t), "count");
  report.add("index.shipped_useful_frac", frac(shipped_useful, shipped), "fraction");
  report.add("gossip.window_frames",
             static_cast<double>(extra_frames(t, static_cast<std::uint64_t>(remote_t))), "count");
  report.add("net.codec_us", per_query("net.codec"), "us");
  report.add("net.frames", static_cast<double>(t_frames) / queries, "count");
  report.add("net.transit_us", mean(transit_us), "us");
  report.add("net.failures", static_cast<double>(t.after.failures - t.before.failures), "count");
  report.add("bench.lag_p90_ms", percentile(lag_ms, 90.0), "ms");
  report.add("bench.coverage", frac(mirrored, e2e), "fraction");
  report.add("bench.overhead",
             frac(segmented_percentile(latencies_ms(t), kSegments, 50.0),
                  segmented_percentile(lat, kSegments, 50.0)) - 1.0,
             "fraction");
  report.note(layer_table(tracer, queries));
  return 0;
}

}  // namespace perfbench
