#!/usr/bin/env bash
# Full verification: configure, build, test (plain, under ASan/UBSan, and the
# concurrent search tests under TSan), and run every benchmark.
# Usage: scripts/check.sh [--quick]   (--quick shrinks the benchmark sweeps)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK="${1:-}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

# Tier-1 tests again under the sanitizer preset (-DPLANETP_SANITIZE accepts a
# -fsanitize list). A separate build dir keeps instrumented objects apart.
cmake -B build-asan -S . -DPLANETP_SANITIZE=address,undefined
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

# The concurrent hedged-search tests, the parallel gossip stepping and the
# epoch-snapshot mixed-workload stress (8 readers ranking live snapshots
# while a writer publishes/merges) again under ThreadSanitizer (the `tsan`
# preset uses the same build dir). TSan and ASan cannot share a build, hence
# the third tree; the -R scope keeps the (slow) TSan pass to the tests that
# actually exercise cross-thread code.
# test_reactor and test_net ride along: the reactor's cross-thread surface
# (send/post/schedule vs the loop thread, LiveNode RPC wakeups, cluster churn)
# is exactly the kind of code TSan exists for. Every LiveNode test and the
# Runtimes differential tests (test_runtimes) cover LiveNode's locking around
# its core::Peer: every Peer call under mu_ except the lock-free rank of the
# epoch snapshot. test_pruned_topk covers the
# block-max pruned readers racing a live writer (shared compressed base,
# epoch swaps) — the PrunedTopK scope picks up its concurrent test along
# with its SnapshotRanker and shipped-weight top_k identity cases.
cmake -B build-tsan -S . -DPLANETP_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" \
  --target test_search test_search_faults test_sim test_data_store test_epoch_snapshot \
           test_reactor test_net test_compact_directory test_compressed_at_rest \
           test_lazy_gossip test_pruned_topk test_runtimes
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'DistributedSearchConcurrent|ParallelStepping|MixedWorkload|Reactor|LiveNode\.|Runtimes\.|CompactDirectory|CompressedAtRest|LazyGossip|PrunedTopK'

# Query hot-path smoke run + perf-regression guard: search_throughput exits
# non-zero when the warm CandidateCache is not >=5x the uncached scan at 5000
# peers, or when warm qps falls below half the committed baseline.
echo "=== search_throughput ==="
if [ "$QUICK" = "--quick" ]; then
  build/bench/search_throughput --quick --baseline bench/baselines/search_throughput.json
else
  build/bench/search_throughput --baseline bench/baselines/search_throughput.json
fi

# Lazy-dissemination smoke under ASan: a small community at eager_fanout 0
# (lazy) and 2 (hybrid) exercising the digest/want/serve and delta-summary
# paths end to end under the sanitizer, with the zero-blind-payload counter
# gates applied.
echo "=== gossip_throughput --lazy-smoke (ASan) ==="
build-asan/bench/gossip_throughput --lazy-smoke

# Gossip-plane smoke run + perf-regression guard: gossip_throughput exits
# non-zero when the epoch-cached summary path is not >=3x the uncached
# rounds/sec committed in bench/baselines/gossip_throughput.json at 5000
# peers (the uncached cost model is no longer run; the bench carries that
# figure as a historical constant), when any row leaves an event
# unconverged, when hybrid fails the >2x bytes/round reduction (with
# unchanged convergence) over eager at 5000 peers, when lazy mode pushes any
# blind payload, or when cached rounds/sec falls below half — or hybrid
# bytes/round rises above twice — the committed baseline. That the caches
# are behaviourally invisible is pinned by the randomized classic/based
# directory property test in tests/test_gossip_directory.cpp, not here.
echo "=== gossip_throughput ==="
if [ "$QUICK" = "--quick" ]; then
  build/bench/gossip_throughput --quick --baseline bench/baselines/gossip_throughput.json
else
  build/bench/gossip_throughput --baseline bench/baselines/gossip_throughput.json
fi

# Live TCP runtime smoke run + perf-regression guard: live_throughput exits
# non-zero when a 100/500/1000-node loopback cluster fails to gossip, leaks
# descriptors across a cluster lifecycle, exceeds the global outbound byte
# cap, or when msgs/sec falls below half the committed baseline.
echo "=== live_throughput ==="
if [ "$QUICK" = "--quick" ]; then
  build/bench/live_throughput --quick --baseline bench/baselines/live_throughput.json
else
  build/bench/live_throughput --baseline bench/baselines/live_throughput.json
fi

# Indexing/ranking hot-path smoke run + perf-regression guard. The interned
# rows measure the InvertedIndex + TfIdfRanker reference the identity tests
# rank against (no production path ranks through it); the pruned rows
# measure the top-k driver every peer contact and the centralized baseline
# rank through, via SnapshotRanker over a compacted DataStore epoch.
# Judge its gates from full runs: under --quick the >=3x pruned gate reads
# close to its threshold. index_throughput exits
# non-zero when the interned pipeline's combined (publish x eval) speedup
# over the legacy string-keyed cost model drops below 3x at 10k docs, when
# the two paths rank different documents, when the block-max pruned top-k
# diverges bitwise from the exhaustive ranking, skips no blocks, or misses
# the >=3x pruned-vs-exhaustive gate at 10k docs (k=10), or when publish
# docs/sec, eval qps, or pruned eval qps falls below half the committed
# baseline.
echo "=== index_throughput ==="
if [ "$QUICK" = "--quick" ]; then
  build/bench/index_throughput --quick --baseline bench/baselines/index_throughput.json
else
  build/bench/index_throughput --baseline bench/baselines/index_throughput.json
fi

# Community-scale smoke run + memory/scan-regression guard: community_scale
# exits non-zero when filter changes fail to converge or sampled directories
# disagree, when peak RSS exceeds 10% of the fully-decoded O(N^2) cost model
# (docs/SCALE.md), when summary-merge scans grow with community size instead
# of the changed set, or when rounds/sec or RSS regresses 2x against the
# committed baseline. --quick stops at 5000 peers; the full run goes to 100k.
echo "=== community_scale ==="
if [ "$QUICK" = "--quick" ]; then
  build/bench/community_scale --quick --baseline bench/baselines/community_scale.json
else
  build/bench/community_scale --baseline bench/baselines/community_scale.json
fi

# Concurrent-serving smoke run + perf-regression guard: mixed_workload exits
# non-zero when any published epoch ranks differently from a sequential
# single-threaded oracle, when 1->8 reader qps misses the hardware-adaptive
# scaling gate, when the timed-phase readers never take the pruned scan
# (pruned_queries or blocks_skipped zero), or when 1-/8-reader qps falls
# below half the committed baseline.
echo "=== mixed_workload ==="
if [ "$QUICK" = "--quick" ]; then
  build/bench/mixed_workload --quick --baseline bench/baselines/mixed_workload.json
else
  build/bench/mixed_workload --baseline bench/baselines/mixed_workload.json
fi

for b in build/bench/*; do
  # Skip build-system files (Makefiles generator) and BENCH_*.json emissions;
  # only regular executables are benchmarks.
  { [ -f "$b" ] && [ -x "$b" ]; } || continue
  [ "$(basename "$b")" = "search_throughput" ] && continue
  [ "$(basename "$b")" = "gossip_throughput" ] && continue
  [ "$(basename "$b")" = "live_throughput" ] && continue
  [ "$(basename "$b")" = "index_throughput" ] && continue
  [ "$(basename "$b")" = "mixed_workload" ] && continue
  [ "$(basename "$b")" = "community_scale" ] && continue
  echo "=== $(basename "$b") ==="
  if [ "$QUICK" = "--quick" ]; then
    "$b" --quick
  else
    "$b"
  fi
done
