#!/usr/bin/env bash
# Local CI gate: everything the hosted workflow runs, offline-safe.
# Usage: scripts/ci.sh [--quick]
#   --quick skips the release build (debug build + tests only).
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "$QUICK" -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test -q (tier-1: root package)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

if [[ "$QUICK" -eq 0 ]]; then
  echo "==> perfbench builds and smoke-runs against the current crates"
  # perfbench/ is its own workspace (the benchmark BENCHMARK.json runs), so
  # the workspace build above never compiles it: a renamed public item it
  # calls would only surface when the benchmark runs. Its tests build it
  # and run each workload for 1 s; the diff check proves the build did not
  # rewrite its committed Cargo.lock, and that neither the benchmark nor
  # its config (BENCHMARK.json) has uncommitted edits.
  cargo test --release --offline --manifest-path perfbench/Cargo.toml
  git diff --exit-code -- perfbench/ BENCHMARK.json

  echo "==> paper tables regenerate bit-identically (default and scalar kernels)"
  # The ten reproduction binaries are deterministic per seed, and their
  # output must not depend on kernel dispatch: regenerate results/*.txt
  # under each mode and require the committed bytes (~12 s per mode).
  scripts/paper_tables.sh --check
  LARP_KERNELS=scalar scripts/paper_tables.sh --check
fi

echo "==> drain-order soak (concurrent shard drainers, 50 runs)"
# A shard is drained by its worker, by callers after small pushes, and by
# flush, one at a time. Two drainers overlapping, or one applying samples
# out of queue order, shows only on a rare interleaving, so one pass proves
# little: the ordering test (final checkpoint bytes equal to a
# single-threaded engine's) runs a fixed 50 times, ~0.3 s each.
for _ in $(seq 50); do
  cargo test -q -p fleet --test drain_order concurrent_drainers_preserve_per_stream_order >/dev/null
done

echo "==> kernel dispatch parity (forced-scalar and forced-AVX2 runs)"
# The vectorized kernels contract bit-identical results across dispatch modes
# (DESIGN.md §13). Re-run the numeric crates with each mode forced; "avx2"
# silently degrades to scalar on hosts without it, so both exports are safe
# everywhere. linalg carries the to_bits parity proptests (including the
# fixed-size fit kernels against their reference loops); learn + predictors
# run the batched projection and labelling pass; larp + fleet prove the
# serving pipeline end-to-end under each kernel set.
LARP_KERNELS=scalar cargo test -q -p linalg -p learn -p predictors -p larp -p fleet
LARP_KERNELS=avx2 cargo test -q -p linalg

if [[ "$QUICK" -eq 0 ]]; then
  echo "==> hotpath_micro regression gate (serving-step + retrain ns/iter)"
  # Median ns/iter for the two rows the fleet hot path actually spends its
  # time in, compared against the committed baseline. The 3x ceiling is
  # deliberately loose for a microbench (CPU scaling, cache state) — it
  # catches the step or the fit falling off a cliff, not percent-level drift.
  HOT_JSON="$(cargo bench -q -p larp-bench --bench hotpath_micro -- --json 2>/dev/null | sed -n '/^{/,/^}/p')"
  echo "$HOT_JSON"
  for row in "hot_online_step/push_with_scratch" "hot_retrain/train_40_tail"; do
    NOW_NS="$(grep -o "\"$row\": [0-9.]*" <<<"$HOT_JSON" | grep -o '[0-9.]*$')"
    BASE_NS="$(grep -o "\"$row\": [0-9.]*" results/BENCH_hotpath.json | grep -o '[0-9.]*$')"
    if ! awk -v now="$NOW_NS" -v base="$BASE_NS" 'BEGIN { exit (now <= base * 3.0) ? 0 : 1 }'; then
      echo "hotpath regression: $row at ${NOW_NS}ns/iter > 3x committed baseline ${BASE_NS}ns"
      exit 1
    fi
    echo "hotpath: $row ${NOW_NS}ns/iter (baseline ${BASE_NS}ns, ceiling 3x)"
  done

  echo "==> fleet_throughput smoke + bench-regression gate (1000 streams, 4 shards)"
  # Brief run, then compare samples/sec against the committed baseline in
  # results/BENCH_fleet.json. The 70% floor tolerates host differences and
  # scheduler noise while still catching the kind of large regression an
  # accidental allocation or a quadratic slip in the hot path produces; the
  # baseline is an 8-run median measured on the reference container, so the
  # floor is tighter than the old 60% without tripping on run-to-run noise.
  FLEET_JSON="$(cargo run --release -q -p fleet --bin fleet_throughput -- --streams 1000 --samples 50 --shards 4)"
  echo "$FLEET_JSON"
  SMOKE_SPS="$(grep -o '"samples_per_sec": [0-9]*' <<<"$FLEET_JSON" | grep -o '[0-9]*$')"
  BASELINE_SPS="$(grep -o '"samples_per_sec": [0-9]*' results/BENCH_fleet.json | head -1 | grep -o '[0-9]*$')"
  FLOOR=$(( BASELINE_SPS * 70 / 100 ))
  if [[ "$SMOKE_SPS" -lt "$FLOOR" ]]; then
    echo "fleet_throughput regression: $SMOKE_SPS samples/s < 70% of committed baseline $BASELINE_SPS"
    exit 1
  fi
  echo "fleet_throughput: $SMOKE_SPS samples/s (baseline $BASELINE_SPS, floor $FLOOR)"

  echo "==> mem_bench live-fleet bytes/stream regression gate (20000 streams)"
  # 20000 live streams under the diet config, each driven to a trained
  # steady state; the headline bytes_per_stream is accounted heap over all
  # registered streams. The 120% ceiling against the committed baseline in
  # results/BENCH_mem.json catches per-stream state quietly growing back —
  # the accounting is deterministic (capacities, not RSS), so the margin only
  # needs to absorb allocator-rounding differences, not scheduler noise.
  MEM_JSON="$(cargo run --release -q -p fleet --bin mem_bench -- --streams 20000)"
  echo "$MEM_JSON"
  MEM_BPS="$(grep -o '"bytes_per_stream": [0-9]*' <<<"$MEM_JSON" | grep -o '[0-9]*$')"
  MEM_BASE="$(grep -o '"bytes_per_stream": [0-9]*' results/BENCH_mem.json | grep -o '[0-9]*$')"
  MEM_CEIL=$(( MEM_BASE * 120 / 100 ))
  if [[ "$MEM_BPS" -gt "$MEM_CEIL" ]]; then
    echo "memory regression: $MEM_BPS bytes/stream > 120% of committed baseline $MEM_BASE"
    exit 1
  fi
  echo "mem_bench: $MEM_BPS bytes/stream (baseline $MEM_BASE, ceiling $MEM_CEIL)"

  echo "==> obs_dump smoke (fault-injected fleet, both exposition formats)"
  # JSON: the bin validates its own output with obs::expo::validate_json
  # (strict parser, rejects NaN/Infinity) before printing; we additionally
  # assert the core metric families made it into the dump.
  OBS_JSON="$(cargo run --release -q -p fleet --bin obs_dump -- --streams 8 --samples 120 --shards 2 --format json)"
  for metric in larp_selections_total larp_faults_sanitized_total \
                fleet_push_accepted_total fleet_push_enqueue_us \
                recorded; do
    grep -q "\"$metric\"" <<<"$OBS_JSON" || { echo "obs_dump JSON missing $metric"; exit 1; }
  done
  # Prometheus: every sample line must carry a finite, non-negative value.
  OBS_PROM="$(cargo run --release -q -p fleet --bin obs_dump -- --streams 8 --samples 120 --shards 2 --format prometheus)"
  grep -q '^larp_selections_total ' <<<"$OBS_PROM" || { echo "obs_dump prometheus missing larp_selections_total"; exit 1; }
  if grep -v '^#' <<<"$OBS_PROM" | awk '{v=$NF} v != v+0 || v < 0 {print "bad sample: " $0; bad=1} END {exit bad}'; then :; else
    echo "obs_dump prometheus has NaN or negative samples"; exit 1
  fi
  echo "==> net_loadgen smoke + bench-regression gate (reactor server, 8 conns)"
  # Starts an ephemeral netserve server on the reactor event loops, drives 8
  # pipelined connections for ~1s (first 0.25s excluded as warmup), scrapes
  # /metrics and /healthz from the HTTP shim mid-run, self-validates the
  # JSON report (strict no-NaN parser), and asserts lossless ingestion.
  NET_JSON="$(cargo run --release -q -p netserve --bin net_loadgen -- \
      --conns 8 --streams 200 --shards 4 --duration 1 --warmup 0.25 \
      --out target/BENCH_net_ci.json)"
  for field in '"healthz_ok": true' '"metrics_scrape_ok": true' \
               '"rejected": 0' '"rtt_p99_us"' '"samples_per_sec"' \
               '"net_op_push_batch_total"'; do
    grep -qF "$field" <<<"$NET_JSON" || { echo "net_loadgen report missing $field"; exit 1; }
  done
  # Regression gate against the committed 8-connection sweep point in
  # results/BENCH_net.json. Floors/ceilings are deliberately loose (the
  # bench host shows +/-25% run-to-run noise and CI runs hot after a full
  # build): 40% throughput floor catches an accidental per-request
  # allocation or a lost fast path; 5x p99 ceiling catches the event loop
  # stalling (a blocking call on the loop shows up as 10-100x, not 5x).
  NET_BASE_POINT="$(grep -o '{"conns": 8,[^}]*}' results/BENCH_net.json)"
  NET_BASE_SPS="$(grep -o '"samples_per_sec": [0-9]*' <<<"$NET_BASE_POINT" | grep -o '[0-9]*$')"
  NET_BASE_P99="$(grep -o '"rtt_p99_us": [0-9]*' <<<"$NET_BASE_POINT" | grep -o '[0-9]*$')"
  NET_SPS="$(grep -o '"samples_per_sec": [0-9]*' <<<"$NET_JSON" | head -1 | grep -o '[0-9]*$')"
  NET_P99="$(grep -o '"rtt_p99_us": [0-9]*' <<<"$NET_JSON" | head -1 | grep -o '[0-9]*$')"
  NET_FLOOR=$(( NET_BASE_SPS * 40 / 100 ))
  NET_CEIL=$(( NET_BASE_P99 * 5 ))
  if [[ "$NET_SPS" -lt "$NET_FLOOR" ]]; then
    echo "net serving regression: $NET_SPS samples/s < 40% of committed baseline $NET_BASE_SPS"
    exit 1
  fi
  if [[ "$NET_P99" -gt "$NET_CEIL" ]]; then
    echo "net latency regression: rtt_p99 ${NET_P99}us > 5x committed baseline ${NET_BASE_P99}us"
    exit 1
  fi
  echo "net_loadgen: $NET_SPS samples/s (floor $NET_FLOOR), rtt_p99 ${NET_P99}us (ceiling $NET_CEIL)"

  echo "==> connection-storm smoke (1000 simultaneous connections)"
  # 1000 clients connect at once, all must handshake, the HTTP shim must
  # still answer /healthz (and report the full count) under the storm, and
  # teardown must drain the connection gauge back to zero. Needs ~2k fds;
  # raise the soft limit if the hard limit allows, otherwise scale down.
  STORM_N=1000
  HARD_FD="$(ulimit -Hn)"
  if [[ "$HARD_FD" != "unlimited" && "$HARD_FD" -lt 2200 ]]; then
    STORM_N=$(( (HARD_FD - 200) / 2 ))
    echo "fd hard limit $HARD_FD too low for 1000 conns; storming $STORM_N instead"
  fi
  ulimit -n "$(ulimit -Hn)" 2>/dev/null || true
  STORM_JSON="$(cargo run --release -q -p netserve --bin net_loadgen -- --storm "$STORM_N")"
  echo "$STORM_JSON"
  for field in "\"storm_conns\": $STORM_N" '"healthz_ok": true' '"teardown_ok": true'; do
    grep -qF "$field" <<<"$STORM_JSON" || { echo "storm report missing $field"; exit 1; }
  done

  echo "==> crash_recovery kill-test (kill -9 a durable server mid-traffic, replay, verify)"
  # Spawns a durable netserve server as a child process, kill -9s it while a
  # client is pushing, recovers the WAL + checkpoint, and asserts zero acked
  # batches lost and bit-identical post-recovery forecasts against an
  # uninterrupted reference engine. The binary exits non-zero on any loss.
  # Its auto-checkpoints stream into CHECKPOINT.tmp, so a kill can land mid
  # write: whatever tmp file it leaves must not mark the checkpoint corrupt.
  CRASH_JSON="$(cargo run --release -q -p netserve --bin crash_recovery -- \
      --out target/BENCH_recovery_ci.json)"
  echo "$CRASH_JSON"
  for field in '"acked_batches"' '"recovered_batches"' '"bit_identical": true' \
               '"gap_records": 0' '"checkpoint_corrupt": false'; do
    grep -qF "$field" <<<"$CRASH_JSON" || { echo "crash_recovery report missing $field"; exit 1; }
  done

  echo "==> cluster kill-failover smoke (3 nodes, live drain + kill -9 + warm-standby takeover)"
  # Spawns three cluster nodes as child processes, live-drains one over the
  # wire (MigrateOut/MigrateIn/Evict), kill -9s another mid-traffic, fails
  # its range over to the warm-standby heir, and asserts zero acked-sample
  # loss plus bit-identical forecasts against an uninterrupted single-engine
  # reference. The binary exits non-zero on any loss or divergence; the gap
  # ceiling below additionally bounds the client-visible outage (reference
  # host measures ~0.8s — kill detection + ring publish + one retry round).
  CLUSTER_JSON="$(cargo run --release -q -p cluster --bin cluster_bench -- \
      --out target/BENCH_cluster_ci.json)"
  echo "$CLUSTER_JSON"
  for field in '"nodes": 3' '"acked_lost": 0' '"bit_identical": true' \
               '"samples_per_sec"' '"migration_streams_per_sec"' '"failover_gap_ms"'; do
    grep -qF "$field" <<<"$CLUSTER_JSON" || { echo "cluster_bench report missing $field"; exit 1; }
  done
  GAP_MS="$(grep -o '"failover_gap_ms": [0-9]*' <<<"$CLUSTER_JSON" | grep -o '[0-9]*$')"
  if [[ "$GAP_MS" -gt 10000 ]]; then
    echo "failover outage regression: client-visible gap ${GAP_MS}ms > 10s ceiling"
    exit 1
  fi
  echo "cluster_bench: failover gap ${GAP_MS}ms (ceiling 10000ms)"

  echo "==> durable-path throughput gate (interleaved durability A/B)"
  # The committed baseline (results/BENCH_wal.json) holds the honest number;
  # this floor is deliberately loose — it catches the durable path falling
  # off a cliff (sync-per-append, accidental copies), not scheduler noise.
  AB_JSON="$(cargo run --release -q -p fleet --bin fleet_throughput -- \
      --streams 500 --samples 60 --shards 4 --ab-durability)"
  echo "$AB_JSON"
  RETAINED="$(grep -o '"durable_retained": [0-9.]*' <<<"$AB_JSON" | grep -o '[0-9.]*$')"
  if ! awk -v r="$RETAINED" 'BEGIN { exit (r >= 0.5) ? 0 : 1 }'; then
    echo "durable path retained only ${RETAINED}x of in-memory throughput (< 0.5 floor)"
    exit 1
  fi
fi

echo "CI gate passed."
