#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from the repo root.
# Mirrors what reviewers run before merging; keep it green.
set -euo pipefail

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> trace_dump smoke test (fixed-seed flight-recorder trial)"
cargo run --release -q -p easis-bench --bin trace_dump > /dev/null

echo "==> hotpath_bench smoke run (schema check, alloc gate)"
# Run from a scratch dir so the smoke run's JSON does not clobber the
# committed full-iteration BENCH_hotpath.json; speedup assertions are
# skipped below 1M iterations, the zero-alloc gate always applies.
hotpath_scratch="$(mktemp -d)"
(cd "$hotpath_scratch" && "$OLDPWD/target/release/hotpath_bench" 20000 > /dev/null)
for key in schema_version iterations monitored_runnables ns_per_heartbeat \
           ns_per_pfc_check ns_per_cycle_check steady_state_cycle_allocs \
           direct_dispatch; do
  grep -q "\"$key\"" "$hotpath_scratch/BENCH_hotpath.json" \
    || { echo "BENCH_hotpath.json missing key: $key"; exit 1; }
done
rm -rf "$hotpath_scratch"

echo "==> campaign_bench smoke run (forked vs oracle, schema + alloc gates)"
# Reduced trial count from a scratch dir: the bit-identical forked-vs-
# oracle stats assertion, the steady-state allocation floor, the
# faulty-trial allocation floor and the horizon-scaling zero-alloc gate
# always apply, as do the snapshot-probe gates (warm capture and warm
# clean-tail restore allocation floors); the forked-vs-oracle (>=3x)
# speedup assertion is skipped below the full 200 trials/class so smoke
# runs stay timing-noise-proof, and the committed BENCH_campaign.json
# (full-scale record) is not clobbered.
campaign_scratch="$(mktemp -d)"
(cd "$campaign_scratch" && EASIS_WORKERS=2 "$OLDPWD/target/release/campaign_bench" 10 > /dev/null)
for key in schema_version trials workers simulated_ms_per_trial setup \
           forked oracle speedup_vs_oracle steady_state clean_trial_allocs \
           faulty_trial_allocs horizon_scaling_allocs snapshot \
           capture_ns restore_ns snapshot_allocs restore_allocs \
           tail_fastforward ffwd_span_fraction fallbacks certifications \
           speedup_vs_baseline parallel_efficiency \
           worker_sweep worker_sweep_note host_cores; do
  grep -q "\"$key\"" "$campaign_scratch/BENCH_campaign.json" \
    || { echo "BENCH_campaign.json missing key: $key"; exit 1; }
done
# Macro-stepping must have engaged even at smoke scale: the forked path's
# quiescent tails are hyperperiodic regardless of trial count.
ffwd="$(grep '"ffwd_span_fraction"' "$campaign_scratch/BENCH_campaign.json" \
  | head -n1 | sed 's/[^0-9.]//g')"
awk -v f="$ffwd" 'BEGIN { exit !(f > 0.0) }' \
  || { echo "ffwd_span_fraction is $ffwd (must be > 0): macro-stepping never engaged"; exit 1; }
rm -rf "$campaign_scratch"

echo "==> effect dispatch stays move-free (split-borrow kernel invariant)"
# The split-borrow kernel runs effects on bodies in place; a reappearing
# take/restore of the body slot would silently reintroduce the double
# move per effect. Scoped to the kernel sources: hotpath_bench keeps a
# deliberate take/restore replica as its moved-body baseline.
if grep -rn 'take().expect("body present")' crates/osek/src/; then
  echo "moved-body dispatch crept back into the kernel effect path"; exit 1
fi

echo "==> checkpoints stay one capture, one restore (no lineage protocol)"
# Every component captures with a side-effect-free snapshot_into and
# restores with a plain capacity-retained copy. The epoch/lineage
# delta-restore protocol was measured not to pay for itself and deleted;
# its bookkeeping names must not creep back into the crates.
if grep -rnE 'derived_from|RestoreStats|next_snapshot_id' crates/; then
  echo "delta-restore lineage bookkeeping crept back into the crates"; exit 1
fi

echo "==> campaign engine stays one runner, one oracle (no pooled or fresh engines)"
# The campaign engine has one production runner (scenario::run_plan, one
# node per worker for its whole stripe) and one reference oracle
# (scenario::run_trial, a fresh node per trial). The pooled and fresh
# engines, the thread-local node pool and the shared prefix cache were
# measured not to pay for themselves once each worker keeps its node for
# its whole stripe, and deleted; their names must not creep back.
if grep -rnE 'run_plan_pooled|run_plan_fresh|run_trial_pooled|NODE_POOL|PREFIX_PUBLISH_SPACING|BLUEPRINT_STAMP' \
     crates/ src/ tests/ examples/; then
  echo "a deleted campaign engine or its node pool crept back"; exit 1
fi

echo "==> timer queue stays one ordered vector (no wheel, no rotation cap)"
# The kernel's timer queue is one vector in descending (time, seq) order.
# The hierarchical timer wheel it replaced, and the macro-stepping cap at
# its 2^24-us rotation boundary, were measured not to pay for themselves
# and deleted; their names must not creep back.
if grep -rnE 'insert_wheel|advance_to|TOP_SHIFT|WHEEL_ROTATION_BITS|RotationCap|rotation_cap' \
     crates/ src/ tests/ examples/; then
  echo "the timer wheel or its rotation cap crept back"; exit 1
fi

echo "==> macro-stepping certifies on one hyperperiod (no guard hyperperiod)"
# One hyperperiod whose two end images differ by a well-formed delta
# certifies a jump (DESIGN.md section 9). The guard hyperperiod that
# re-derived the delta and compared the appended log tails never
# rejected a certification and was deleted; its names must not creep
# back.
if grep -rnE 'delta2|DeltaMismatch|delta_mismatch|tail_repeats|log_tail_repeats|logs_repeat' \
     crates/ src/ tests/ examples/; then
  echo "the macro-stepping guard hyperperiod crept back"; exit 1
fi

echo "==> soak smoke run (short horizon via EASIS_SOAK_HORIZON_MS)"
# The full soak defaults to two simulated hours; one simulated minute
# still spans several multiples of 2^24 us and a 60 s alarm, so timers
# scheduled tens of seconds ahead — including the long-horizon
# central-node scenario that injects a fault across 2^24 us — are
# exercised on every CI run.
EASIS_SOAK_HORIZON_MS=60000 cargo test -q --test soak

echo "==> campaign golden across worker/chunk/fast-forward configurations (forked path)"
# campaign_regression drives scenario::run_plan — the snapshot-forking
# engine with tail collapsing — so this loop proves the prefix-reuse
# report bytes stay identical to the golden at every worker count, with
# hyperperiod macro-stepping enabled (the default) and disabled: the
# certified jumps must be unobservable in the report bytes.
for ff in 1 0; do
  for w in 1 2 4; do
    EASIS_FASTFORWARD=$ff EASIS_WORKERS=$w EASIS_CHUNK=5 \
      cargo test -q --test campaign_regression
  done
done

echo "==> perfbench correctness gate (oracle agreement, exact-count repeats)"
# Short perfbench runs of the two workloads with armed windows. Each ends
# with a JSON line whose "correct" field folds in the oracle comparison of
# every timed pass and, on the traced run, the exact-count repeat check of
# the replica passes — host-independent verdicts on macro-stepping inside
# armed injection windows. Timings are printed, never gated here.
for run in "armed_unique 0" "tcov 0" "armed_unique 1"; do
  set -- $run
  last="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$1" --seconds 1 --trace "$2" | tail -n 1)"
  case "$last" in
    *'"correct": true'*) ;;
    *) echo "perfbench $1 --trace $2 is not correct: $last"; exit 1 ;;
  esac
done

echo "CI green."
