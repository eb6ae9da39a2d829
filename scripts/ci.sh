#!/usr/bin/env bash
# Offline CI gate for vulkan-sim-rs.
#
# Everything runs with --offline: the workspace has zero external
# dependencies (vksim-testkit supplies PRNG / property testing /
# micro-bench / golden comparison), so a network-less container must
# pass this script end to end.
#
# Independent stages run as background jobs and join at barriers; stages
# that share the cargo target-dir lock still serialize their compile
# phases, but format checking, test execution, and example runs overlap.
#
# Bench baselines: the first run records BENCH_<suite>.json for the
# guarded suites under .bench-baselines/; later runs on the same host
# compare against them via VKSIM_BENCH_BASELINE and fail on a median
# regression beyond VKSIM_BENCH_MAX_REGRESSION percent (default 25 here;
# quick-mode medians are noisy). Delete the file to re-record after an
# intentional change.
#
# Usage: scripts/ci.sh            (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

LOGS="$(mktemp -d)"
declare -a names=() pids=()

# bg <name> <cmd...> — launch a stage in the background, log to $LOGS.
bg() {
    local name="$1"
    shift
    ("$@") >"$LOGS/$name.log" 2>&1 &
    names+=("$name")
    pids+=($!)
}

# join — wait for every background stage, replay logs, abort on failure.
join() {
    local fail=0 status
    for i in "${!pids[@]}"; do
        if wait "${pids[$i]}"; then status="ok"; else status="FAILED"; fail=1; fi
        step "${names[$i]} ($status)"
        cat "$LOGS/${names[$i]}.log"
    done
    names=()
    pids=()
    if [ "$fail" -ne 0 ]; then
        printf '\nCI gate FAILED.\n'
        exit 1
    fi
}

# Stage group 1: format check needs no build artifacts — overlap it with
# the release build and the lint gate (clippy builds its own debug-profile
# artifacts, so it shares little with the release build beyond the lock).
bg "cargo fmt --check" cargo fmt --check
bg "cargo clippy --offline --workspace -D warnings" \
    cargo clippy --offline --workspace --all-targets -- -D warnings
bg "cargo build --release --offline --workspace" \
    cargo build --release --offline --workspace
join

step "cargo test --offline --workspace -q"
cargo test --offline --workspace -q

step "golden-counter regression suite (incl. threads=1 vs 4 equality)"
cargo test --offline -q -p vksim-bench --test golden_counters

# Allocation-budget gate: heap allocations per `Simulator::run` (EXT and
# RTV6 at Test scale, one engine thread, observers off) are pinned
# exactly — the maps hash with a fixed seed, so the count repeats — and
# any allocation added to a per-cycle path fails here (see
# tests/alloc_budget.rs and DESIGN.md, "Hot-path allocation discipline").
step "allocation-budget gate (pinned allocations per run)"
cargo test --offline -q -p vksim-bench --test alloc_budget

# Fault-injection smoke: one drill per fault class (dropped completion,
# stalled warp, worker panic on both engines, truncated program,
# corrupted BVH) — each must end in a classified SimError with a
# parseable post-mortem dump, never a raw panic or a hang.
step "fault-injection drills (classified errors + post-mortem dumps)"
VKSIM_DUMP_DIR="$(mktemp -d)" \
    cargo test --offline -q -p vksim-bench --test fault_injection

# Observability gate: a traced run must complete, write a parseable
# Perfetto trace + interval CSV, and (per tests/trace_export.rs, which
# also runs here) be byte-deterministic, thread-invariant and a pure
# observer of the golden counters.
step "traced smoke run + trace validation"
trace_dir="$(mktemp -d)"
VKSIM_TRACE_CSV="$trace_dir/intervals.csv" \
    cargo run --release --offline -p vksim-bench --bin experiments -- \
    fig01 --trace="$trace_dir/trace.json" --trace-interval=256 >/dev/null
[ -s "$trace_dir/trace.json" ] || { echo "no trace written"; exit 1; }
[ -s "$trace_dir/intervals.csv" ] || { echo "no interval CSV written"; exit 1; }
head -1 "$trace_dir/intervals.csv" | grep -q '^start,len,' \
    || { echo "malformed interval CSV header"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$trace_dir/trace.json" >/dev/null \
        || { echo "trace JSON does not parse"; exit 1; }
fi
cargo test --offline -q -p vksim-bench --test trace_export

# Profiler gate: a cycle-accounting run must export a flat-JSON stall
# breakdown that parses with the testkit's strict JSON reader, carries
# the documented key schema, and conserves (Σ categories ==
# num_sms × cycles, per-SM keys rolling up exactly into total.*) — the
# validation lives in tests/prof_smoke.rs and runs here against the file
# the experiments *binary* wrote, proving the whole VKSIM_PROF pipeline.
step "cycle-accounting smoke run + prof export validation"
prof_dir="$(mktemp -d)"
cargo run --release --offline -p vksim-bench --bin experiments -- \
    fig01 --prof="$prof_dir/prof.json" >/dev/null
[ -s "$prof_dir/prof.json" ] || { echo "no prof export written"; exit 1; }
VKSIM_PROF_SMOKE_FILE="$prof_dir/prof.json" \
    cargo test --offline -q -p vksim-bench --test prof_smoke

# RT-analytics gate: a ray-traversal characterization run must export a
# flat-JSON analytics file and a heatmap CSV that parse, carry the
# documented key schema, and conserve (heatmap visits == Σ per-ray node
# counts, Σ per-ray box tests == RT-unit box ops, every histogram
# totalling the ray count) — the validation lives in
# tests/rt_analytics.rs and runs here against the files the experiments
# *binary* wrote, proving the whole VKSIM_RT_ANALYTICS pipeline.
step "rt-analytics smoke run + export validation"
rt_dir="$(mktemp -d)"
cargo run --release --offline -p vksim-bench --bin experiments -- \
    fig01 --rt-analytics="$rt_dir/rt.json" --rt-heatmap="$rt_dir/heatmap.csv" >/dev/null
[ -s "$rt_dir/rt.json" ] || { echo "no rt analytics export written"; exit 1; }
[ -s "$rt_dir/heatmap.csv" ] || { echo "no rt heatmap written"; exit 1; }
head -1 "$rt_dir/heatmap.csv" | grep -q '^space,depth,node,visits,hits$' \
    || { echo "malformed rt heatmap header"; exit 1; }
VKSIM_RT_SMOKE_FILE="$rt_dir/rt.json" \
    cargo test --offline -q -p vksim-bench --test rt_analytics

# Chaos recovery drill: a fixed-seed campaign kills checkpointed runs
# with injected worker panics at pseudo-random cycles, auto-resumes each
# from its last checkpoint, and requires the recovered golden counters to
# match the uninterrupted reference byte for byte (plus checkpoint
# idempotency and corrupt-snapshot rejection, per
# tests/snapshot_recovery.rs).
step "chaos checkpoint/recovery campaign (VKSIM_CHAOS_ITERS=5)"
VKSIM_CHAOS_ITERS=5 VKSIM_DUMP_DIR="$(mktemp -d)" \
    cargo test --offline -q -p vksim-bench --test snapshot_recovery

# Stage group 2: bench smoke and example runs only execute already-built
# (or cheaply built) artifacts — overlap them.
bench_out="$(mktemp -d)"
bg "bench smoke run (VKSIM_BENCH_QUICK=1)" \
    env VKSIM_BENCH_DIR="$bench_out" VKSIM_BENCH_QUICK=1 \
    cargo bench --offline --workspace
bg "examples build + run (quickstart, custom_scene)" bash -c '
    set -euo pipefail
    cargo build --release --offline --examples
    cargo run --release --offline --example quickstart >/dev/null
    cargo run --release --offline --example custom_scene >/dev/null
'
join

step "bench baseline gate (substrates, engine, mem)"
mkdir -p .bench-baselines
for suite in substrates engine mem; do
    # Absolute path: cargo runs bench binaries with cwd = the package root
    # (crates/bench), not the workspace root.
    base="$PWD/.bench-baselines/BENCH_$suite.json"
    # The engine suite doubles as the observability overhead gate: the
    # tracing/accounting/rt-analytics hooks must cost no more than 2%
    # when disabled, and the enabled-path `_prof` / `_rt` entries hold
    # each observer's own cost to the same bound against their recorded
    # baselines.
    if [ "$suite" = engine ]; then
        max="${VKSIM_BENCH_MAX_REGRESSION_ENGINE:-2}"
    else
        max="${VKSIM_BENCH_MAX_REGRESSION:-25}"
    fi
    if [ -f "$base" ]; then
        VKSIM_BENCH_DIR="$(mktemp -d)" VKSIM_BENCH_QUICK=1 \
            VKSIM_BENCH_BASELINE="$base" \
            VKSIM_BENCH_MAX_REGRESSION="$max" \
            cargo bench --offline -p vksim-bench --bench "$suite"
    else
        cp "$bench_out/BENCH_$suite.json" "$base"
        echo "recorded new baseline $base (no compare this run)"
    fi
done

printf '\nCI gate passed.\n'
