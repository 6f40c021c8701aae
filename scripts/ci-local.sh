#!/usr/bin/env bash
# Runs every command of every job in .github/workflows/ci.yml, in the
# workflow's order, and stops at the first failure. Matrix jobs run as a
# loop over their fixed seeds. Artifact uploads are the only CI steps
# left out.
#
# Usage: scripts/ci-local.sh        (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=(1 42 1234)

step() {
    echo "==> $*" >&2
    "$@"
}

# build-and-test
step cargo build --release --workspace
step cargo test -q --workspace
step env CHAOS_CAMPAIGNS=50 cargo test -q --test chaos

# golden-tables
step env CDMM_GOLDEN_THREADS=1 cargo test -q --release --test golden_tables
step env CDMM_GOLDEN_THREADS=4 cargo test -q --release --test golden_tables
step cargo test -q --release --test trace_events
step env CDMM_OVERHEAD_PCT=10 cargo run --release -q -p cdmm-bench --bin trace_bench -- --small
step cargo test -q --release --test executor_determinism
step cargo run --release -q -p cdmm-bench --bin sweep_bench -- \
    --small --threads 4 --cache-dir target/cdmm-cache
step cargo run --release -q -p cdmm-bench --bin sweep_bench -- \
    --small --threads 4 --cache-dir target/cdmm-cache --quick --assert-hit-rate 90

# perf
step cargo build --release -p cdmm-bench
step cargo run --release -q -p cdmm-bench --bin perf_report -- --small --bench-out target/bench
step env CDMM_WALL_ADVISORY=1 \
    CDMM_SPEEDUP_BASELINE=crates/bench/baselines/trajectory/BENCH_perf.pre-run-level.json \
    CDMM_MIN_SPEEDUP=2 \
    cargo run --release -q -p cdmm-bench --bin perf_regress -- --small --bench-out target/bench
step mkdir -p target/bench/before
step cp crates/bench/baselines/trajectory/BENCH_perf.pre-hot-path.json target/bench/before/
step cp crates/bench/baselines/trajectory/BENCH_perf.pre-run-level.json target/bench/before/
step cp crates/bench/baselines/BENCH_perf.json target/bench/BENCH_perf.blessed.json

# serve-chaos
for seed in "${SEEDS[@]}"; do
    step env CDMM_SERVE_SEED="$seed" cargo test -q --release --test serve_chaos
    step cargo run --release -q -p cdmm-bench --bin serve_bench -- \
        --small --threads 4 --bench-out target/serve-chaos
done

# run-level
for seed in "${SEEDS[@]}"; do
    step env CDMM_EQUIV_SEED="$seed" cargo test -q --release --test run_level_equivalence
done

# sweep-fast
for seed in "${SEEDS[@]}"; do
    step env CDMM_EQUIV_SEED="$seed" cargo test -q --release --test curve_equivalence
    if [ "$seed" = 1 ]; then
        step env CDMM_WALL_ADVISORY=1 \
            CDMM_SPEEDUP_BASELINE=crates/bench/baselines/trajectory/BENCH_perf.pre-sweep-kernels.json \
            CDMM_SPEEDUP_ROWS=/sweep/ \
            CDMM_MIN_SPEEDUP=3 \
            cargo run --release -q -p cdmm-bench --bin perf_regress -- --small
    fi
done

# fleet
for seed in "${SEEDS[@]}"; do
    step env CDMM_FLEET_SEED="$seed" cargo test -q --release --test fleet_determinism
    if [ "$seed" = 1 ]; then
        step env CDMM_WALL_ADVISORY=1 cargo run --release -q -p cdmm-bench \
            --bin fleet_bench -- --small --bench-out target/fleet
    fi
done

# fleet-observe
step cargo test -q --release --test fleet_determinism \
    traced_report_and_event_stream_are_geometry_invariant
step cargo test -q --release --test serve_trace
step env CDMM_OVERHEAD_PCT=10 cargo run --release -q -p cdmm-bench --bin fleet_trace_bench -- --small
step mkdir -p target/fleet-observe
step env CDMM_WALL_ADVISORY=1 cargo run --release -q -p cdmm-bench \
    --bin fleet_bench -- --small --bench-out target/fleet-observe \
    --trace-out target/fleet-observe/fleet-trace.jsonl \
    --progress-out target/fleet-observe/fleet-progress.jsonl

# lint
step cargo clippy --all-targets -- -D warnings
step cargo fmt --all -- --check
step env RUSTFLAGS="-D deprecated" cargo check --workspace --all-targets

# docs
step env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "ci-local: every CI command passed" >&2
