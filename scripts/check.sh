#!/usr/bin/env bash
# The workspace gate: everything CI (and ROADMAP.md tier-1 verify) runs.
# It gates on counts, equalities and ratios measured within one process,
# never on absolute wall time: that is the repository benchmark's job
# (BENCHMARK.json). A run writes nothing into the tree outside target/.
#
#   ./scripts/check.sh          # full gate
#   ./scripts/check.sh quick    # skip the release build
set -euo pipefail
cd "$(dirname "$0")/.."
tree_before=$(git status --porcelain 2>/dev/null || true)

run() {
    echo "==> $*"
    "$@"
}

if [[ "${1:-}" != "quick" ]]; then
    run cargo build --release
    # The benchmark as BENCHMARK.json builds it: its own manifest and
    # lock, outside the workspace. --locked fails when a manifest or
    # public-API change would make it rewrite that lock or stop compiling.
    run env CARGO_TARGET_DIR=target/benchmark-standalone cargo build --release --offline \
        --locked --manifest-path crates/bloc-bench/src/bin/benchmark/Cargo.toml
    # Bit-identity pins: each benchmark workload at its 200-call minimum
    # (seed 7, --seconds 0) must print the digest below — a fold of every
    # fix position's bits, identical with and without SIMD and on any core
    # count. A change that moves any fix by one bit fails here; update a
    # pin only with a change that is meant to move fixes, and say so. Run
    # first, so no later failure can hide a digest break.
    for pin in paper_sweep:2a9cfa0177bd4451 corridor_track:059d171bf828c003 \
        fleet_faulted:e71e4ed493b63a4f; do
        workload=${pin%%:*}
        want=${pin##*:}
        echo "==> benchmark --workload $workload --seed 7 --seconds 0 (digest $want)"
        got=$(cargo run --release -q -p bloc-bench --bin benchmark -- \
            --workload "$workload" --seed 7 --seconds 0 |
            sed -n 's/.*; digest \([0-9a-f]*\)$/\1/p')
        if [[ "$got" != "$want" ]]; then
            echo "benchmark $workload: digest '$got', pinned $want" >&2
            exit 1
        fi
    done
    # The fault soaks, one row each (see crates/bloc-bench/src/bin/soak/),
    # each failing on any panic or on books that do not reconcile exactly:
    #   fault    — bare localize under every fault class over 100
    #              locations: every fix carries a populated
    #              DegradationReport masking exactly its plan's census
    #              holes, injected holes == masked holes;
    #   chaos    — the supervised runtime for 200 rounds with two anchor
    #              blackouts and a mid-run geometry swap: ≥ 90% valid
    #              rounds, the breaker ledger equal to its obs events and
    #              counters, supervised beating the fixed-retry baseline;
    #   degraded — the fallback stack through a fault ramp to three dark
    #              anchors (20 rounds a stage): no bare Deferred, a
    #              monotone sub-metre → ≤ 3.7 m median falloff, the
    #              fallback.census.* counters equal to
    #              FaultPlan::predict_reception;
    #   fleet    — 200 tags over 4 sites with injected panics, deadline
    #              violations and an overload burst: sentinel tags
    #              bit-identical to a solo replay, no bare drop, every
    #              ledger and outcome tally equal to its counters, the
    #              site-level outage declared and recovered. Its tags/s
    #              line is for reading; the benchmark's fleet_faulted
    #              workload judges fleet speed.
    # The scalar leg re-proves the fleet verdict — including the
    # bit-identical sentinel replay — through the portable kernels.
    run cargo run --release -q -p bloc-bench --bin soak
    run env BLOC_NO_SIMD=1 cargo run --release -q -p bloc-bench --bin soak fleet
    # Hierarchical scalar leg: the coarse→fine localizer's count and
    # equality floors (parity within one fine cell of dense, ≥ 8× cell-eval
    # reduction, seeded tracking ≤ 10% of a dense sweep with an exact cell
    # ledger and no steering-cache miss)
    # re-proven through the portable sweep kernel; --hier-only runs just
    # that section.
    run env BLOC_NO_SIMD=1 cargo run --release -q -p bloc-bench --bin perf_baseline -- --hier-only
    # Perf gate: verifies the fast likelihood kernels (≤ 1e-9), every SIMD
    # level and the tag batch (bit-identical) and the fast
    # channel-synthesis engine (≤ 1e-12) against their references, and
    # enforces ratio floors timed in the same process — ≥ 5× likelihood
    # and ≥ 4× sounding over the references, ≥ 1.1× for a 4-tag batch,
    # and the bare kernel's share of the warm engine over one window
    # (≥ 0.73 dense paper room, ≥ 0.57 corridor 79×79 patch), every row
    # on one thread as a fix runs. Also runs the hierarchical floors on
    # the dispatched kernel.
    # Best-of-15 keeps the ratios stable on noisy shared hosts (see
    # crates/bloc-bench/src/bin/perf_baseline.rs).
    run cargo run --release -q -p bloc-bench --bin perf_baseline 15
    # Observability gate: one busy sample per shard and par.* shard
    # telemetry covering ≥ 95% of a calibrated parallel region, and the
    # Chrome trace of two fixes on two worker threads re-parsed and
    # balance-checked (see
    # crates/bloc-bench/src/bin/obs_report.rs).
    run cargo run --release -q -p bloc-bench --bin obs_report
fi
run cargo test -q
# Scalar-fallback leg: BLOC_NO_SIMD=1 forces the portable kernel at
# dispatch (simd::tests pins that it does), and the equivalence suites
# re-verify the sweep core, the likelihood engine and the synthesizer
# through it. The results are bit-identical to the vectorized path by
# construction (one generic kernel body, exact or IEEE correctly-rounded
# ops: the fused multiply-adds of the phasor GEMM and the cell kernel
# round once on every level, and the lookups are exact loads), so the
# same tolerances apply unchanged;
# fix_telemetry's cell counts must not move either, and the free-space
# peak oracle (paper_invariances) holds through the portable kernel too.
echo "==> BLOC_NO_SIMD=1 scalar-fallback leg"
run env BLOC_NO_SIMD=1 cargo test -q -p bloc-num -- simd sweep
run env BLOC_NO_SIMD=1 cargo test -q -p bloc-core --test kernel_equivalence --test fix_telemetry \
    --test paper_invariances
run env BLOC_NO_SIMD=1 cargo test -q -p bloc-chan --test synth_equivalence
# Release leg: the shipped cell kernel is the release build, with its
# `target_feature` twins inlined and every tag-batch width instantiated.
# Re-prove its bit-identity (per level, per batch size, per tag) and the
# engine's batched joints there, not only in the debug build above.
echo "==> release-mode bit-identity leg"
run cargo test --release -q -p bloc-num -- simd sweep
run cargo test --release -q -p bloc-core --test kernel_equivalence
run cargo fmt --check
run cargo clippy --all-targets -- -D warnings
# Rustdoc gate: no broken or private intra-doc link in any crate.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
if [[ "$(git status --porcelain 2>/dev/null || true)" != "$tree_before" ]]; then
    echo "the run changed the tree outside target/:" >&2
    git status --porcelain >&2
    exit 1
fi

echo "all checks passed"
