#!/usr/bin/env bash
# The workspace gate: everything CI (and ROADMAP.md tier-1 verify) runs.
#
#   ./scripts/check.sh          # full gate
#   ./scripts/check.sh quick    # skip the release build
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

if [[ "${1:-}" != "quick" ]]; then
    run cargo build --release
    # Bit-identity pins: each benchmark workload at its 200-call minimum
    # (seed 7, --seconds 0) must print the digest below — a fold of every
    # fix position's bits, identical with and without SIMD and on any core
    # count. A change that moves any fix by one bit fails here; update a
    # pin only with a change that is meant to move fixes, and say so. Run
    # before the host-timing gates below, so a timing flake cannot hide a
    # digest break.
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
    # Deterministic fault-injection soak: seeded plan, 100 locations; fails
    # on any panic, unpopulated DegradationReport, or injected/recovered
    # ledger mismatch (see crates/bloc-bench/src/bin/fault_soak.rs).
    run cargo run --release -q -p bloc-bench --bin fault_soak 100
    # Supervised-runtime chaos soak: 200 rounds of combined faults with two
    # scheduled anchor blackouts and a mid-run geometry swap; fails on any
    # panic, <90% valid rounds, breaker-ledger/obs mismatch, or the
    # supervised track not beating the fixed-retry baseline (see
    # crates/bloc-bench/src/bin/chaos_soak.rs).
    run cargo run --release -q -p bloc-bench --bin chaos_soak 200
    # Degraded-mode soak: fault ramp 0→60% tag loss × 0–3 anchor dropouts
    # with the RSSI-fingerprint + packet-count fallback stack attached;
    # fails on any panic, any bare Deferred round, a non-monotone or
    # out-of-regime per-stage median falloff (sub-metre healthy → ≤ 3.7 m
    # fallback), or a fallback.census.* counter that does not reconcile
    # exactly with FaultPlan::predict_reception (see
    # crates/bloc-bench/src/bin/degraded_soak.rs).
    run cargo run --release -q -p bloc-bench --bin degraded_soak 120
    # Fleet-serving soak: 200 tags over 4 sites under the full fault menu
    # plus injected per-tag panics, deadline violations and a mid-run
    # overload burst; fails on cross-tag contamination (sentinel tags not
    # bit-identical to a solo replay), any bare dropped round, a shed
    # without a degraded estimate, a ledger/obs mismatch, a missed
    # site-level outage/recovery, or tags/s below the absolute floor;
    # refreshes BENCH_fleet.json for the obs_report trend gate (see
    # crates/bloc-bench/src/bin/fleet_soak.rs). The scalar leg re-proves
    # the whole verdict — including the bit-identical sentinel replay —
    # through the portable kernels.
    # (scalar first: the second run's BENCH_fleet.json — the dispatched
    # SIMD config — is the one the trend gate records)
    run env BLOC_NO_SIMD=1 cargo run --release -q -p bloc-bench --bin fleet_soak 200
    run cargo run --release -q -p bloc-bench --bin fleet_soak 200
    # Hierarchical scalar leg: the coarse→fine localizer's floors (parity
    # within one fine cell of dense, ≥ 8× cell-eval reduction, thread
    # bit-identity, seeded tracking ≤ 10% of a dense sweep) re-proven
    # through the portable sweep kernel. --hier-only skips the JSON write
    # so the full SIMD run below records the dispatched config's
    # BENCH_hierarchical.json for the trend gate.
    run env BLOC_NO_SIMD=1 cargo run --release -q -p bloc-bench --bin perf_baseline 5 --hier-only
    # Perf gate: verifies the fast likelihood kernels (≤ 1e-9) and the fast
    # channel-synthesis engine (≤ 1e-12) against their naive references and
    # enforces the speedup floors — ≥ 5× likelihood, ≥ 4× sounding single
    # thread, a warm single-thread absolute floor of ≥ 8M cell-evals/s for
    # the SIMD sweep kernel, and the thread-scaling gate (≥ 2× at 4
    # threads on hosts with ≥ 4 cores). Also runs the hierarchical floors
    # on the 34.3×9.9 m corridor at the native 8 cm grid. Best-of-15 keeps
    # the gate stable on noisy shared hosts; refreshes
    # BENCH_likelihood.json, BENCH_sounding.json and BENCH_hierarchical.json
    # (see crates/bloc-bench/src/bin/perf_baseline.rs).
    run cargo run --release -q -p bloc-bench --bin perf_baseline 15
    # Observability gate: instrumentation overhead ≤ 2% vs a disabled
    # registry, par.* shard telemetry covering ≥ 95% of a calibrated
    # parallel region, Chrome-trace export re-parsed and balance-checked,
    # and the BENCH_* warm throughputs appended to the append-only
    # target/reports/BENCH_history.jsonl with a >15%-below-best regression
    # gate (warn-only on the first recorded run; see
    # crates/bloc-bench/src/bin/obs_report.rs).
    run cargo run --release -q -p bloc-bench --bin obs_report
fi
run cargo test -q
# Scalar-fallback leg: BLOC_NO_SIMD=1 forces the portable kernel at
# dispatch, and the equivalence suites re-verify the sweep core, the
# likelihood engine and the synthesizer through it. The results are
# bit-identical to the vectorized path by construction (one generic
# kernel body, IEEE correctly-rounded ops, no FMA), so the same
# tolerances apply unchanged.
echo "==> BLOC_NO_SIMD=1 scalar-fallback leg"
run env BLOC_NO_SIMD=1 cargo test -q -p bloc-num -- simd sweep
run env BLOC_NO_SIMD=1 cargo test -q -p bloc-core --test kernel_equivalence
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

echo "all checks passed"
