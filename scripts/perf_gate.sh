#!/usr/bin/env sh
# Performance gate for the split-phase barrier backends and the async
# frontend.
#
#   scripts/perf_gate.sh [--full]
#
# Four sub-gates, all of which must pass:
#
#   faceoff  runs the exp_backend_faceoff sweep (quick subset by default,
#            full sweep with --full), schema-validates the fresh export,
#            and compares its stall-probe / arrival-spread aggregates
#            against the checked-in baseline BENCH_faceoff.json within a
#            multiplicative tolerance. The faceoff binary itself
#            additionally asserts that the hierarchical backend beats the
#            central and counting barriers at N >= 16 (full sweep), so a
#            perf regression in that claim fails the gate even before the
#            baseline comparison runs.
#   async    runs the exp_async_scale sweep the same way and compares its
#            polls-per-arrival / elapsed-time rows against
#            BENCH_async.json. The sweep itself asserts parked == resumed
#            on every row, so a lost wakeup fails the gate outright.
#   net      runs the exp_net_scale sweep the same way and compares its
#            frames-per-arrival / elapsed-time rows against
#            BENCH_net.json. The sweep itself asserts zero retries and
#            zero decode errors on the lossless loopback mesh, plus a
#            wedge-free multi-process UDS run, so a frame-traffic or
#            liveness regression fails the gate before the comparison.
#   encore   re-runs exp_encore --stats-json and requires its soft_sweep
#            and hw_sweep sections to equal BENCH_encore.json byte for
#            byte. Those rows are simulator cycle counts: deterministic,
#            so tolerance 0 — any change to what fuzzy-sim counts shows
#            here, however the host is loaded. The thread-timed backends
#            section of the same file is left to bench-smoke's schema
#            check, as before.
#
# Environment:
#   PERF_GATE_TOLERANCE   multiplicative slack for probes/episode and
#                         polls/arrival (default 8; wall-clock metrics get
#                         4x this — see the binaries' --compare modes).
#                         Loose on purpose: the gate is meant to catch
#                         order-of-magnitude regressions on noisy shared
#                         runners, not 10% drifts.
#
# Exit codes: 0 = gate passed, 1 = regression/validation failure.
set -u

cd "$(dirname "$0")/.."

MODE="--quick"
[ "${1:-}" = "--full" ] && MODE=""
TOLERANCE="${PERF_GATE_TOLERANCE:-8}"

# run_gate <label> <bin> <schema> <baseline>: sweep, validate, compare.
run_gate() {
    label="$1"
    bin="$2"
    schema="$3"
    baseline="$4"

    if [ ! -f "$baseline" ]; then
        echo "perf_gate: missing baseline $baseline — regenerate with:" >&2
        echo "  cargo run --release -p fuzzy-bench --bin $bin -- --stats-json $baseline" >&2
        return 1
    fi

    fresh="$(mktemp)" || return 1
    status=1
    # shellcheck disable=SC2086  # $MODE is intentionally word-split ('' or --quick)
    if cargo run -q --release -p fuzzy-bench --bin "$bin" -- \
        $MODE --stats-json "$fresh" >/dev/null; then
        if cargo run -q --release -p fuzzy-bench --bin validate_stats -- \
            --schema "$schema" "$fresh"; then
            cargo run -q --release -p fuzzy-bench --bin "$bin" -- \
                --compare "$fresh" --baseline "$baseline" --tolerance "$TOLERANCE"
            status=$?
        fi
    else
        echo "perf_gate: $label run failed (in-run assertion or crash)" >&2
    fi
    rm -f "$fresh"

    if [ "$status" -eq 0 ]; then
        echo "perf_gate: $label PASS (tolerance x$TOLERANCE vs $baseline)"
    else
        echo "perf_gate: $label FAIL" >&2
    fi
    return "$status"
}

# The simulator's part of an encore export: from the "soft_sweep" key up
# to, not including, the "backends" key. The exporter writes keys in a
# fixed order, one per line, so the text range is the two sections.
sim_sections() {
    sed -n '/^  "soft_sweep"/,/^  "backends"/p' "$1" | sed '$d'
}

encore_gate() {
    baseline=BENCH_encore.json
    fresh="$(mktemp)" && want="$(mktemp)" && got="$(mktemp)" || return 1
    status=1
    if cargo run -q --release -p fuzzy-bench --bin exp_encore -- \
        --stats-json "$fresh" >/dev/null; then
        sim_sections "$baseline" >"$want"
        sim_sections "$fresh" >"$got"
        if [ ! -s "$want" ]; then
            echo "perf_gate: no soft_sweep/hw_sweep sections in $baseline" >&2
        elif diff "$want" "$got" >&2; then
            status=0
        else
            echo "perf_gate: simulator rows differ (< $baseline, > this build)" >&2
        fi
    else
        echo "perf_gate: encore run failed (in-run assertion or crash)" >&2
    fi
    rm -f "$fresh" "$want" "$got"

    if [ "$status" -eq 0 ]; then
        echo "perf_gate: encore PASS (soft_sweep + hw_sweep exact vs $baseline)"
    else
        echo "perf_gate: encore FAIL" >&2
    fi
    return "$status"
}

overall=0
run_gate faceoff exp_backend_faceoff backend_faceoff BENCH_faceoff.json || overall=1
run_gate async exp_async_scale async_scale BENCH_async.json || overall=1
run_gate net exp_net_scale net_scale BENCH_net.json || overall=1
encore_gate || overall=1

if [ "$overall" -eq 0 ]; then
    echo "perf_gate: PASS"
else
    echo "perf_gate: FAIL" >&2
fi
exit "$overall"
