#!/usr/bin/env sh
# Staged CI pipeline. Run from anywhere; it cd's to the repository root.
#
#   scripts/ci.sh            # run every stage
#   scripts/ci.sh fmt test   # run only the named stages
#   scripts/ci.sh --list     # print the stage roster, one per line
#
# Naming a stage that does not exist is an error: the script exits 1
# listing the valid stages instead of silently running nothing.
#
# Stages, in order:
#
#   fmt          cargo fmt --check (formatting is normative)
#   build        cargo build --workspace --all-targets
#   clippy       cargo clippy, warnings as errors, all targets
#   test         cargo test -q --workspace
#   tier1        the repo's tier-1 gate, verbatim from ROADMAP.md
#   check-smoke  fuzzy-check: 10k DFS schedules per backend at N=3
#   bench-smoke  exp_encore --stats-json + schema validation
#   async-smoke  exp_async_scale quick sweep (asserts who takes the
#                probe lock) + schema validation; the four async mutants
#                (no drain, early release word, park on an unlocked read,
#                completer skips its drain) must still be caught by the
#                model checker while the real frontend survives; a
#                panicking task must neither wedge nor shrink the pool,
#                a foreign wake must reach a sleeping worker, and a
#                dropped pool must cancel its parked tasks and be freed
#   fault-smoke  check --scenario poison and --scenario evict (both
#                eviction shapes: one member leaves, all members race to
#                evict themselves), the racy-evict-guard mutant pair
#                (mutant caught, stock backends clean), then the
#                exp_fault_recovery export
#   fuzz-smoke   differential fuzzer: 200 nests at a fixed seed, zero
#                divergences required, stats export schema-validated;
#                then the simulator's stepwise-vs-run equivalence suite
#                and 500 more nests against the release build
#   chaos-smoke  reconfig mutants must be caught (and the real barrier
#                must survive the same schedules), then exp_chaos_churn
#                --quick across every backend on both runtimes, schema
#                validated
#   net-smoke    the forged-round transport mutant must be caught (and
#                the real NetBarrier must survive the same schedules),
#                the multi-process harness tests (including the
#                kill-a-worker poison scenario) must pass, then the
#                quick exp_net_scale sweep, schema validated
#   perf-gate    exp_backend_faceoff + exp_async_scale + exp_net_scale
#                quick sweeps vs the checked-in baselines
#   ledger-smoke the performance ledger (benchmark/): its own tests, then
#                all six workloads untraced and traced at --seed 7
#                --seconds 1; any failed operation, missing metric or
#                non-zero exit fails the stage
#   doc          cargo doc --no-deps (rustdoc warnings are errors)
#
# Each stage prints `ci: stage <name> PASS|FAIL (N.Ns)`; the script stops
# at the first failure, prints a per-stage timing summary, and exits 1
# naming the failing stage. Everything runs offline: no stage touches the
# network (set CARGO_NET_OFFLINE=true to have cargo enforce that).
set -u

cd "$(dirname "$0")/.."

STAGES="fmt build clippy test tier1 check-smoke bench-smoke async-smoke fault-smoke fuzz-smoke chaos-smoke net-smoke perf-gate ledger-smoke doc"

SELECTED=""
for arg in "$@"; do
    case "$arg" in
    --list)
        for s in $STAGES; do echo "$s"; done
        exit 0
        ;;
    *)
        known=1
        for s in $STAGES; do [ "$arg" = "$s" ] && known=0; done
        if [ "$known" -ne 0 ]; then
            echo "ci: unknown stage '$arg'" >&2
            echo "ci: valid stages: $STAGES" >&2
            exit 1
        fi
        SELECTED="$SELECTED $arg"
        ;;
    esac
done

failed_stage=""
SUMMARY=""

# want <name>: true if the stage was selected (no args = all stages).
want() {
    [ -z "$SELECTED" ] && return 0
    case " $SELECTED " in
    *" $1 "*) return 0 ;;
    *) return 1 ;;
    esac
}

# Nanosecond wall clock; falls back to whole seconds where date(1) does
# not understand %N (the summary then shows 1-second granularity).
now_ns() {
    t="$(date +%s%N)"
    case "$t" in
    *N*) echo "$(date +%s)000000000" ;;
    *) echo "$t" ;;
    esac
}

# run_stage <name> <command...>: runs the command, prints the timed
# PASS/FAIL line, and stops the pipeline at the first failure.
run_stage() {
    name="$1"
    shift
    [ -n "$failed_stage" ] && return 0
    echo "==> ci: stage $name: $*"
    start="$(now_ns)"
    if "$@"; then
        verdict=PASS
    else
        verdict=FAIL
        failed_stage="$name"
    fi
    elapsed="$(awk "BEGIN { printf \"%.1f\", ($(now_ns) - $start) / 1e9 }")"
    echo "ci: stage $name $verdict (${elapsed}s)"
    SUMMARY="$SUMMARY$name $verdict ${elapsed}s
"
}

# filtered_tests "<cargo test args>" <filter>...: one `cargo test -q` run
# per filter, each of which must pass at least one test. `cargo test --
# <filter>` exits 0 when the filter matches nothing, so without this a
# renamed test silently turns the gate that selects it into a no-op.
filtered_tests() {
    cargo_args="$1"
    shift
    for filter in "$@"; do
        # shellcheck disable=SC2086 # cargo_args is a word list
        log="$(cargo test -q $cargo_args -- "$filter" 2>&1)"
        test_status=$?
        echo "$log"
        [ "$test_status" -eq 0 ] || return 1
        if ! echo "$log" | grep -q 'test result: ok\. [1-9][0-9]* passed'; then
            echo "ci: test filter '$filter' matched no test" >&2
            return 1
        fi
    done
}

# The tier-1 gate, exactly as ROADMAP.md specifies it. Kept verbatim in a
# single shell line so the stage tests precisely what reviewers run.
tier1_gate() {
    sh -c 'cargo build --release && cargo test -q'
}

# Model-checker smoke: explore 10k schedules per backend at N=3 with the
# release binary (DFS, unbounded preemptions). A violation fails CI and
# prints a replayable schedule.
check_smoke() {
    cargo build --release -q -p fuzzy-check --bin check &&
        ./target/release/check --backend all --scenario all \
            --participants 3 --episodes 2 --mode dfs --schedules 10000
}

# Telemetry smoke: run the encore experiment with --stats-json and verify
# the export parses and matches the pinned schema (key names and types).
bench_smoke() {
    out="$(mktemp)" || return 1
    status=1
    if cargo run -q --release -p fuzzy-bench --bin exp_encore -- \
        --stats-json "$out" >/dev/null; then
        cargo run -q --release -p fuzzy-bench --bin validate_stats -- \
            --schema encore "$out"
        status=$?
    fi
    rm -f "$out"
    return $status
}

# Async smoke: the quick exp_async_scale sweep (every row asserts
# parked == resumed, full completion, and that only polls and completing
# arrives took the probe lock), schema-validated, followed by the model
# checker's three lost-wakeup mutant pairs — no drain at all, a park
# decided on a release word read outside the probe lock, a completing
# arrive that skips the drain it owes: each seeded bug must be caught
# and the real frontend must survive the same schedule space — and the
# backend whose release word runs one arrival early, which must be caught
# through the real frontend. Last, in release, the executor tests that
# guard its wake and lifetime protocols: a task that panics is re-raised
# by wait_idle, poisons the barrier it was parked on, and costs the pool
# no worker; a wake from a foreign thread reaches a worker asleep on the
# condvar; dropping the pool cancels a task parked on a barrier; and a
# dropped pool is freed however its task ended, a late wake included.
async_smoke() {
    out="$(mktemp)" || return 1
    status=1
    if cargo run -q --release -p fuzzy-bench --bin exp_async_scale -- \
        --quick --stats-json "$out" >/dev/null; then
        if cargo run -q --release -p fuzzy-bench --bin validate_stats -- \
            --schema async_scale "$out"; then
            filtered_tests "-p fuzzy-check --test mutants" no_drain \
                async_early_epoch unlocked_park completer_skips_drain &&
                filtered_tests "--release -p fuzzy-sched" panicking \
                    foreign_wake dropping_the_pool a_dropped_pool
            status=$?
        fi
    fi
    rm -f "$out"
    return $status
}

# Fault smoke: the poisoning and eviction scenarios on the model checker
# (1k DFS schedules per backend and shape at N=3; beyond this stage,
# eviction is explored only inside the 21-25-minute check-smoke), then the
# eviction-guard mutant pair: the check-then-act guard the backends used
# to hand-copy must be caught racing two self-evictions, and the episode
# core's serialised guard must survive three on every stock backend. Last,
# the fault-recovery experiment with its --stats-json export
# schema-validated.
fault_smoke() {
    cargo build --release -q -p fuzzy-check --bin check || return 1
    for scenario in poison evict; do
        ./target/release/check --backend all --scenario "$scenario" \
            --participants 3 --episodes 2 --mode dfs --schedules 1000 ||
            return 1
    done
    filtered_tests "--release -p fuzzy-check --test mutants" racy_evict_guard ||
        return 1
    out="$(mktemp)" || return 1
    status=1
    if cargo run -q --release -p fuzzy-bench --bin exp_fault_recovery -- \
        --stats-json "$out" >/dev/null; then
        cargo run -q --release -p fuzzy-bench --bin validate_stats -- \
            --schema fault_recovery "$out"
        status=$?
    fi
    rm -f "$out"
    return $status
}

# Fuzz smoke: the compiler->simulator differential fuzzer at a fixed
# seed. Any divergence (memory mismatch, DAG violation, region growth,
# stall regression, pipeline panic) fails the stage; the campaign summary
# is schema-validated like every other telemetry export. The checked-in
# regression corpus is replayed separately by `cargo test` (stage test).
# Then the simulator's exactness referee against the build the ledger
# measures: the stepwise-vs-run equivalence suite (mutants included) and
# a longer fuzz campaign, both in release — stage test runs them in debug
# only, and overflow checks and inlining differ between the two.
fuzz_smoke() {
    out="$(mktemp)" || return 1
    status=1
    if cargo run -q --release -p fuzzy-fuzz --bin fuzz -- \
        --seed 7 --iters 200 --stats-json "$out"; then
        cargo run -q --release -p fuzzy-bench --bin validate_stats -- \
            --schema fuzz_campaign "$out"
        status=$?
    fi
    rm -f "$out"
    [ "$status" -eq 0 ] || return "$status"
    filtered_tests "--release -p fuzzy-sim --lib" equivalence || return 1
    campaign="$(cargo run -q --release -p fuzzy-fuzz --bin fuzz -- \
        --seed 7 --iters 500 2>&1)" || return 1
    echo "$campaign"
    echo "$campaign" | grep -q ' 0 divergent'
}

# Chaos smoke: the dynamic-membership gate. First the model checker's
# reconfig mutant pair (join-before-boundary and stale-generation depart
# must both be caught) plus the real implementation surviving the same
# schedule spaces; then the quick chaos-churn experiment — real threads,
# every backend, both runtimes, seeded join/leave/crash/delay/spurious
# churn — with its telemetry export schema-validated.
chaos_smoke() {
    filtered_tests "-p fuzzy-check --test mutants" \
        join_mid_epoch stale_generation_mutant real_reconfig || return 1
    out="$(mktemp)" || return 1
    status=1
    if cargo run -q --release -p fuzzy-bench --bin exp_chaos_churn -- \
        --quick --stats-json "$out" >/dev/null; then
        cargo run -q --release -p fuzzy-bench --bin validate_stats -- \
            --schema chaos_churn "$out"
        status=$?
    fi
    rm -f "$out"
    return $status
}

# Net smoke: the distributed gate. First the model checker's net mutant
# pair — the transport that forges the higher dissemination rounds must
# be caught as a fuzzy violation, and the real NetBarrier must survive
# the same schedule space; then the multi-process harness tests (a real
# UDS worker mesh completing every episode, and the acceptance scenario:
# killing one worker mid-episode poisons, not hangs, all survivors);
# finally the quick exp_net_scale sweep — in-process loopback mesh plus
# forked UDS worker processes — with its export schema-validated.
net_smoke() {
    filtered_tests "-p fuzzy-check --test mutants" \
        net_skip_round real_net_barrier || return 1
    cargo test -q -p fuzzy-sched --test multiproc || return 1
    out="$(mktemp)" || return 1
    status=1
    if cargo run -q --release -p fuzzy-bench --bin exp_net_scale -- \
        --quick --stats-json "$out" >/dev/null; then
        cargo run -q --release -p fuzzy-bench --bin validate_stats -- \
            --schema net_scale "$out"
        status=$?
    fi
    rm -f "$out"
    return $status
}

# Perf gate: quick backend-faceoff and async-scale sweeps, each
# schema-validated and compared against its checked-in baseline (see
# scripts/perf_gate.sh for the tolerance model).
perf_gate() {
    sh scripts/perf_gate.sh
}

# Ledger smoke: benchmark/ is a package of its own (own workspace, own
# lock file), so no stage above builds or runs it, and a ledger run that
# fails would first be seen by whoever referees a performance claim. Its
# unit tests, then the whole ledger with the command BENCHMARK.json
# declares, one second a workload: the runner exits non-zero if any
# workload fails an operation (every episode's release and visibility
# check, the net counters, the simulated result), leaves a declared
# metric unreported, or exits non-zero itself; what went wrong is on
# stderr. The numbers of a one-second run mean nothing and are dropped.
ledger_smoke() {
    cargo test -q --offline --manifest-path benchmark/Cargo.toml || return 1
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --seed 7 --seconds 1 >/dev/null
}

want fmt && run_stage fmt cargo fmt --check
want build && run_stage build cargo build --workspace --all-targets
want clippy && run_stage clippy cargo clippy --workspace --all-targets -- -D warnings
want test && run_stage test cargo test -q --workspace
want tier1 && run_stage tier1 tier1_gate
want check-smoke && run_stage check-smoke check_smoke
want bench-smoke && run_stage bench-smoke bench_smoke
want async-smoke && run_stage async-smoke async_smoke
want fault-smoke && run_stage fault-smoke fault_smoke
want fuzz-smoke && run_stage fuzz-smoke fuzz_smoke
want chaos-smoke && run_stage chaos-smoke chaos_smoke
want net-smoke && run_stage net-smoke net_smoke
want perf-gate && run_stage perf-gate perf_gate
want ledger-smoke && run_stage ledger-smoke ledger_smoke
want doc && run_stage doc env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

if [ -n "$SUMMARY" ]; then
    echo ""
    echo "ci: summary"
    echo "$SUMMARY" | while read -r name verdict elapsed; do
        [ -n "$name" ] && printf '  %-12s %-4s %8s\n' "$name" "$verdict" "$elapsed"
    done
fi

if [ -n "$failed_stage" ]; then
    echo "ci: FAILED at stage $failed_stage"
    exit 1
fi
echo "ci: all stages passed"
