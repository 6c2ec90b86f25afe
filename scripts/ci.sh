#!/usr/bin/env sh
# Staged CI pipeline. Run from anywhere; it cd's to the repository root.
#
#   scripts/ci.sh            # run every stage
#   scripts/ci.sh fmt test   # run only the named stages
#   scripts/ci.sh --list     # print the stage roster, one per line
#
# Naming a stage that does not exist is an error: the script exits 1
# listing the valid stages instead of silently running nothing. The
# roster lives here only: .github/workflows/ci.yml runs this script once
# with no arguments.
#
# Stages, in order:
#
#   fmt          cargo fmt --check (formatting is normative)
#   build        cargo build --workspace --all-targets
#   clippy       cargo clippy, warnings as errors, all targets
#   test         cargo test -q --workspace (fuzzy-bench's encore_exact
#                requires exp_encore's simulator rows to equal
#                BENCH_encore.json exactly)
#   tier1        the repo's tier-1 gate, verbatim from ROADMAP.md
#   check-smoke  fuzzy-check: 10k DFS schedules per scenario at N=3 (~20 min)
#   fault-smoke  check --scenario poison and --scenario evict (both
#                eviction shapes: one member leaves, all members race to
#                evict themselves), the racy-evict-guard mutant pair
#                (mutant caught, stock backends clean), then the
#                exp_fault_recovery export
#   fuzz-smoke   differential fuzzer: 200 nests at a fixed seed, zero
#                divergences required, stats export schema-validated;
#                then the compiler's determinism test, the simulator's
#                stepwise-vs-run equivalence suite, exp_semantics' Fig. 1
#                region positions at sync (literal for literal) and 500
#                more nests against the release build
#   chaos-smoke  reconfig mutants must be caught (and the real barrier
#                must survive the same schedules), then exp_chaos_churn
#                --quick across every backend on both runtimes, schema
#                validated
#   ledger-smoke the performance ledger (benchmark/): its own tests, then
#                all six workloads untraced and traced at --seed 7
#                --seconds 1; then each quick sweep that asserts a
#                performance shape in-run (exp_backend_faceoff,
#                exp_async_scale, exp_net_scale); then the async and net
#                mutants, the executor's wake, yield and lifetime tests
#                and the multi-process harness tests
#   doc          cargo doc --no-deps (rustdoc warnings are errors)
#
# Each stage prints `ci: stage <name> PASS|FAIL (N.Ns)`; the script stops
# at the first failure, prints a per-stage timing summary, and exits 1
# naming the failing stage. Everything runs offline: no stage touches the
# network (set CARGO_NET_OFFLINE=true to have cargo enforce that).
set -u

cd "$(dirname "$0")/.."

STAGES="fmt build clippy test tier1 check-smoke fault-smoke fuzz-smoke chaos-smoke ledger-smoke doc"

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

# Model-checker smoke: explore 10k schedules per scenario at N=3 with the
# release binary (DFS, unbounded preemptions). A violation fails CI and
# prints a replayable schedule.
check_smoke() {
    cargo build --release -q -p fuzzy-check --bin check &&
        ./target/release/check --backend all --scenario all \
            --participants 3 --episodes 2 --mode dfs --schedules 10000
}

# Fault smoke: the poisoning and eviction scenarios on the model checker
# (1k DFS schedules per backend and shape at N=3; beyond this stage,
# eviction is explored only inside the ~20-minute check-smoke), then the
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
# Then the compiler's determinism test (the fuzzer's findings replay only
# if a compile is a function of its input), and the simulator's exactness
# referee against the build the ledger measures: the stepwise-vs-run
# equivalence suite (mutants included), the exact Fig. 1 image that
# `exp_semantics` reads by stepping (`semantics_exact`: the simulator keeps
# only the distribution of region positions at sync, so this pins each
# processor's own, serial and pipelined, and that the two differ) and a
# longer fuzz campaign, all in release — stage test
# runs them in debug only, and overflow checks and inlining differ between
# the two.
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
    filtered_tests "--release -p fuzzy-fuzz --test deterministic_codegen" \
        compiling_twice_gives_identical_programs || return 1
    filtered_tests "--release -p fuzzy-sim --lib" equivalence || return 1
    filtered_tests "--release -p fuzzy-bench --test semantics_exact" \
        region_positions_at_sync pipelined_table_differs || return 1
    campaign="$(cargo run -q --release -p fuzzy-fuzz --bin fuzz -- \
        --seed 7 --iters 500 2>&1)" || return 1
    echo "$campaign"
    echo "$campaign" | grep -q ' 0 divergent'
}

# Chaos smoke: the dynamic-membership gate. First the model checker's
# reconfig mutants (join-before-boundary, admit-in-flight, stale-generation
# depart, and a wait_future over an inner completer that never wakes must
# all be caught) plus the real implementation surviving the same
# schedule spaces; then the quick chaos-churn experiment — real threads,
# every backend, both runtimes, seeded join/leave/crash/delay/spurious
# churn — with its telemetry export schema-validated.
chaos_smoke() {
    filtered_tests "-p fuzzy-check --test mutants" \
        join_mid_epoch admit_in_flight stale_generation_mutant reconfig_future \
        real_reconfig || return 1
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

# Ledger smoke: benchmark/ is a package of its own (own workspace, own
# lock file), so no stage above builds or runs it, and a ledger run that
# fails would first be seen by whoever referees a performance claim. Its
# unit tests, then the whole ledger with the command BENCHMARK.json
# declares, one second a workload: the runner exits non-zero if any
# workload fails an operation (every episode's release and visibility
# check, the net counters, the simulated result), leaves a declared
# metric unreported, or exits non-zero itself; what went wrong is on
# stderr. The numbers of a one-second run mean nothing and are dropped.
#
# Then the quick sweeps, each of which fails itself on a broken shape:
# exp_backend_faceoff asserts that a 32-probe spin budget (the hier rows)
# beats the default 1,024 (central and counting) on stall probes at
# N = 16; exp_async_scale asserts parked == resumed on every row
# (central's tasks park in the episode core); exp_net_scale asserts exactly
# ceil(log2 N) frames per arrival with zero retries on every loopback row
# and a wedge-free UDS process mesh.
#
# Last, the model checker's async mutants (a completer that never wakes
# the parked, a backend whose release word runs one arrival early, a park
# with no re-read after its registration, a completer that wakes before
# it publishes, a first pending poll that yields without waking its task,
# a dissemination poll refused a parking place that re-queues nothing)
# and its forged-round transport
# mutant must each be caught while the real frontend and NetBarrier
# survive the same schedules; in release, a task that panics must
# neither wedge nor shrink the executor's pool, a foreign wake must
# reach a sleeping worker, a dropped pool must cancel its parked and
# deferred tasks and be freed, a task that yields on every poll must
# starve nobody queued behind it and be starved by nobody queued ahead
# of it, and a task that yields 1,000 times must finish; a NetBarrier arrive must put its signal on the wire
# before it polls, and still send every round that poll makes due, and an
# async future over a NetBarrier must be woken, or re-queue itself, when a
# peer's frame completes its episode; and
# the multi-process harness tests (a real UDS worker mesh, and killing
# one worker mid-episode poisons, not hangs, the survivors) must pass.
ledger_smoke() {
    cargo test -q --offline --manifest-path benchmark/Cargo.toml || return 1
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --seed 7 --seconds 1 >/dev/null || return 1
    for bin in exp_backend_faceoff exp_async_scale exp_net_scale; do
        cargo run -q --release -p fuzzy-bench --bin "$bin" -- --quick >/dev/null ||
            return 1
    done
    filtered_tests "-p fuzzy-check --test mutants" never_wake async_early_epoch \
        park_without_recheck wake_before_publish yield_without_wake requeue_without_wake \
        net_skip_round real_net_barrier &&
        filtered_tests "--release -p fuzzy-sched" panicking \
            foreign_wake dropping_the_pool a_dropped_pool cannot_starve \
            yields_a_thousand_times &&
        filtered_tests "--release -p fuzzy-net" arrive_signals_before_it_listens \
            arrive_sends_every_round_already_due async_frontend_runs_unmodified_over_the_mesh &&
        cargo test -q -p fuzzy-sched --test multiproc
}

want fmt && run_stage fmt cargo fmt --check
want build && run_stage build cargo build --workspace --all-targets
want clippy && run_stage clippy cargo clippy --workspace --all-targets -- -D warnings
want test && run_stage test cargo test -q --workspace
want tier1 && run_stage tier1 tier1_gate
want check-smoke && run_stage check-smoke check_smoke
want fault-smoke && run_stage fault-smoke fault_smoke
want fuzz-smoke && run_stage fuzz-smoke fuzz_smoke
want chaos-smoke && run_stage chaos-smoke chaos_smoke
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
