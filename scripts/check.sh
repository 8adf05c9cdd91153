#!/usr/bin/env bash
# Repository health gate: formatting, lints, and the tier-1 build + test
# pass (see ROADMAP.md). Run before pushing; CI runs the same steps.
#
# Usage: scripts/check.sh [--fix]
#   --fix   apply rustfmt instead of only checking

set -euo pipefail
cd "$(dirname "$0")/.."

FIX=0
for arg in "$@"; do
    case "$arg" in
        --fix) FIX=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

step() { printf '\n==> %s\n' "$*"; }

if [ "$FIX" = 1 ]; then
    step "cargo fmt"
    cargo fmt --all
else
    step "cargo fmt --check"
    cargo fmt --all --check
fi

step "cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "tier-1: cargo build --release"
cargo build --release

step "bench binaries: cargo build --release -p kg-bench"
cargo build --release -p kg-bench --bins

# The root package does not depend on the CLI crate, so the tier-1 build
# above never links target/release/votekg — build it explicitly before
# the smoke gates below shell out to it.
step "cli binary: cargo build --release -p votekg-cli"
cargo build --release -p votekg-cli

step "tier-1: cargo test -q"
cargo test -q

# Every crate's suites — unit tests, proptests, the no-alloc and
# fault-injection binaries — in release (several proptests and the
# fuzz suite are too slow in debug). The root package (votekg-suite) ran
# above as tier-1; its release-only suites run below.
step "crate suites: cargo test --workspace --release --exclude votekg-suite"
cargo test -q --workspace --release --exclude votekg-suite

# Benchmark harness: perfbench is a package of its own (see
# BENCHMARK.json), so the workspace steps above never compile it, and a
# change to an API it builds against would first fail in a benchmark
# run. Build it, run its self-tests, then run each workload for one
# second, untraced and traced: perfbench exits 1 on any failed check or
# determinism gate (one lookup per read, identical pass counters, a
# replay that reproduces every round).
step "perfbench: self-tests + 1 s run of each workload, untraced and traced"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
for workload in rank_hot feedback_loop; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 1 --trace "$trace"
    done
done

# Differential-fuzzing smoke: a short clean campaign over the solver
# matrix (release binary — debug would dominate the gate's runtime).
# Any divergence exits nonzero and leaves a replayable repro in the
# temp dir it names. Skip with VOTEKG_SKIP_FUZZ_SMOKE=1 when iterating
# on unrelated code; CI always runs it.
if [ "${VOTEKG_SKIP_FUZZ_SMOKE:-0}" = 1 ]; then
    step "fuzz-smoke (skipped: VOTEKG_SKIP_FUZZ_SMOKE=1)"
else
    step "fuzz-smoke: votekg fuzz --seed-range 0..25"
    FUZZ_OUT=$(mktemp -d)
    if target/release/votekg fuzz --seed-range 0..25 \
        --timeout-ms "${VOTEKG_FUZZ_TIMEOUT_MS:-5000}" --out "$FUZZ_OUT"; then
        rm -rf "$FUZZ_OUT"
    else
        echo "FAIL: solver divergence; repros kept in $FUZZ_OUT" >&2
        echo "Replay with: target/release/votekg fuzz --replay $FUZZ_OUT/seed-<n>.repro.json" >&2
        exit 1
    fi
fi

# The concurrency stress suite runs in release (debug is too slow to
# exercise real interleavings) with a bounded wall-clock budget per run.
step "concurrency stress suite (release, bounded budget)"
VOTEKG_STRESS_MS="${VOTEKG_STRESS_MS:-400}" \
VOTEKG_STRESS_READERS="${VOTEKG_STRESS_READERS:-4}" \
    cargo test -q --release --test concurrent_serving

# Network front-end suites, also in release: the protocol torture tests
# (malformed/truncated/slow/abrupt input must never panic or hang a
# worker), the socket soak (wire bytes verified against the snapshot of
# their served epoch while optimization races), and the end-to-end WAL
# durability workflow over a real `votekg serve` child process.
step "server suites: protocol torture + socket soak + serve durability (release)"
cargo test -q --release --test server_protocol
VOTEKG_SOAK_MS="${VOTEKG_SOAK_MS:-400}" \
VOTEKG_SOAK_CLIENTS="${VOTEKG_SOAK_CLIENTS:-4}" \
    cargo test -q --release --test server_concurrent
cargo test -q --release -p votekg-cli --test serve_workflow

# Server load smoke gate: a short burst through the wire-protocol
# front-end with live optimization rounds. --enforce exits nonzero on
# any wire error, epoch regression, unfired optimization trigger, or
# unclean drain. Writes to a temp file so the committed
# BENCH_server.json (a full-size run) is not clobbered.
step "server smoke: short load burst, zero protocol errors, clean drain"
target/release/server_load --clients 4 --requests 16 --opt-rounds 1 \
    --enforce --out "$(mktemp)"

# Lock-freedom gate: the snapshot-serving read path and the flight
# recorder's event rings must stay free of blocking primitives. ArcCell
# (kg-graph/src/shared.rs) is the one vetted exception and keeps its
# slot lock, held for one pointer swap, out of these files; the recorder
# is seqlock-over-atomics by design (hot-path writers must never block
# or wait on readers).
step "lock-freedom gate: no Mutex/RwLock in kg-serve read path or recorder"
LOCK_FREE_FILES=(crates/kg-serve/src/concurrent.rs crates/kg-telemetry/src/recorder.rs)
# grep exits 0 on a match, 1 on none and 2 on an error such as a missing
# file. Only 1 passes, so a renamed or deleted file fails the gate
# instead of passing it unchecked.
rc=0
grep -n -E 'Mutex|RwLock' "${LOCK_FREE_FILES[@]}" || rc=$?
if [ "$rc" = 0 ]; then
    echo "FAIL: blocking primitive in a lock-free path (see matches above)." >&2
    echo "Readers/recorders must stay lock-free; use atomics/seqlocks or move the state elsewhere." >&2
    exit 1
elif [ "$rc" != 1 ]; then
    echo "FAIL: lock-freedom gate could not read every listed file (grep exit $rc); update the list." >&2
    exit 1
fi
echo "ok: kg-serve read path and kg-telemetry recorder are free of Mutex/RwLock"

# Flight-recorder smoke: record a real optimize run through the binary,
# round-trip the Chrome trace through export, and gate the timeline
# report at the documented >=95% phase coverage. Exercises the same
# record -> export -> report pipeline a user drives (README
# "Observability").
step "trace smoke: record -> export -> report (>=95% coverage)"
TRACE_OUT=$(mktemp -d)
target/release/votekg gen-corpus --docs 80 --seed 7 --out "$TRACE_OUT/corpus.json"
target/release/votekg build --corpus "$TRACE_OUT/corpus.json" --out "$TRACE_OUT/system.json"
# Seeded corpus => deterministic ranking: doc-30 sits at #3, so voting
# it best yields a real negative vote for the optimizer to chew on.
target/release/votekg vote --system "$TRACE_OUT/system.json" \
    --log "$TRACE_OUT/votes.jsonl" --question "refund order rules" --best doc-30
target/release/votekg trace record --system "$TRACE_OUT/system.json" \
    --log "$TRACE_OUT/votes.jsonl" --out "$TRACE_OUT/run.trace.json"
target/release/votekg trace export --in "$TRACE_OUT/run.trace.json" \
    --out "$TRACE_OUT/normalized.trace.json"
target/release/votekg trace report --in "$TRACE_OUT/normalized.trace.json" \
    --min-coverage 0.95
rm -rf "$TRACE_OUT"
echo "ok: trace record/export/report round-trips with >=95% phase coverage"

# Crash-recovery smoke gate: run a durable optimize with the WAL crash
# hook armed so the process aborts mid-run (after the 2nd committed
# round of 3), then recover twice from the WAL. The run must actually
# die, recovery must report a verified state, and both recoveries must
# land on the same version + weights checksum (README "Durability").
step "crash-recovery smoke: optimize --wal + injected abort + recover x2"
WAL_OUT=$(mktemp -d)
target/release/votekg gen-corpus --docs 80 --seed 7 --out "$WAL_OUT/corpus.json"
target/release/votekg build --corpus "$WAL_OUT/corpus.json" --out "$WAL_OUT/system.json"
for _ in 1 2 3; do
    target/release/votekg vote --system "$WAL_OUT/system.json" \
        --log "$WAL_OUT/votes.jsonl" --question "refund order rules" --best doc-30
done
cp "$WAL_OUT/system.json" "$WAL_OUT/system-crashed.json"
if VOTEKG_WAL_CRASH_AFTER_COMMITS=2 target/release/votekg optimize \
    --system "$WAL_OUT/system-crashed.json" --log "$WAL_OUT/votes.jsonl" \
    --batch 1 --wal "$WAL_OUT/wal" >/dev/null 2>&1; then
    echo "FAIL: optimize survived the injected crash (VOTEKG_WAL_CRASH_AFTER_COMMITS=2)" >&2
    exit 1
fi
rec1=$(target/release/votekg recover --system "$WAL_OUT/system-crashed.json" \
    --wal "$WAL_OUT/wal" --out "$WAL_OUT/recovered.json")
rec2=$(target/release/votekg recover --system "$WAL_OUT/system-crashed.json" \
    --wal "$WAL_OUT/wal" --out "$WAL_OUT/recovered.json")
if ! grep -q '^verified:' <<<"$rec1"; then
    echo "FAIL: recovery did not verify the replayed rounds:" >&2
    echo "$rec1" >&2
    exit 1
fi
if [ "$(head -n1 <<<"$rec1")" != "$(head -n1 <<<"$rec2")" ]; then
    echo "FAIL: recovery is not idempotent; two runs disagreed:" >&2
    echo "  first:  $(head -n1 <<<"$rec1")" >&2
    echo "  second: $(head -n1 <<<"$rec2")" >&2
    exit 1
fi
# The crash landed between commits, so the WAL must carry the committed
# rounds plus the not-yet-optimized vote as pending work.
if ! grep -q '1 pending vote' <<<"$rec1"; then
    echo "FAIL: expected 1 pending vote after aborting 2 of 3 commits:" >&2
    echo "$rec1" >&2
    exit 1
fi
rm -rf "$WAL_OUT"
echo "ok: injected crash killed the run; recovery is verified and idempotent"

# Telemetry overhead gate: the flight recorder must cost <=10% on the
# cached re-rank hot path (--enforce exits nonzero past the budget).
# Writes to a temp file so the committed BENCH_telemetry_overhead.json
# (a full-size run) is not clobbered by this smoke.
step "telemetry overhead gate: recorder <=10% on cached re-rank path"
target/release/telemetry_overhead --enforce --out "$(mktemp)"

# Serving smoke gate: a short release run of the serve bench. The binary
# asserts on every round that the cached re-rank (SnapshotServer,
# affected-set eviction) equals a full uncached recompute, so any stale
# ranking panics. Writes to a temp file so the committed BENCH_serve.json
# (a full-size run) is not clobbered by this smoke.
step "serve smoke: cached re-rank equals uncached on every round"
target/release/serve --rounds 8 --out "$(mktemp)"

# Regression gate on swallowed failures: new bare `.expect(` / `.unwrap(`
# calls in non-test code of the fault-hardened crates must not creep back
# in. The baseline counts the vetted survivors (serialization helpers and
# internal invariants); raise it only with a review of the new call site.
step "expect/unwrap regression gate"
UNWRAP_BASELINE=12
count=0
for f in $(find crates/kg-votes/src crates/kg-cluster/src crates/core/src -name '*.rs'); do
    # Strip everything from the first `#[cfg(test)]` on: test modules sit
    # at the bottom of each file and may unwrap freely.
    n=$(awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -c -E '\.(expect|unwrap)\(' || true)
    count=$((count + n))
done
if [ "$count" -gt "$UNWRAP_BASELINE" ]; then
    echo "FAIL: $count bare expect()/unwrap() calls in non-test pipeline code (baseline $UNWRAP_BASELINE)" >&2
    echo "Handle the failure (SolveOutcome / DiscardedVote / rollback) or update the baseline with a reviewed justification." >&2
    exit 1
fi
echo "ok: $count bare expect()/unwrap() calls (baseline $UNWRAP_BASELINE)"

printf '\nAll checks passed.\n'
