#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md). Must pass fully offline:
# the workspace has zero registry dependencies, so no step may hit the
# network. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# The golden-file tests rewrite tests/golden/* instead of comparing
# against them whenever PDA_BLESS is set (to any value), so a gate run
# with it exported would pass whatever the code does.
if [ -n "${PDA_BLESS+set}" ]; then
    echo "ci: PDA_BLESS is set; the golden tests would re-bless instead of checking. Unset it." >&2
    exit 1
fi

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q --no-fail-fast =="
# Every test binary runs even when an earlier one fails, so one failure
# cannot hide another.
cargo test -q --no-fail-fast

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== perfbench tests: public-API replay vs production =="
# The benchmark package has its own workspace, so the workspace test run
# above does not reach it. Its determinism tests replay every CEGAR
# iteration through the layer crates' public API (`rhs::run`,
# `RhsResult::witness`, the meta kernel, the solver) and require the
# replay to reproduce the production driver's effort counts exactly.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# The batch bench's lines that scripts/expected_batch_outcomes.txt pins:
# per-query outcomes and the three identity lines.
outcome_lines() {
    grep -E '^(outcome [0-9]+:|tree/interned outcomes identical:|per-query outcomes identical across job counts:|viable-engine outcomes identical:)'
}

echo "== perf smoke: seeded batch bench vs expected outcomes =="
# The bench is fully seeded (hedc, seed 13), so every `outcome N:` line
# and the three identity lines (the per-iteration oracle replay against
# the tree kernel and DPLL, and the cross-jobs check) are deterministic.
# A panic exits non-zero (set -e); a verdict drift or a deadline hit on
# an unconstrained run is a regression. Bench JSON goes to target/ so
# the committed BENCH_batch.json artifact is not clobbered. PDA_TRACE
# makes the bench stream + self-validate the structured JSONL trace
# (strict parse, byte-identity across job counts, event counts vs its
# own results).
perf="$(PDA_TRACE=target/ci_trace PDA_BENCH_OUT=target/ci_bench.json ./target/release/batch)"
echo "$perf"
diff scripts/expected_batch_outcomes.txt \
    <(echo "$perf" | outcome_lines) \
    || { echo "ci: batch outcomes drifted from scripts/expected_batch_outcomes.txt" >&2; exit 1; }
echo "$perf" | grep -q 'resilience: deadline_exceeded=0 engine_faults=0' \
    || { echo "ci: perf smoke hit deadlines or engine faults on an unconstrained run" >&2; exit 1; }

echo "== trace smoke: structured JSONL trace vs bench counters =="
# Cross-check the trace summary's iteration/query counts against the
# independently written bench JSON.
trace_line="$(echo "$perf" | grep '^trace: ')" \
    || { echo "ci: perf smoke did not emit a trace summary" >&2; exit 1; }
iters_trace="$(echo "$trace_line" | sed -E 's/.* ([0-9]+) iterations.*/\1/')"
iters_json="$(grep '"sequential"' target/ci_bench.json | sed -E 's/.*"iterations":([0-9]+).*/\1/')"
queries_trace="$(echo "$trace_line" | sed -E 's/.* ([0-9]+) queries.*/\1/')"
queries_json="$(grep '"queries": ' target/ci_bench.json | sed -E 's/.*"queries": ([0-9]+).*/\1/')"
[ "$iters_trace" = "$iters_json" ] && [ "$queries_trace" = "$queries_json" ] \
    || { echo "ci: trace counts (iters=$iters_trace queries=$queries_trace) disagree with bench JSON (iters=$iters_json queries=$queries_json)" >&2; exit 1; }
echo "trace smoke ok: $iters_trace iterations, $queries_trace queries"

echo "== governor smoke: batch under a 4 MiB per-query memory budget =="
# 4 MiB is tuned (empirically, but the byte accounting is deterministic)
# to pressure the governor on the seeded hedc batch. In each jobs phase
# three queries come under pressure and 11 rungs apply: one query takes
# rung 1, one rungs 1-2, and one walks all eight, so the beam and
# fact-budget rungs (3-8) fire here too. A pressured query stays under
# pressure at every later boundary until it ends (rung 2's reset intern
# cache is rebuilt within one iteration), and the eight-rung query ends
# at its eighth boundary, so a shorter ladder would turn it into
# MemBudgetExceeded. Every outcome line (verdicts *and* iteration
# counts) must stay byte-identical to the unbudgeted expectations. A
# drift here means a ladder rung changed the search; an exhaustion
# means the budget estimate regressed.
gov="$(PDA_MEM_BUDGET=4m PDA_BENCH_OUT=target/ci_bench_governed.json ./target/release/batch)"
echo "$gov"
diff scripts/expected_batch_outcomes.txt \
    <(echo "$gov" | outcome_lines) \
    || { echo "ci: governed batch outcomes drifted — a degradation rung changed a verdict or iteration count" >&2; exit 1; }
# The count is pinned exactly, not just required to be positive: each
# query owns its intern cache and governor, pressure is judged from the
# cache's deterministic byte estimate (lengths × size_of, never RSS) at
# refinement boundaries, and the seeded batch runs the same iterations at
# every job count, so the sum over the jobs=1 and jobs=8 phases is the
# same on every run. A different count means the estimate or the ladder
# changed, which must be a deliberate, reviewed re-pin.
degs="$(echo "$gov" | sed -nE 's/^resilience:.* degradations=([0-9]+).*/\1/p')"
[ -n "$degs" ] && [ "$degs" -eq 22 ] \
    || { echo "ci: governor smoke applied ${degs:-no} degradations, expected exactly 22 — the byte accounting or the ladder drifted" >&2; exit 1; }
echo "governor smoke ok: $degs degradations, outcomes unchanged"

echo "== CLI governor smoke: pda solve under --mem-budget =="
# The fixture of tests/governor.rs through the release binary: q0
# proves in 2 iterations, q1-q3 are impossible after ~30 each. At 640
# KiB one query takes one eviction rung and every verdict line matches
# the unbudgeted run; at 8 KiB the three long queries walk all eight
# rungs and resolve as memory budget exceeded while q0 still proves.
# The rung counts follow from deterministic byte estimates, so they are
# pinned exactly. The shared-pool flag no longer exists: usage error.
cat > target/ci_gov.jay <<'EOF'
global g1, g2;
class C { field f; }
fn leak(a, b) { var r; if (*) { g1 = a; r = b; } else { r = a; } return r; }
fn main() {
    var a, b, c, d, e, h, p;
    a = new C; b = new C; c = new C; d = new C; e = new C;
    p = new C;
    h = leak(a, b);
    h = leak(h, c);
    h = leak(h, d);
    if (*) { g2 = e; }
    a.f = b; b.f = c; c.f = d; d.f = e;
    query q0: local p;
    query q1: local a;
    query q2: local e;
    query q3: local h;
}
EOF
verdicts() { grep -E '^q[0-9]+ \['; }
gsolve() { ./target/release/pda solve target/ci_gov.jay --jobs 2 "$@"; }
plain="$(gsolve)"
relief="$(gsolve --mem-budget 640k)"
echo "$relief"
diff <(echo "$plain" | verdicts) <(echo "$relief" | verdicts) \
    || { echo "ci: a 640k --mem-budget changed a verdict line" >&2; exit 1; }
echo "$relief" | grep -q '^batch: .* degradations=1 ' \
    || { echo "ci: a 640k --mem-budget did not apply exactly 1 rung" >&2; exit 1; }
starved="$(gsolve --mem-budget 8k)"
echo "$starved"
exhausted="$(echo "$starved" | grep -cE '^q[1-3] \[thread-escape\]: unresolved \(memory budget exceeded\)$' || true)"
echo "$starved" | grep -q '^q0 \[thread-escape\]: PROVEN' && [ "$exhausted" -eq 3 ] \
    || { echo "ci: an 8k --mem-budget gave the wrong verdicts" >&2; exit 1; }
echo "$starved" | grep -q '^batch: .* degradations=25 ' \
    || { echo "ci: an 8k --mem-budget did not apply exactly 25 rungs" >&2; exit 1; }
rc=0
gsolve --pool-budget 1m > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] \
    || { echo "ci: --pool-budget exited $rc, expected the usage error 2" >&2; exit 1; }
echo "CLI governor smoke ok: 640k keeps the verdicts with 1 rung, 8k exhausts q1-q3 with 25 rungs"

echo "== resilience smoke: batch under a 1 ms per-query deadline =="
# Every query must still produce a result (exit 0) and the starved
# deadline must surface as DeadlineExceeded rather than a hang or crash.
smoke="$(PDA_DEADLINE_MS=1 PDA_BENCH_OUT=target/ci_bench_starved.json ./target/release/batch)"
echo "$smoke"
echo "$smoke" | grep -Eq 'resilience: deadline_exceeded=[0-9]+ engine_faults=0' \
    || { echo "ci: resilience smoke missing its summary line" >&2; exit 1; }

echo "== daemon smoke: pda-serve supervision, quarantine, and graceful drain =="
# A live daemon must (a) keep serving after an injected worker panic —
# the fault comes back as a structured error and the cache generation is
# quarantined — and (b) exit 0 on SIGTERM with a valid journal behind.
cat > target/ci_serve.jay <<'EOF'
class C {}
fn main() {
    var a, b, c, d;
    a = null;
    b = a;
    c = null;
    d = new C;
    query qa: local b;
    query qb: local c;
    query qc: local d;
}
EOF
rm -f target/ci_serve.sock target/ci_serve_journal.jsonl
./target/release/pda serve target/ci_serve.jay --socket target/ci_serve.sock \
    --journal target/ci_serve_journal.jsonl --allow-inject \
    > target/ci_serve.log 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do [ -S target/ci_serve.sock ] && break; sleep 0.1; done
[ -S target/ci_serve.sock ] \
    || { echo "ci: daemon never bound its socket" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
req() { ./target/release/pda request target/ci_serve.sock "$1"; }
req '{"op":"health"}' | grep -q '"ready":"true"' \
    || { echo "ci: daemon health probe not ready" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
req '{"op":"solve","index":0,"inject":"panic"}' | grep -q '"error":"engine_fault"' \
    || { echo "ci: injected panic did not surface as a structured engine_fault" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
served="$(req '{"op":"solve","index":0}')"
echo "$served" | grep -q '"outcome":"proven"' \
    || { echo "ci: daemon stopped serving after an injected panic: $served" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
echo "$served" | grep -q '"generation":1' \
    || { echo "ci: injected panic did not quarantine the cache generation: $served" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" \
    || { echo "ci: daemon exited non-zero on SIGTERM (see target/ci_serve.log)" >&2; exit 1; }
grep -q '"kind":"pda-batch-checkpoint"' target/ci_serve_journal.jsonl \
    || { echo "ci: drained daemon left no valid journal header" >&2; exit 1; }
grep -q '"i":0,"outcome":"proven"' target/ci_serve_journal.jsonl \
    || { echo "ci: served verdict missing from the drain journal" >&2; exit 1; }
echo "daemon smoke ok: fault isolated, generation quarantined, drained 0 with a valid journal"

echo "== chaos smoke: seeded bench under a fixed fault plan =="
# Arm the deterministic fault plane for one full bench run: a panic in
# the BDD min-cost sweep, an I/O-class fault at the tenth BDD conjoin
# (both in the jobs=1 phase, which runs its queries inline in order, and
# both absorbed by the retry policy), and a 25ms stall while a cache slot
# is filling (a slow worker, not a failure). The run must produce
# outcome lines byte-identical to the clean golden file, and the
# resilience line must prove all three arms actually fired.
chaos="$(PDA_FAULT_PLAN='bdd.mincost@5=panic;cache.slot_fill@2=stall:25;bdd.conjoin@10=ioerr' \
    PDA_RETRY_FAULTS=2 PDA_BENCH_OUT=target/ci_bench_chaos.json ./target/release/batch)"
echo "$chaos" | grep -q 'fault plane armed from PDA_FAULT_PLAN' \
    || { echo "ci: chaos bench never armed the fault plane" >&2; exit 1; }
diff scripts/expected_batch_outcomes.txt \
    <(echo "$chaos" | outcome_lines) \
    || { echo "ci: chaos bench verdicts drifted from the golden outcomes" >&2; exit 1; }
chaos_line="$(echo "$chaos" | grep '^resilience:')"
echo "$chaos_line" | grep -Eq 'engine_faults=0 .* faults_injected=3 io_faults=1' \
    || { echo "ci: chaos bench fault accounting wrong: $chaos_line" >&2; exit 1; }
echo "$chaos_line" | grep -Eq ' retries=[1-9]' \
    || { echo "ci: chaos bench faults were never absorbed by retries: $chaos_line" >&2; exit 1; }
echo "chaos smoke ok: 3 injected faults absorbed, outcomes identical to the clean run"

echo "== chaos smoke: kill-at-journal-write daemon round-trip =="
# Life 1 is armed to abort the whole process at its second journal
# append — a hard crash mid-serve, not a graceful drain. The journal it
# leaves behind must be a loadable prefix holding the first verdict.
# Life 2 restarts clean on that journal with the watchdog and the retry
# ladder on: it must resume the verdict, absorb an injected panic on its
# first retry, reclaim an injected non-cooperative stall within the
# watchdog window without retrying it, keep serving afterwards, and
# drain 0.
rm -f target/ci_chaos.sock target/ci_chaos_journal.jsonl
./target/release/pda serve target/ci_serve.jay --socket target/ci_chaos.sock \
    --journal target/ci_chaos_journal.jsonl --fault-plan 'journal.append@2=abort' \
    > target/ci_chaos1.log 2>&1 &
chaos_pid=$!
for _ in $(seq 1 100); do [ -S target/ci_chaos.sock ] && break; sleep 0.1; done
[ -S target/ci_chaos.sock ] \
    || { echo "ci: chaos daemon never bound its socket" >&2; kill "$chaos_pid" 2>/dev/null; exit 1; }
creq() { ./target/release/pda request target/ci_chaos.sock "$1"; }
creq '{"op":"solve","index":0}' | grep -q '"outcome":"proven"' \
    || { echo "ci: chaos daemon failed its first solve" >&2; kill "$chaos_pid" 2>/dev/null; exit 1; }
if creq '{"op":"solve","index":1}' > /dev/null 2>&1; then
    echo "ci: chaos daemon answered past its armed abort point" >&2
    kill "$chaos_pid" 2>/dev/null
    exit 1
fi
if wait "$chaos_pid" 2>/dev/null; then
    echo "ci: chaos daemon exited cleanly instead of aborting at journal.append" >&2
    exit 1
fi
grep -q '"i":0,"outcome":"proven"' target/ci_chaos_journal.jsonl \
    || { echo "ci: crashed daemon left no loadable journal prefix" >&2; exit 1; }
rm -f target/ci_chaos.sock
./target/release/pda serve target/ci_serve.jay --socket target/ci_chaos.sock \
    --journal target/ci_chaos_journal.jsonl --allow-inject --watchdog-ms 200 \
    --retry-faults 1 > target/ci_chaos2.log 2>&1 &
chaos_pid=$!
for _ in $(seq 1 100); do [ -S target/ci_chaos.sock ] && break; sleep 0.1; done
[ -S target/ci_chaos.sock ] \
    || { echo "ci: restarted chaos daemon never bound its socket" >&2; kill "$chaos_pid" 2>/dev/null; exit 1; }
creq '{"op":"solve","index":0}' | grep -q '"resumed":"true"' \
    || { echo "ci: restarted daemon did not resume the crash-survivor verdict" >&2; kill "$chaos_pid" 2>/dev/null; exit 1; }
retried="$(creq '{"op":"solve","index":1,"inject":"panic"}')"
echo "$retried" | grep -q '"outcome":"proven"' && echo "$retried" | grep -q '"retries":1,' \
    || { echo "ci: retry ladder did not absorb the injected panic: $retried" >&2; kill "$chaos_pid" 2>/dev/null; exit 1; }
creq '{"op":"solve","index":2,"inject":"stall:2000"}' | grep -q '"error":"engine_stall"' \
    || { echo "ci: watchdog never reclaimed the injected stall" >&2; kill "$chaos_pid" 2>/dev/null; exit 1; }
creq '{"op":"solve","index":2}' | grep -q '"outcome":"proven"' \
    || { echo "ci: daemon stopped serving after a watchdog reclaim" >&2; kill "$chaos_pid" 2>/dev/null; exit 1; }
creq '{"op":"health"}' | grep -q '"watchdog_fired":1' \
    || { echo "ci: health does not account the watchdog firing" >&2; kill "$chaos_pid" 2>/dev/null; exit 1; }
kill -TERM "$chaos_pid"
wait "$chaos_pid" \
    || { echo "ci: restarted chaos daemon exited non-zero on SIGTERM (see target/ci_chaos2.log)" >&2; exit 1; }
grep -q 'watchdog=1' target/ci_chaos2.log \
    || { echo "ci: drain summary missing the watchdog count" >&2; exit 1; }
echo "chaos smoke ok: crash at journal.append left a resumable journal; retry absorbed a panic; watchdog reclaimed a frozen solve"

echo "== scaling smoke: seeded scale bench, jobs 1 vs 8 =="
# The scale bin replays the hedc batch at jobs=1 and jobs=8 (grid capped
# for CI speed) and self-asserts per-query outcome identity against the
# jobs=1 reference (a panic exits non-zero). CI gates on the two
# deterministic facts behind the meta-inflation guard rather than on a
# wall-clock ratio: (1) no grid point uses more workers than the host
# has cores — oversubscribed workers time-sharing a core are what
# stretched every backward-phase span — and (2) every grid point
# executes the same forward runs (equal cache misses), since the batch
# shares one cache at any job count. The meta ratio is printed for the
# record; it swings with host load and is not asserted.
scale_out="$(PDA_JOBS_GRID=1,8 PDA_BENCH_OUT=target/ci_scale.json ./target/release/scale)"
echo "$scale_out"
echo "$scale_out" | grep -q 'outcomes_identical=true' \
    || { echo "ci: scaling smoke missing its summary line" >&2; exit 1; }
meta_ratio="$(echo "$scale_out" | sed -nE 's/^scale: .*meta_ratio_j8_vs_j1=([0-9.]+).*/\1/p')"
grep -q '"outcomes_identical": true' target/ci_scale.json \
    || { echo "ci: BENCH_scale.json missing outcomes_identical" >&2; exit 1; }
grep -q '"jobs":8' target/ci_scale.json && grep -q '"jobs":1' target/ci_scale.json \
    || { echo "ci: BENCH_scale.json missing grid points" >&2; exit 1; }
cores="$(nproc)"
workers="$(grep -oE '"workers":[0-9]+' target/ci_scale.json | cut -d: -f2)"
[ -n "$workers" ] || { echo "ci: BENCH_scale.json records no worker counts" >&2; exit 1; }
for w in $workers; do
    [ "$w" -le "$cores" ] \
        || { echo "ci: a grid point used $w workers on a $cores-core host" >&2; exit 1; }
done
misses="$(grep -oE '"cache_misses":[0-9]+' target/ci_scale.json | cut -d: -f2 | sort -u)"
[ "$(echo "$misses" | wc -l)" -eq 1 ] && [ "${misses:-0}" -gt 0 ] \
    || { echo "ci: forward runs executed differ across grid points: $(echo $misses)" >&2; exit 1; }
echo "scaling smoke ok: outcomes identical, workers <= $cores, $misses forward runs at every point, meta ratio ${meta_ratio:-missing}x"

echo "ci: all checks passed"
