#!/usr/bin/env bash
# Tiered CI for the workspace. Hermetic: no network access required
# (all dependencies are path/vendored; .cargo/config.toml forces offline).
#
# Usage:
#   ci.sh                 run every stage (fmt build test lint race mcheck ft
#                         overlap multileader chaos smoke perf)
#   ci.sh STAGE [...]     run only the named stage(s), in the given order
#   ci.sh --quick         inner-loop subset: fmt + build + test + 1-seed race
#                         + 1-cell mcheck + 1-seed ft + overlap + 1-seed
#                         multileader + 1-seed chaos
#   ci.sh --list          print the stages with one-line descriptions
#
# Every run prints a per-stage wall-clock summary at exit, and a failing
# stage is named explicitly ("stage 'X' FAILED") so the log's last lines
# identify the culprit without scrolling.
#
# Stages:
#   fmt     cargo fmt --check
#   build   release build of the whole workspace
#   test    cargo test --workspace (includes the digest fixtures every
#           pool width and adversarial seed must reproduce, the
#           pool-width suites and the figure-golden regression tests)
#   lint    clippy, -D warnings (the workspace lint wall in Cargo.toml:
#           clippy::all + unsafe_op_in_unsafe_fn and the SAFETY-comment
#           requirement on every unsafe block), then rustdoc with
#           RUSTDOCFLAGS="-D warnings" (`cargo doc --workspace --no-deps`:
#           every intra-doc link resolves, none from public docs to a
#           private item)
#   race    happens-before race detector (MSIM_RACE=1, docs/race-detection.md):
#           the msim mutant-regression suite plus both conformance suites
#           with the detector armed — all collectives, all sync methods,
#           the full seed set; then the applications (Hy_BPMF, Hy_SUMMA, overlapped
#           Hy_SUMMA) must report clean and the Hy_BPMF mutant that
#           skips the fence before `write_my_block` must be caught.
#           Budget: vector-clock bookkeeping costs roughly 2x on
#           window-heavy suites; the whole stage is ~30 s on the CI
#           reference host, well under the test stage itself. `--quick`
#           keeps the stage on a 1-seed subset (MSIM_CONF_SEEDS=1).
#   mcheck  DPOR model checker (docs/model-checking.md): the mutant wall
#           (seeded envelope bugs — missing QUIESCE fence, reordered
#           flag release, dropped GO_ALL, schedule-divergent poll —
#           each must yield a shrunk certificate that replays
#           byte-identically from any base pool width, while
#           the corrected programs explore clean in exactly one
#           schedule), then `bench mcheck`'s full sweep (every Hy*
#           family x 3 sync methods, plus allgather and allreduce built
#           `with_leaders(.., 2)`, at 2x2 — a cell fails unless DPOR
#           proves exactly one schedule), gated by MCHECK_BUDGET_S.
#           `--quick` trims that sweep to one family x one sync
#           (`bench mcheck --quick`).
#   ft      fault-tolerance gate (docs/fault-tolerance.md): the kill-
#           matrix conformance suite (every collective family x every
#           victim rank x 3 sync methods x regular+irregular layouts x
#           seeds, Shrink policy, exact shrunk-world oracles), the
#           runtime detector/drop/retry suite, the BPMF/SUMMA app-level
#           recovery tests, one and two pool workers agreeing on a
#           leader failover, a timeout-storm
#           smoke (total blackout must surface as typed timeouts, not
#           hangs: a detection budget is stall time, spent only when no
#           rank can run, and never slept), and the recovery-latency
#           micro (`bench ft` writes a
#           temp artifact and checks it; the committed BENCH_ft.json must
#           pass the same check — its wall_s fields are host time, so CI
#           never rewrites it). Also
#           re-asserts the figure goldens and the 96-rank perf gate so
#           a *disarmed* run provably stays bit-identical: with no
#           FaultPlan the FT paths are never entered. `--quick` keeps
#           the matrix on a 1-seed subset (MSIM_FT_SEEDS=1).
#   overlap split-phase gate (docs/nonblocking.md): the iexecute
#           conformance suite (iexecute+wait bit-identical to execute
#           for every family x 3 sync methods x regular+irregular
#           layouts x seeds, pool-width-invariant in phantom mode, plus
#           the waitall/testany ordering properties), the app-level
#           overlap tests (SUMMA / CG / stencil overlapped variants
#           bitwise-match their blocking forms and beat them on virtual
#           time), and the overlap micro: `bench overlap` regenerates
#           the full artifact to /tmp (canonical round-trip + per-app win
#           bar enforced) and it must be byte-identical to the committed
#           BENCH_overlap.json (every field is virtual time).
#   multileader
#           k-leaders-per-node gate (docs/multileader.md). The leader
#           count is a constructor argument of the one hybrid handle
#           per collective, so the general walls (test / race /
#           overlap stages) already run k in {1,2,4}; this stage
#           adds the digest fixtures (every family x 3 sync methods x
#           k x 3 layouts, blocking and iexecute, and every flat
#           schedule x 3 layouts, dispatch and istart: results, clocks
#           and traces pinned line for line, at pool widths 1 and 2 and
#           under the adversarial seeds), what only k >= 2 can show
#           (uneven [2,3,4] nodes x seeds x pool widths 1 and 2, striped
#           bridge traffic, race-detector-armed cooperative-fill
#           rounds), then the multileader micro: `bench multileader`
#           regenerates the full artifact to /tmp (canonical
#           round-trip + "k > 1 strictly wins somewhere" + per-cell
#           estimator agreement enforced) and it must be
#           byte-identical to the committed BENCH_multileader.json
#           (every field is virtual time). `--quick` keeps the wall
#           on a 1-seed subset (MSIM_CONF_SEEDS=1).
#   chaos   chaos soak (docs/fault-tolerance.md): seeded randomized
#           fault campaigns (kill→shrink→grow→kill again, correlated
#           node kills, a network partition blackholing the bridge
#           during recovery then healing, straggler-masked heartbeats)
#           driven through `run_elastic` and checked by an invariant
#           oracle after every campaign — per-round result agreement,
#           membership decodes to actives minus reported-dead plus
#           pool recruits, zero leaked windows / nonblocking interests,
#           and byte-identical per-seed replay under a seeded
#           adversarial schedule. Also runs the
#           `--mutant-check` sensitivity probe: a deliberately armed
#           stale-grow bug (survivors keep the pre-grow communicator)
#           must be caught by the checker, proving the oracle is not
#           vacuous. Budgeted by CHAOS_BUDGET_S; `--quick` runs 1 seed.
#   smoke   pinned-seed fault-injection, both autotune tables regenerated
#           and `cmp`-equal to the committed results/tuning/*.json, and
#           `bench results --check`: every results/*.txt re-rendered (all
#           concurrently) and byte-identical to the committed file (each
#           prints only virtual time and schedule-independent counts);
#           every stale file is named
#   perf    wall-clock gate: `bench scale --ranks 96` (pooled ladder)
#           and `bench scale --exec events --ranks 65536` (events
#           ladder: one worker, 64 KiB stacks) each fail if measured
#           wall-clock exceeds
#           their stored budget by >25%; memory gate: the 65536-rank
#           point also fails if its peak RSS exceeds its stored budget
#           (no slack); the committed BENCH_scale.json
#           must pass the artifact check (canonical JSON, executor
#           counters). Also asserts the detector-off artifact is
#           unaffected by the race feature.
#
# Every CI invocation of an artifact command passes `--out /tmp/...`:
# without it the command rewrites the committed file (a lesson learned:
# a default-path smoke once clobbered the committed sweep down to one
# 96-rank point). Every write is checked on the spot.
#
# Perf budget bump procedure: the stored budgets below are wall-clock
# (seconds) of `scale --ranks 96` (SCALE_BUDGET_S, pooled) and
# `scale --exec events --ranks 65536` (EVENTS_BUDGET_S, events ladder) on
# the CI reference host, with headroom for load noise. If a gate fails
# and the slowdown is *intended* (e.g. the simulator gained a feature
# that costs real time), re-measure with
#   cargo run --release -p bench -- scale --ranks 96 --out /tmp/scale.json
#   cargo run --release -p bench -- scale --exec events --ranks 65536 --out /tmp/scale.json
# round up generously, and update the budget in the same PR — never
# bump it to paper over an unexplained regression. The procedure runs
# downward too: a PR that makes a gated run faster re-measures and
# lowers the budget in the same PR, or the gate stops catching a slide
# back to the old cost.
#
# Memory budget bump procedure: EVENTS_RSS_BUDGET_MIB is the peak
# resident memory (MiB, `peak_rss_mib` of the point) allowed to
# `scale --exec events --ranks 65536`. Memory does not vary with host
# load the way wall-clock does (two runs agree to within 1 MiB), so the
# gate has no slack: the budget is the limit. If the gate fails and the
# growth is *intended*, re-measure with
#   cargo run --release -p bench -- scale --exec events --ranks 65536 --out /tmp/scale.json
# and set the budget between the new reading and the next cost you want
# the gate to catch, in the same PR — never bump it to paper over
# unexplained growth. A PR that shrinks the point lowers the budget the
# same way, so a slide back to the old footprint trips the gate. The full sweep
# (`bench scale` with no flags: pooled 48→4096 + events 8192→262144)
# regenerates the whole BENCH_scale.json trajectory and is worth
# re-running on executor changes (crates/bench/tests/artifact.rs pins
# its shape).
set -Eeuo pipefail
cd "$(dirname "$0")"

# --- failure attribution + per-stage timing ------------------------------
# `set -E` propagates the ERR trap into functions, so a failing command
# anywhere inside a stage names that stage before bash unwinds. The EXIT
# trap prints the wall-clock summary for every stage that completed —
# also on failure, so a slow-then-broken run still shows where the time
# went.
CURRENT_STAGE=""
DONE_STAGES=()
DONE_TIMES=()

on_err() {
    local status=$?
    if [ -n "$CURRENT_STAGE" ]; then
        echo "ci: stage '$CURRENT_STAGE' FAILED (exit $status)" >&2
    else
        echo "ci: FAILED (exit $status) outside any stage" >&2
    fi
}

on_exit() {
    if [ "${#DONE_STAGES[@]}" -gt 0 ]; then
        echo "ci: --- stage timing ---"
        local i total=0
        for i in "${!DONE_STAGES[@]}"; do
            printf 'ci: %-12s %5ss\n' "${DONE_STAGES[$i]}" "${DONE_TIMES[$i]}"
            total=$((total + DONE_TIMES[i]))
        done
        printf 'ci: %-12s %5ss\n' "total" "$total"
    fi
}

trap on_err ERR
trap on_exit EXIT

# Stored wall-clock budget (seconds) for the perf stage's 96-rank smoke.
# Measured ~0.01 s on the reference host; 1.0 s keeps the gate immune to
# load noise while still catching order-of-magnitude regressions (e.g.
# a syscall storm in the pool).
SCALE_BUDGET_S=1.0

# Stored wall-clock budget (seconds) for the 65536-rank `--exec events`
# point (perf stage), single thread. Measured 1.25-1.36 s unpinned on a
# 2-core Xeon, four runs alternating with the commit before the
# key-matched mailbox wakes (1.29-1.38 s). Where the time goes, from
# timing the rank program cut off after each step, re-measured with the
# packet handoff, stall-started wait timeouts and test-and-set mailbox
# lock: eight runs per step, `taskset -c 0`, alternating with the
# commit before them on a noisy 2-core host, minimum (median) per step:
# launch + 65536 fresh stacks 0.15 (0.16) s, unchanged (0.15 (0.16)
# before; one stack page per rank since the canary moved into its
# neighbour's top page, 0.30-0.46 s when it had a page of its own),
# hierarchy + HybridComm 0.20 (0.24) s (0.25 (0.29) before), window
# allocation 0.05 (0.10) s (0.09 (0.11)), the world barrier before the
# timed region 0.46 (0.63) s (0.48 (0.57) — 16 rounds x 65536 messages,
# every one to a rank whose stack and mailbox are cold: node affinity
# cannot help a global barrier, and cheaper locks and parks do not show
# next to those misses), the timed allgather 0.31 (0.31) s (0.41
# (0.60) before; the cyclic node sweep of the ready queue keeps the
# leaders' bridge ring in node order; at 4096 ranks, where the rest
# fits in cache, the allgather is most of the pass).
# The budget stays at 8 s: what this point gained is inside the host's
# own spread, 8 s absorbs load noise and a slower host, the 25% slack
# puts the hard limit at 10 s, and a slide back to quadratic set-up
# (11.8 s when rendezvous deposits were scanned) still trips it.
EVENTS_BUDGET_S=8.0

# Stored peak-RSS budget (MiB) for the same 65536-rank events point
# (perf stage; bump procedure in the header). Measured 378.5-378.6 MiB
# (a `taskset -c 0` sweep and the point alone) with each rank's stack
# canary in its neighbour's top stack page and the mailboxes matching
# through an open-addressed table over a packet slab (a 96 B mailbox);
# the commit before the table read 391.1-391.2 MiB the same way, and
# the layout that gave every canary a page of its own 665.0-665.1 MiB.
# 512 sits between the two layouts, so a slide back to two pages per
# rank (+256 MiB at this point) trips the gate.
EVENTS_RSS_BUDGET_MIB=512

# Stored wall-clock budget (seconds) for the mcheck stage's exhaustive
# DPOR sweep (`mcheck --family all`: 9 families x 3 sync methods, real
# data, race detector armed). Measured ~1 s on the reference host; 30 s
# keeps the gate well clear of load noise while still catching a search
# blow-up (e.g. a lost happens-before edge turning one schedule into
# thousands). Bump procedure: if the sweep legitimately grows (a new
# family, a bigger default config), re-measure with
#   cargo run --release -p bench -- mcheck --family all
# round up generously, and update this in the same PR — never bump it
# to paper over an unexplained schedule-count regression (the sweep
# itself fails any cell that explores more than one schedule).
MCHECK_BUDGET_S=30

# The one harness binary (crates/bench): `bench <command> [args]`.
bench() {
    cargo run --release -p bench -- "$@"
}

stage_fmt() {
    cargo fmt --check
}

stage_build() {
    cargo build --release
}

stage_test() {
    cargo test --workspace -q
}

stage_lint() {
    cargo clippy --workspace --all-targets -- -D warnings
    # Rustdoc wall: unresolved or ambiguous intra-doc links (e.g. one
    # left pointing at a deleted function) and links from public docs to
    # private items fail the stage. About 5 s warm.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

# Seed subset for the race stage's conformance passes: the full eight in
# a normal run, one in `--quick` (set by the --quick branch below).
RACE_SEEDS=8

stage_race() {
    # Detector sensitivity: the seeded mutants must fire, clean code must
    # not (crates/msim/tests/race.rs pins both, at pool widths 1 and 2).
    cargo test -q -p msim --test race
    # Zero false positives across the full collective matrix: both
    # conformance suites (all collectives x seeds x regular/irregular
    # clusters, hybrid suite additionally x 3 sync methods) plus the
    # detector-specific hybrid suite, all with the detector armed.
    MSIM_RACE=1 MSIM_CONF_SEEDS="$RACE_SEEDS" \
        cargo test -q -p collectives --test conformance
    MSIM_RACE=1 MSIM_CONF_SEEDS="$RACE_SEEDS" \
        cargo test -q -p hmpi-core --test conformance --test iconformance --test race_detect
    # The applications under the detector (it is armed by the tests'
    # own SimConfig): Hy_BPMF, Hy_SUMMA and the overlapped Hy_SUMMA
    # read their node-shared windows in place and must report clean,
    # and Hy_BPMF without the fence before `write_my_block` must not.
    cargo test -q -p bpmf -p summa --lib race_detector
}

# Arguments for the mcheck stage's `bench mcheck` sweep: the full 9-family x
# 3-sync grid in a normal run, one family x one sync in `--quick`.
MCHECK_ARGS=(--family all)

stage_mcheck() {
    # Mutant wall: each seeded envelope bug must produce a shrunk
    # replayable certificate (byte-identical from pool widths 1 and 2),
    # the corrected programs must explore
    # clean in exactly one schedule, DPOR must beat naive enumeration
    # by >= 10x, and the committed certificate artifact must keep
    # replaying (crates/msim/tests/mcheck.rs pins all of it).
    cargo test -q -p msim --test mcheck
    # The full DPOR sweep through `bench mcheck`: every Hy* family x 3
    # sync methods, plus the two-leader envelope (allgather and allreduce
    # built `with_leaders(.., 2)`), real data + armed race detector at
    # 2x2. The exit is nonzero on any violation and on any cell that
    # explores more than one schedule; budget-gated — see the header
    # for the bump procedure. `bench` is built first, so the budget
    # times the sweep alone, not a rebuild.
    cargo build --release -p bench
    local t0=$SECONDS
    bench mcheck "${MCHECK_ARGS[@]}"
    local dt=$((SECONDS - t0))
    if [ "$dt" -gt "$MCHECK_BUDGET_S" ]; then
        echo "ci: mcheck sweep took ${dt}s, budget ${MCHECK_BUDGET_S}s (bump procedure in header)" >&2
        return 1
    fi
}

# Seed subset for the ft stage's kill matrix: four seeds in a normal
# run, one in `--quick` (set by the --quick branch below).
FT_SEEDS=4

stage_ft() {
    # Kill-matrix conformance under the Shrink policy: allgatherv /
    # allgather / bcast / allreduce each complete with the exact
    # shrunk-world result for any single victim, across sync methods,
    # layouts (incl. irregular [1,3,4]) and seeds. Also pins recovery
    # determinism (same-seed repeats and pool widths 1 and 2 agree byte
    # for byte), the Abort and Retry policies, and the recovery trace.
    MSIM_FT_SEEDS="$FT_SEEDS" cargo test -q -p hmpi-core --test ft
    # Runtime layer: a death wakes the parked waiter (RankFailed within
    # three resumes), the timeout-storm smoke (a drop_prob=1.0 blackout
    # must produce a typed Timeout promptly — the same error, clocks and
    # trace at pool widths 1 and 2 whether the detection budget is 1 us
    # or 10 s, since it is stall time and never slept), seeded drop
    # determinism with transport retry, heartbeat piggybacking,
    # agree/shrink semantics.
    cargo test -q -p msim --test ft
    # App-level recovery: BPMF reconverges to the serial RMSE and SUMMA
    # recomputes on the shrunk grid after a mid-run kill; one and two
    # pool workers agree on a leader-failover run.
    cargo test -q -p bpmf ft_bpmf
    cargo test -q -p summa ft_summa
    cargo test -q -p msim --test pooled widths_agree_on_leader_failover
    # Recovery-latency micro: a temp artifact, checked as it is written
    # (canonical round-trip, both ladders present). Its wall_s fields are
    # host time, so the committed BENCH_ft.json is checked, not compared.
    bench ft --out /tmp/ci_ft.json
    bench ft --verify BENCH_ft.json
    # Disarmed bit-identity: with no FaultPlan the FT machinery must be
    # invisible — the figure goldens and the 96-rank perf gate (both
    # fault-free runs) must hold exactly as before this layer existed.
    cargo test -q -p bench --test regression
    bench scale --ranks 96 --out /tmp/ci_scale_ft.json --budget-s "$SCALE_BUDGET_S"
}

# Seed subset for the overlap stage's iexecute conformance pass: the
# full eight in a normal run, one in `--quick`.
OVERLAP_SEEDS=8

stage_overlap() {
    # The split-phase wall: iexecute+wait ≡ execute bit-for-bit (results,
    # clocks, Req-marker-stripped traces) for every family x 3 sync
    # methods x regular+irregular layouts x seeds, one and two pool
    # workers bit-identical in phantom mode, and the deterministic waitall /
    # testany ordering semantics.
    MSIM_CONF_SEEDS="$OVERLAP_SEEDS" cargo test -q -p hmpi-core --test iconformance
    # App-level overlap: the overlapped SUMMA / CG / stencil kernels are
    # bitwise-identical to their blocking forms and strictly faster in
    # virtual time on the bench ladder.
    cargo test -q -p summa overlap
    cargo test -q -p cg overlap
    cargo test -q -p stencil overlap
    # Overlap micro: the full sweep into a temp artifact, checked as it
    # is written (canonical round-trip + every app must win somewhere)...
    bench overlap --out /tmp/ci_overlap.json
    # ...and byte-identical to the committed BENCH_overlap.json: every
    # field is virtual time, so any difference is a behaviour change (or
    # a hand-edit, or a stale regeneration).
    cmp /tmp/ci_overlap.json BENCH_overlap.json
}

# Seed subset for the multileader stage's conformance wall: the full
# eight in a normal run, one in `--quick`.
ML_SEEDS=8

stage_multileader() {
    # The pinned numbers: allgather(v) / bcast / allreduce at k in
    # {1, 2, 4}, alltoall(v), reduce_scatter, gather and scatter, all 3
    # sync methods, 3 layouts, blocking and iexecute — results, clocks
    # and traces must reproduce crates/core/tests/fixtures/hybrid_digests.txt
    # on one pool worker, on two, and on two under every adversarial
    # schedule seed.
    MSIM_CONF_SEEDS="$ML_SEEDS" cargo test -q -p hmpi-core --test digests
    # The same wall for the flat schedules the hybrid bridges build on:
    # every applicable flat schedule of every family with a dispatch,
    # 3 layouts, dispatch and istart + wait, against
    # crates/collectives/tests/fixtures/flat_digests.txt.
    MSIM_CONF_SEEDS="$ML_SEEDS" cargo test -q -p collectives --test digests
    # What only k >= 2 can show (the k axis itself rides the general
    # walls): uneven [2,3,4] nodes across the fuzz seeds with one and
    # two pool workers bit-identical, striped bridge traffic, and repeated
    # cooperative-fill rounds with the race detector armed.
    MSIM_CONF_SEEDS="$ML_SEEDS" cargo test -q -p hmpi-core --test multileader
    # Multileader micro: the full sweep into a temp artifact, checked as
    # it is written (canonical round-trip, at least one (ppn, size) cell
    # where k > 1 strictly beats k = 1, and per-cell agreement between
    # the registry estimator and the measured winner)...
    bench multileader --out /tmp/ci_multileader.json
    # ...and byte-identical to the committed BENCH_multileader.json:
    # every field is virtual time, so any difference is a behaviour
    # change (or a hand-edit, or a stale regeneration).
    cmp /tmp/ci_multileader.json BENCH_multileader.json
}

# Seed count and wall-clock budget (seconds) for the chaos stage's
# campaign sweep. 24 seeds run each of the 12 flavour x leader-policy
# pairs twice (flavour = seed % 4, leaders = seed % 3), every campaign
# replayed under an adversarial schedule; the sweep measures about
# 0.25 s on a 2-core host. The budget only exists to stop a runaway
# campaign (e.g. a recovery livelock burning its retry ladder) from
# stalling CI — the harness finishes the campaign in flight and stops
# early when the budget is exhausted.
CHAOS_SEEDS=24
CHAOS_BUDGET_S="${CHAOS_BUDGET_S:-60}"

stage_chaos() {
    # Seeded fault campaigns against the elastic-recovery stack, every
    # one checked by the invariant oracle (agreement, membership
    # transitions, leak accounting) and replayed byte-identically under
    # a seeded adversarial schedule (determinism).
    bench chaos --seeds "$CHAOS_SEEDS" --budget "$CHAOS_BUDGET_S"
    # Sensitivity probe: the stale-grow mutant must be *caught* — a
    # clean pass here would mean the oracle checks nothing.
    bench chaos --mutant-check
}

stage_smoke() {
    # Pinned-seed fault-injection smoke run: reproducible clocks/trace,
    # oracle-exact data, injected kill surfaced (see docs/testing.md).
    cargo run --release --example fault_injection -- 42

    # Autotune goldens (docs/tuning.md): the offline sweep for each
    # preset must produce a non-empty table that round-trips the
    # canonical tuning-table schema (the SelectionPolicy::Table loader),
    # checked as it is written, and matches the committed table exactly.
    for preset in cray_aries nec_infiniband; do
        bench tune --cluster "$preset" --out "/tmp/ci_tuning_$preset.json"
        cmp "/tmp/ci_tuning_$preset.json" "results/tuning/$preset.json"
    done

    # Every committed results/*.txt re-rendered and compared byte for
    # byte (two once went stale unnoticed: fig12 on all six rows,
    # trace_report 13 lines short). Each prints only virtual times and
    # schedule-independent counts; every stale file is named.
    bench results --check
}

stage_perf() {
    # Pinned-seed wall-clock smoke on the pooled executor (96 ranks =
    # 4 nodes x 24 ppn, the paper's smallest multi-node scale). Writes
    # a temp artifact, checks it as it is written, and enforces the
    # budget (see header for the bump procedure).
    bench scale --ranks 96 --out /tmp/ci_scale_perf.json --budget-s "$SCALE_BUDGET_S"
    # The same smoke with the race detector requested must stay inside
    # the same wall-clock budget: `scale` runs in phantom data mode,
    # where the detector is disarmed by design (docs/race-detection.md),
    # so MSIM_RACE=1 must be a no-op for both timing and the artifact.
    MSIM_RACE=1 bench scale --ranks 96 --out /tmp/ci_scale_perf_race.json \
        --budget-s "$SCALE_BUDGET_S"
    # The large-rank events-ladder point: 65536 phantom ranks on the
    # launching thread, its own wall-clock and memory budgets
    # (EVENTS_BUDGET_S, EVENTS_RSS_BUDGET_MIB — see header). Temp
    # artifact: CI never touches the committed BENCH_scale.json.
    bench scale --exec events --ranks 65536 --out /tmp/ci_scale_perf_events.json \
        --budget-s "$EVENTS_BUDGET_S" --rss-budget-mib "$EVENTS_RSS_BUDGET_MIB"
    # Belt and braces: the committed artifact must pass the same check
    # (this is what guards hand-edited or clobbered artifacts;
    # crates/bench/tests/artifact.rs pins its shape).
    bench scale --verify BENCH_scale.json
}

run_stage() {
    local name="$1"
    CURRENT_STAGE="$name"
    echo "ci: === stage: $name ==="
    local t0=$SECONDS
    "stage_$name"
    local dt=$((SECONDS - t0))
    DONE_STAGES+=("$name")
    DONE_TIMES+=("$dt")
    CURRENT_STAGE=""
    echo "ci: === stage $name OK (${dt}s) ==="
}

ALL_STAGES=(fmt build test lint race mcheck ft overlap multileader chaos smoke perf)

# One-line description per stage, for `--list` (the header comment has
# the long form).
describe_stage() {
    case "$1" in
    fmt) echo "cargo fmt --check" ;;
    build) echo "release build of the whole workspace" ;;
    test) echo "cargo test --workspace (digest fixture at every width + figure goldens)" ;;
    lint) echo "clippy wall + rustdoc wall, -D warnings" ;;
    race) echo "happens-before race detector: mutants + armed conformance suites" ;;
    mcheck) echo "DPOR model checker: mutant wall + exhaustive Hy* sweep (1 and 2 leaders)" ;;
    ft) echo "fault tolerance: kill matrix, runtime retry, app recovery, BENCH_ft checked" ;;
    overlap) echo "split-phase: iexecute wall, app overlap wins, BENCH_overlap byte-identical" ;;
    multileader) echo "leader count: hybrid and flat digest fixtures, uneven-node wall, BENCH_multileader byte-identical" ;;
    chaos) echo "chaos soak: seeded fault campaigns + invariant oracle + mutant probe" ;;
    smoke) echo "pinned-seed fault injection + both tuning tables cmp + every results/*.txt cmp" ;;
    perf) echo "wall-clock budgets (96-rank pooled, 65536-rank events ladder), 65536-rank RSS budget, BENCH_scale" ;;
    *) echo "?" ;;
    esac
}

if [ "$#" -eq 0 ]; then
    stages=("${ALL_STAGES[@]}")
elif [ "$1" = "--list" ]; then
    for s in "${ALL_STAGES[@]}"; do
        printf '%-12s %s\n' "$s" "$(describe_stage "$s")"
    done
    trap - EXIT
    exit 0
elif [ "$1" = "--quick" ]; then
    # The race, ft, overlap, and multileader stages ride along on 1-seed
    # subsets so the inner loop still exercises the detector, the kill
    # matrix, the split-phase gate, and the k-leader wall without the
    # full seed sweeps.
    RACE_SEEDS=1
    FT_SEEDS=1
    OVERLAP_SEEDS=1
    ML_SEEDS=1
    CHAOS_SEEDS=1
    MCHECK_ARGS=(--quick)
    stages=(fmt build test race mcheck ft overlap multileader chaos)
else
    stages=("$@")
    for s in "${stages[@]}"; do
        case "$s" in
        fmt | build | test | lint | race | mcheck | ft | overlap | multileader | chaos | smoke | perf) ;;
        *)
            echo "ci: unknown stage '$s' (stages: ${ALL_STAGES[*]}, or --quick / --list)" >&2
            exit 2
            ;;
        esac
    done
fi

for s in "${stages[@]}"; do
    run_stage "$s"
done

echo "ci: all green (${stages[*]})"
