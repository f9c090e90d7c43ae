#!/usr/bin/env bash
# Concurrency-correctness gate for musuite.
#
# Builds and runs the tier-1 ctest suite under four configurations:
#
#   1. -Werror release build            (warning-clean tree)
#      + bench/micro_rpc smoke -> BENCH_rpc.json (local run artifact)
#      + bench/overload_storm sim smoke -> BENCH_overload.json (goodput)
#        and its real-TCP smoke (relation gates only, no file kept)
#      + bench/flash_crowd smoke (multi-phase real-mode load, no loss)
#      + bench/dag_storm smoke -> BENCH_dag.json (deep-DAG goodput)
#      + bench/chaos_storm smoke -> BENCH_chaos.json (gray failures)
#        (the three sim JSON files byte-identical to the committed
#        copies, or the gate fails)
#      + fig09 / fig10 / fig19 sim-mode paper claims (PASS/FAIL,
#        computed) -> BENCH_fig09.json / BENCH_fig10.json /
#        BENCH_fig19.json (sim tables, also byte-identical to the
#        committed copies)
#      + tools/mulint over src/ (lock-rank, raw-sync, guarded-by,
#        thread-role, bad-pragma, clock-seam, lock-across-blocking,
#        counter-registry, stale-pragma and dangling-capture; see
#        DESIGN.md "Static analysis: mulint") with a runtime budget,
#        archiving mulint_findings.json and diffing it against the committed
#        tools/mulint/baseline.json (lost findings fail the gate)
#      + deterministic sim replay suite under 8 distinct seeds
#   2. MUSUITE_DEBUG_SYNC debug build   (lock-rank + thread-role checks)
#      + dag / chaos / overload storm replays, byte-compared to the
#        commit
#   3. ThreadSanitizer                  (data races, lock-order inversions)
#      + rpc_features_test repeated 5x (Channel deadline timer vs TCP
#        completion thread)
#      + bench/fault_storm short run (inline leaf handlers on poller
#        threads; killLeaf on a leaf with live connections)
#   4. AddressSanitizer + UBSan         (memory errors, undefined behavior)
#
# plus, when clang tooling is on PATH:
#
#   5. clang++ -Wthread-safety syntax-only pass over src/
#   6. clang-tidy over src/ using .clang-tidy
#
# Stages 5-6 are skipped (with a notice) when clang/clang-tidy are not
# installed, so the script is still a complete dynamic gate on a
# gcc-only box.
#
# Usage: tools/check.sh [--quick]
#   --quick  stages 1-2 only (no sanitizer builds)

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

jobs="$(nproc 2>/dev/null || echo 2)"
quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

failures=()

banner() {
    printf '\n==== %s ====\n' "$1"
}

run_stage() {
    # run_stage <name> <build-dir> <cmake-args...>
    local name="$1" dir="$2"
    shift 2
    banner "$name: configure + build"
    mkdir -p "$dir"
    if ! cmake -S "$repo_root" -B "$dir" "$@" \
            >"$dir/configure.log" 2>&1; then
        echo "CONFIGURE FAILED (see $dir/configure.log)"
        failures+=("$name: configure")
        return 0
    fi
    if ! cmake --build "$dir" -j "$jobs" >"$dir/build.log" 2>&1; then
        grep -E 'error|warning' "$dir/build.log" | head -40 || true
        echo "BUILD FAILED (see $dir/build.log)"
        failures+=("$name: build")
        return 0
    fi
    # Even a successful -Werror-less build must be warning-clean.
    if grep -qE ' warning: ' "$dir/build.log"; then
        grep -E ' warning: ' "$dir/build.log" | head -20
        failures+=("$name: warnings")
    fi
    banner "$name: ctest -L tier1"
    if ! ctest --test-dir "$dir" -L tier1 --output-on-failure; then
        failures+=("$name: tests")
    fi
}

# ---- stage 1: -Werror release build --------------------------------------
run_stage "werror" build-check-werror \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMUSUITE_WERROR=ON

# ---- stage 1b: micro_rpc bench smoke -------------------------------------
# Fixed short workload against the werror build; the stage fails when
# the smoke does. It writes BENCH_rpc.json (round-trip ns, pipelined
# QPS, syscalls/request) as a gitignored local artifact: one noisy
# sample per run, not a committed trajectory. ~1s.
banner "bench smoke: micro_rpc"
if cmake --build build-check-werror --target micro_rpc -j "$jobs" \
        >>build-check-werror/build.log 2>&1 \
        && build-check-werror/bench/micro_rpc \
            --smoke-json="$repo_root/BENCH_rpc.json"; then
    :
else
    echo "BENCH SMOKE FAILED"
    failures+=("bench-smoke: micro_rpc")
fi

# ---- stage 1c: overload_storm bench smoke --------------------------------
# Goodput-under-saturation storm (vanilla vs controlled at 0.5x/1x/2x of
# peak) against the werror build, twice. The virtual-time run emits
# BENCH_overload.json: byte-reproducible under the default seed, so any
# difference from the committed copy is a behaviour change. The
# real-TCP run is the transport check; real time on a loaded box skews
# absolute numbers, so it gates only wide-margin relations (controlled
# 2x goodput beats vanilla 2x, ~47% vs ~2%; controlled 1x fails, not
# sheds, under 8% of its load, ~1-3%) and keeps its JSON in the build
# tree. ~4s.
banner "bench smoke: overload_storm"
if cmake --build build-check-werror --target overload_storm -j "$jobs" \
        >>build-check-werror/build.log 2>&1 \
        && build-check-werror/bench/overload_storm \
            --smoke-json="$repo_root/BENCH_overload.json"; then
    if ! git diff --exit-code -- BENCH_overload.json; then
        echo "BENCH_overload.json DIFFERS FROM THE COMMITTED COPY"
        failures+=("bench-smoke: overload_storm output changed")
    fi
else
    echo "BENCH SMOKE FAILED"
    failures+=("bench-smoke: overload_storm")
fi
if ! build-check-werror/bench/overload_storm --real \
        --smoke-json=build-check-werror/BENCH_overload_real.json; then
    echo "BENCH SMOKE FAILED"
    failures+=("bench-smoke: overload_storm --real")
fi

# ---- stage 1c1: flash_crowd bench smoke ----------------------------------
# Baseline -> 6x surge -> recovery against a real Router deployment on
# the werror build: the one multi-phase real-mode open-loop user. Its
# exit gate is weak on purpose: it fails only when a phase loses a
# request (issued != completed + errors), never on latency. ~1s.
banner "bench smoke: flash_crowd"
if cmake --build build-check-werror --target flash_crowd -j "$jobs" \
        >>build-check-werror/build.log 2>&1 \
        && build-check-werror/bench/flash_crowd \
            --baseline=150 --phase-ms=300; then
    :
else
    echo "BENCH SMOKE FAILED"
    failures+=("bench-smoke: flash_crowd")
fi

# ---- stage 1c2: dag_storm bench smoke ------------------------------------
# Shortened deep-DAG storm (3-deep spec-built topology, 40 sim hosts)
# against the werror build; emits BENCH_dag.json. Runs in virtual time,
# so its gates are exact: every arrival completes once, nothing outlives
# the root deadline, sheds carry pacing hints, zero retry amplification.
banner "bench smoke: dag_storm"
if cmake --build build-check-werror --target dag_storm -j "$jobs" \
        >>build-check-werror/build.log 2>&1 \
        && build-check-werror/bench/dag_storm \
            --smoke-json="$repo_root/BENCH_dag.json"; then
    # Virtual time makes the run byte-reproducible under the default
    # seed: any difference from the committed copy is a behaviour
    # change, never noise. Stage the new file when the change is
    # intended.
    if ! git diff --exit-code -- BENCH_dag.json; then
        echo "BENCH_dag.json DIFFERS FROM THE COMMITTED COPY"
        failures+=("bench-smoke: dag_storm output changed")
    fi
else
    echo "BENCH SMOKE FAILED"
    failures+=("bench-smoke: dag_storm")
fi

# ---- stage 1c3: chaos_storm bench smoke ----------------------------------
# Gray-failure campaign (zombie / slow-ramp / flap / partial partition,
# each with and without outlier ejection) on the grayDag topology;
# emits BENCH_chaos.json. Virtual time again, so the gates are exact:
# every arrival completes exactly once, no leaked timers, ejection
# detects within the fault window, goodput recovers within the bound,
# and the eject arm beats the baseline on settled-fault-window p99 for
# the shapes where ejection should win (zombie, slow-ramp).
banner "bench smoke: chaos_storm"
if cmake --build build-check-werror --target chaos_storm -j "$jobs" \
        >>build-check-werror/build.log 2>&1 \
        && build-check-werror/bench/chaos_storm \
            --smoke-json="$repo_root/BENCH_chaos.json"; then
    # Byte-reproducible like dag_storm: a diff is a behaviour change.
    if ! git diff --exit-code -- BENCH_chaos.json; then
        echo "BENCH_chaos.json DIFFERS FROM THE COMMITTED COPY"
        failures+=("bench-smoke: chaos_storm output changed")
    fi
else
    echo "BENCH SMOKE FAILED"
    failures+=("bench-smoke: chaos_storm")
fi

# ---- stage 1c4: sim-mode figure claims -----------------------------------
# fig09_saturation, fig10_latency and fig19_cs_hitm compute the paper's
# claims from their own sim-mode tables (saturation band and ordering;
# median higher at 100 than at 1K QPS; cs and hitm rising with load,
# hitm above cs) and exit nonzero when a gated one fails. Each also
# writes its sim table to BENCH_fig09.json / BENCH_fig10.json /
# BENCH_fig19.json; the sim is deterministic, so a FAIL or any
# difference from the committed copy is a behaviour change. ~7s.
banner "figure claims: fig09 / fig10 / fig19 (sim)"
for fig in fig09_saturation fig10_latency fig19_cs_hitm; do
    json="BENCH_${fig%%_*}.json"
    if cmake --build build-check-werror --target "$fig" -j "$jobs" \
            >>build-check-werror/build.log 2>&1 \
            && "build-check-werror/bench/$fig" --skip-real \
                --smoke-json="$repo_root/$json" \
                >"build-check-werror/$fig.log" 2>&1; then
        grep -E '^(PASS|FAIL) ' "build-check-werror/$fig.log"
        if ! git diff --exit-code -- "$json"; then
            echo "$json DIFFERS FROM THE COMMITTED COPY"
            failures+=("figure claims: $fig output changed")
        fi
    else
        grep -E '^(PASS|FAIL) ' "build-check-werror/$fig.log" || true
        echo "FIGURE CLAIMS FAILED: $fig (see build-check-werror/$fig.log)"
        failures+=("figure claims: $fig")
    fi
done

# ---- stage 1d: mulint (static invariant lint) ----------------------------
# Toolchain-independent analyzer built from tools/mulint by stage 1's
# configuration; unlike stages 5-6 it needs no clang and always runs,
# including under --quick. Unsuppressed findings fail the gate; see the
# "Static analysis: mulint" section of DESIGN.md for the rule set and
# the allow-pragma grammar. The interprocedural clock-seam rule
# subsumes the raw-nowNanos grep this stage used to be paired with —
# it also catches transitive reaches and std::chrono reads the grep
# never saw. --json archives every finding (suppressed ones included)
# for audit; --budget-ms pins the analyzer's always-on cost so it can
# never quietly grow into the slow stage of the gate.
banner "mulint"
if cmake --build build-check-werror --target mulint -j "$jobs" \
        >>build-check-werror/build.log 2>&1 \
        && build-check-werror/tools/mulint/mulint --root "$repo_root" \
            --json build-check-werror/mulint_findings.json \
            --budget-ms 5000; then
    :
else
    echo "MULINT FAILED"
    failures+=("mulint: findings")
fi

# ---- stage 1d2: mulint baseline diff -------------------------------------
# The committed tools/mulint/baseline.json pins the full finding set
# (pragma-suppressed findings included) expected at HEAD. A finding
# present in the baseline but missing from this run means a rule
# silently stopped firing — a lint regression — so lost findings fail
# the gate. New findings show up as exit-code failures in stage 1d (if
# live) or as a baseline-refresh diff here (if suppressed); refresh
# with: mulint --root . --json tools/mulint/baseline.json
banner "mulint baseline diff"
if [[ -f build-check-werror/mulint_findings.json ]]; then
    if ! python3 - "$repo_root/tools/mulint/baseline.json" \
            build-check-werror/mulint_findings.json <<'PYEOF'
import json, sys
key = lambda f: (f["file"], f["line"], f["rule"], f["message"])
base = {key(f) for f in json.load(open(sys.argv[1]))}
now = {key(f) for f in json.load(open(sys.argv[2]))}
lost = sorted(base - now)
new = sorted(now - base)
for f in lost:
    print("LOST: %s:%d: [%s] %s" % f)
for f in new:
    print("new (refresh baseline): %s:%d: [%s] %s" % f)
sys.exit(1 if lost else 0)
PYEOF
    then
        echo "MULINT BASELINE DIFF FAILED (findings lost)"
        failures+=("mulint: baseline diff")
    fi
else
    echo "MULINT BASELINE DIFF SKIPPED (no findings json)"
    failures+=("mulint: baseline missing findings json")
fi

# ---- stage 1e: deterministic sim suite under 8 seeds ---------------------
# The sim-mode replay suite (pinned timing-bug regressions, the
# byte-identical-trace contract, and the fanout+fault+overload scenario
# invariants) under 8 distinct seeds via MUSUITE_SIM_SEED, which adds
# each seed to the sweep's fixed set. Fast (virtual time), so it runs
# under --quick too.
banner "deterministic sim suite: 8 seeds"
if cmake --build build-check-werror --target sim_replay_test -j "$jobs" \
        >>build-check-werror/build.log 2>&1; then
    for seed in 101 202 303 404 505 606 707 808; do
        if ! MUSUITE_SIM_SEED="$seed" \
                build-check-werror/tests/sim_replay_test \
                --gtest_brief=1; then
            echo "SIM SUITE FAILED AT SEED $seed"
            failures+=("sim-seeds: seed $seed")
        fi
    done
else
    echo "SIM SUITE BUILD FAILED"
    failures+=("sim-seeds: build")
fi

# ---- stage 2: debug-sync (lock-rank + role checks) -----------------------
run_stage "debug-sync" build-check-debug-sync \
    -DCMAKE_BUILD_TYPE=Debug -DMUSUITE_WERROR=ON -DMUSUITE_DEBUG_SYNC=ON

# ---- stage 2b: storm replays under debug-sync ----------------------------
# The three sim storms again, on the lock-rank/thread-role checked
# Debug build: a full storm drives the server's virtual-time station
# lock and the admission controller through every queue, shed and
# fan-out path. Each must still reproduce the committed (indexed) JSON
# byte for byte. ~40s.
banner "debug-sync storm replays"
for storm in dag chaos overload; do
    out="build-check-debug-sync/BENCH_${storm}.json"
    if cmake --build build-check-debug-sync --target "${storm}_storm" \
            -j "$jobs" >>build-check-debug-sync/build.log 2>&1 \
            && "build-check-debug-sync/bench/${storm}_storm" \
                --smoke-json="$out" >/dev/null \
            && cmp <(git show ":BENCH_${storm}.json") "$out"; then
        :
    else
        echo "DEBUG-SYNC ${storm}_storm REPLAY FAILED"
        failures+=("debug-sync replay: ${storm}_storm")
    fi
done

if [[ "$quick" -eq 0 ]]; then
    # ---- stage 3: ThreadSanitizer ----------------------------------------
    export TSAN_OPTIONS="suppressions=$repo_root/tools/tsan.supp:halt_on_error=1:second_deadlock_stack=1"
    run_stage "tsan" build-check-tsan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMUSUITE_SANITIZE=thread
    # DeadlineTest.ExpiredAndLiveCallsCoexist races a Channel deadline
    # timer against a TCP completion thread; one pass can miss it.
    banner "tsan: rpc_features_test x5"
    if ! ctest --test-dir build-check-tsan -R rpc_features_test \
            --repeat until-fail:5 --output-on-failure; then
        failures+=("tsan: rpc_features_test repeat")
    fi
    # Leaf servers run handlers on their poller threads, and the
    # leaf-death phase stops an inline leaf that still has live
    # connections (killLeaf); tier-1 exercises neither under load.
    # Fails on any TSAN report or a nonzero exit.
    banner "tsan: fault_storm"
    storm_log=build-check-tsan/fault_storm.log
    if build-check-tsan/bench/fault_storm --phase-ms=300 \
            >"$storm_log" 2>&1 \
            && ! grep -q 'ThreadSanitizer' "$storm_log"; then
        :
    else
        grep -A20 'ThreadSanitizer' "$storm_log" | head -40 || true
        echo "TSAN fault_storm FAILED (see $storm_log)"
        failures+=("tsan: fault_storm")
    fi
    unset TSAN_OPTIONS

    # ---- stage 4: ASan + UBSan -------------------------------------------
    # detect_leaks=0: LSan needs ptrace permissions that CI containers
    # often lack; ASan's memory-error checks are unaffected.
    # detect_stack_use_after_return=1: a by-reference lambda capture
    # that a timer runs after its frame returned reads a dead stack
    # slot; this makes ASan report it instead of reading reused memory.
    export ASAN_OPTIONS="detect_leaks=0:detect_stack_use_after_return=1"
    export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
    run_stage "asan-ubsan" build-check-asan-ubsan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMUSUITE_SANITIZE=address+undefined
    unset ASAN_OPTIONS UBSAN_OPTIONS
fi

# ---- stage 5: clang -Wthread-safety (static analysis) --------------------
if command -v clang++ >/dev/null 2>&1; then
    banner "clang -Wthread-safety syntax pass"
    ts_fail=0
    while IFS= read -r -d '' src; do
        clang++ -std=c++20 -fsyntax-only -I "$repo_root/src" \
            -Wthread-safety -Werror=thread-safety "$src" || ts_fail=1
    done < <(find "$repo_root/src" -name '*.cc' -print0)
    [[ "$ts_fail" -ne 0 ]] && failures+=("thread-safety: warnings")
else
    banner "clang -Wthread-safety: SKIPPED (clang++ not on PATH)"
fi

# ---- stage 6: clang-tidy -------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
    banner "clang-tidy"
    tidy_db=build-check-werror
    if [[ ! -f "$tidy_db/compile_commands.json" ]]; then
        cmake -S "$repo_root" -B "$tidy_db" \
            -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    fi
    tidy_fail=0
    while IFS= read -r -d '' src; do
        clang-tidy -p "$tidy_db" --quiet "$src" || tidy_fail=1
    done < <(find "$repo_root/src" -name '*.cc' -print0)
    [[ "$tidy_fail" -ne 0 ]] && failures+=("clang-tidy: findings")
else
    banner "clang-tidy: SKIPPED (not on PATH)"
fi

# ---- summary -------------------------------------------------------------
banner "summary"
if [[ "${#failures[@]}" -eq 0 ]]; then
    echo "ALL STAGES PASSED"
    exit 0
fi
echo "FAILED STAGES:"
printf '  - %s\n' "${failures[@]}"
exit 1
