#!/usr/bin/env bash
#===-- scripts/ci.sh - Build/test matrix driver --------------------------===#
#
# Part of the Multiprocessor Smalltalk reproduction. MIT license.
#
# Runs the repo's build/test matrix. Each compiler configuration gets one
# build tree under build-ci/, named after the first lane that uses it, so
# rerunning a single lane is incremental and the full matrix compiles each
# configuration once: smallheap runs in debug-chaos's tree, snapfuzz and
# journal-fuzz in asan's, and serve in tsan's.
#
#   scripts/ci.sh                 # full matrix
#   scripts/ci.sh release tsan    # just those configurations
#   MST_CHAOS_SEED=1337 scripts/ci.sh debug-chaos   # pin the chaos seed
#
# Configurations:
#   release      Release build of everything, bench/ and examples/
#                included, then the quick suite (-L quick) — the tier-1
#                gate. Then builds perfbench/ (perfbench_driver and
#                perfbench_tests) against that build, in perfbench's
#                default build type (both keep assertions on), and runs
#                its C++ and Python helper tests, so a program change that
#                breaks the benchmark fails here. Last, the heap-ceiling
#                run: mst_serve with four journaled shards under a 16 MiB
#                MST_MAX_HEAP_BYTES must answer all 300,000 warm-up
#                requests of perfbench_driver's serve_small load, peak at
#                no more resident memory (VmHWM) than its four shards'
#                heap ceilings together, and exit 0 within 30 s of
#                SIGTERM, so serving under a heap ceiling stays
#                crash-free and holds only the memory its heaps use.
#   debug-chaos  Debug build, quick + stress suites with chaos enabled.
#                The quick suite runs under malloc perturbation, so every
#                heap space starts on non-zero bytes and a read of
#                never-written heap memory fails a test.
#   tsan         ThreadSanitizer + chaos, quick + stress suites. The
#                stress label includes the full-GC chaos storms
#                (FullGCChaosTest), racing mark/sweep pauses against
#                mutator threads under the injected schedules.
#   asan         Address+UB sanitizers, quick + stress suites.
#   smallheap    Debug build, stress suite under memory pressure: a tiny
#                default heap ceiling (MST_MAX_HEAP_BYTES) plus seeded
#                eden-allocation faults (MST_CHAOS_ALLOC_FAIL_PM) pushed
#                into every stress binary, so the pressure-recovery ladder
#                and low-space paths run on every matrix build.
#   snapfuzz     Address+UB sanitizers aimed at the snapshot subsystem:
#                the corruption sweep (truncations + bit flips against
#                saved images) plus the kill-during-save chaos storms with
#                io.write.fail / io.fsync.fail / snapshot.truncate armed
#                from the environment, proving torn and corrupt images are
#                rejected with diagnostics — never a crash — and the
#                atomic-rename protocol keeps the target loadable.
#   serve        ThreadSanitizer build aimed at the serving layer: the
#                functional serve suite (protocol, batching, end-to-end
#                sessions) followed by the ServeChaos storms with the
#                serve.shard.crash fail point armed from the environment
#                (MST_CHAOS_SHARD_CRASH_PM), so shards keep crashing
#                mid-batch under real loopback traffic and must restart
#                from their last committed checkpoint while the rest of
#                the pool keeps serving; then the overload/stall storm
#                with MST_CHAOS_REQUEST_STALL_PM (runaway injection)
#                armed, gating that deadlines abort runaways and no
#                shard wedges.
#   journal-fuzz Address+UB sanitizers aimed at the write-ahead request
#                journal: the WAL unit sweep (record CRC round-trips,
#                torn-tail boundary repair, logical-position-preserving
#                truncation, dedup-table bounds) and the journaled
#                end-to-end tests, then the 200-session kill+tear storm
#                twice — once with journal.tear + append/truncate
#                failures armed (MST_CHAOS_JOURNAL_APPEND_FAIL_PM /
#                MST_CHAOS_JOURNAL_TRUNCATE_FAIL_PM), once with
#                journal.fsync.fail armed and the tear drill pinned off
#                (MST_CHAOS_JOURNAL_FSYNC_FAIL_PM /
#                MST_CHAOS_JOURNAL_TEAR_PM=0). Both gate on the tentpole
#                invariant: zero acknowledged-request loss.
#   profile      ASan+UBSan build with benches ON: bench_table2 runs
#                three profiler-off/profiler-on pairs, the side that runs
#                first alternating per pair. Each --profile run's folded
#                flamegraph export must parse and name at least one
#                Smalltalk selector. The overhead gate sums, per side, each
#                cell's minimum over its three runs across the paper's four
#                Table 2 states (host load only adds time). The design
#                target is <1%; CI noise under sanitizers gets headroom up
#                to MST_PROFILE_OVERHEAD_MAX_PCT (default 5) before the
#                lane fails.
#   coverage     Debug build with GCC --coverage (atomic counter updates,
#                so lines run by several threads at once count right),
#                then all of Tier-1
#                (every ctest case, quick and stress), then a short run
#                of each perfbench workload: perfbench_driver, linked
#                against this build, sends serve_small's load to its
#                mst_serve and runs macro_table2's states in process. A
#                report, not a gate: for each src/ file it prints how
#                many of the lines gcov counts this traffic never
#                executed, those lines as ranges (`42-45 56 81-82`), and
#                the functions it never entered (name:first line), read
#                with gcov-12.
#                No threshold. Runs only when named: it is not part of the
#                full matrix and CI does not run it. The report is also
#                written to build-ci/coverage/coverage.txt.
#
# The stress binaries print the failing chaos seed in the test output
# (SCOPED_TRACE "chaos-seed=N"); reproduce with MST_CHAOS_SEED=N.
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
# Default seed sweep lives in the tests; export a seed here to override.
CHAOS_SEED=${MST_CHAOS_SEED:-}

# TSan histories are finite; long-lived rings can age out of them. Keep
# reports readable and make second_deadlock_stack available.
export TSAN_OPTIONS=${TSAN_OPTIONS:-"halt_on_error=1 second_deadlock_stack=1"}
# verify_asan_link_order inspects /proc/self/maps in *address* order, so
# with ASLR it fails spuriously whenever another DSO lands below libasan
# even though libasan is first in DT_NEEDED; disable the check.
export ASAN_OPTIONS=${ASAN_OPTIONS:-"detect_leaks=0 verify_asan_link_order=0"}
export UBSAN_OPTIONS=${UBSAN_OPTIONS:-"print_stacktrace=1 halt_on_error=1"}

banner() { printf '\n=== %s ===\n' "$*"; }

# configure <dir> <build-type> <sanitize> [bench: ON builds bench/ and
# examples/; default OFF]
configure() {
  cmake -B "build-ci/$1" -S . \
    -DCMAKE_BUILD_TYPE="$2" \
    -DMST_SANITIZE="$3" \
    -DMST_BUILD_BENCH="${4:-OFF}" >/dev/null
}

# run_suite <dir> <label> [chaos]
run_suite() {
  local dir=$1 label=$2 chaos=${3:-}
  local env=()
  if [ -n "$chaos" ]; then
    env+=(MST_CHAOS_SEED="${CHAOS_SEED:-1}")
  fi
  env "${env[@]}" ctest --test-dir "build-ci/$dir" -L "$label" \
    --output-on-failure -j "$JOBS"
}

do_release() {
  banner "release: Release with bench/ and examples/, quick suite"
  configure release Release "" ON
  cmake --build build-ci/release -j "$JOBS"
  run_suite release quick

  banner "release: perfbench against build-ci/release"
  cmake -B build-ci/perfbench -S perfbench \
    -DMST_BUILD_DIR="$PWD/build-ci/release" >/dev/null
  cmake --build build-ci/perfbench -j "$JOBS"
  build-ci/perfbench/perfbench_tests
  python3 -B -m unittest discover -s perfbench/tests

  banner "release: mst_serve under a 16 MiB heap ceiling"
  heap_ceiling_run
}

# start_serve LOG MST_SERVE ARGS...: starts the daemon on an ephemeral
# port, logging to LOG; sets serve_pid, and serve_port once its "serving
# on" line appears within 30 s (empty otherwise).
start_serve() {
  local log=$1
  shift
  "$@" --port=0 >"$log" 2>&1 &
  serve_pid=$!
  serve_port=""
  for _ in $(seq 300); do
    serve_port=$(sed -n 's/.*serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$log")
    [ -n "$serve_port" ] && break
    sleep 0.1
  done
}

# stop_serve: SIGTERM to serve_pid; the drain gets 30 s, and a daemon
# still alive then is killed instead of hanging the lane. Sets
# serve_status to the daemon's exit status, or "hung".
stop_serve() {
  serve_status=0
  kill -TERM "$serve_pid" 2>/dev/null || true
  for _ in $(seq 300); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$serve_pid" 2>/dev/null; then
    kill -KILL "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
    serve_status=hung
  else
    wait "$serve_pid" || serve_status=$?
  fi
}

# The daemon bootstraps its shards itself (no --image), takes the
# serve_small load on an ephemeral port, must fit in its shards' heap
# ceilings, and must drain cleanly.
heap_ceiling_run() {
  local out=build-ci/release/heap-ceiling warmup=300000
  local shards=4 ceiling=16777216 hwm_kb=""
  rm -rf "$out"
  mkdir -p "$out/data"
  MST_MAX_HEAP_BYTES=$ceiling start_serve "$out/serve.log" \
    build-ci/release/src/serve/mst_serve --shards=$shards \
    --data-dir="$out/data" --journal
  if [ -n "$serve_port" ]; then
    build-ci/perfbench/perfbench_driver loadgen --port="$serve_port" \
      --server-pid="$serve_pid" --workload=serve_small --seed=1 \
      --warmup="$warmup" --rate=10 --paced=10 --closed=10 \
      >"$out/loadgen.json" || true
  fi
  # Peak resident memory over the whole load, read before the drain.
  hwm_kb=$(sed -n 's/^VmHWM:[[:space:]]*\([0-9]*\) kB$/\1/p' \
    "/proc/$serve_pid/status" 2>/dev/null || true)
  stop_serve
  python3 - "$out/loadgen.json" "$warmup" "$serve_status" "$hwm_kb" \
    $((shards * ceiling / 1024)) <<'PYEOF'
import json, sys

path, warmup, status = sys.argv[1], int(sys.argv[2]), sys.argv[3]
hwm_kb = int(sys.argv[4]) if sys.argv[4] else None
limit_kb = int(sys.argv[5])
try:
    with open(path) as f:
        doc = json.loads(f.read().strip().splitlines()[-1])
except (OSError, ValueError, IndexError):
    doc = {"problem": "no load-generator result"}
ok = doc.get("phases", {}).get("warmup", {}).get("ok", 0)
exit_text = ("did not exit on SIGTERM within 30 s (killed)"
             if status == "hung" else f"exit {status}")
peak_text = ("unreadable" if hwm_kb is None
             else f"{hwm_kb / 1024:.1f} MiB")
print(f"heap ceiling: {ok}/{warmup} warm-up answers OK, "
      f"problem {doc.get('problem')!r}, peak RSS {peak_text} "
      f"(limit {limit_kb // 1024} MiB), mst_serve {exit_text}")
if (ok != warmup or doc.get("problem") or status != "0"
        or hwm_kb is None or hwm_kb > limit_kb):
    sys.exit(1)
PYEOF
}

do_debug_chaos() {
  banner "debug-chaos: Debug, quick + stress, chaos on"
  configure debug-chaos Debug ""
  cmake --build build-ci/debug-chaos -j "$JOBS"
  # glibc fills each allocation with a non-zero byte, and the raised mmap
  # threshold sends the heap spaces through that path too; a read of a
  # space byte nothing wrote then fails a test instead of reading zero.
  MALLOC_PERTURB_=165 MALLOC_MMAP_THRESHOLD_=33554432 \
    run_suite debug-chaos quick
  run_suite debug-chaos stress chaos
}

do_tsan() {
  banner "tsan: ThreadSanitizer + chaos, quick + stress"
  configure tsan RelWithDebInfo thread
  cmake --build build-ci/tsan -j "$JOBS"
  run_suite tsan quick
  run_suite tsan stress chaos
}

do_asan() {
  banner "asan: Address+UB sanitizers, quick + stress"
  configure asan RelWithDebInfo address,undefined
  cmake --build build-ci/asan -j "$JOBS"
  run_suite asan quick
  run_suite asan stress chaos
}

do_smallheap() {
  banner "smallheap: Debug, stress under tiny heap ceiling + alloc faults"
  configure debug-chaos Debug ""
  cmake --build build-ci/debug-chaos -j "$JOBS"
  # ScopedChaos arms the fault points from these variables (armFailFromEnv),
  # and any ObjectMemory built without an explicit ceiling adopts the tiny
  # MST_MAX_HEAP_BYTES one, so every stress test walks the recovery ladder.
  MST_MAX_HEAP_BYTES=$((32 * 1024 * 1024)) \
  MST_CHAOS_ALLOC_FAIL_PM=${MST_CHAOS_ALLOC_FAIL_PM:-60} \
    run_suite debug-chaos stress chaos
}

do_snapfuzz() {
  banner "snapfuzz: ASan+UBSan, snapshot corruption sweep + save chaos"
  configure asan RelWithDebInfo address,undefined
  cmake --build build-ci/asan -j "$JOBS"
  # The corruption sweep: every truncation point and bit-flip position
  # against a saved image must be rejected with a diagnostic, never a
  # crash. ASan/UBSan turn any loader overread into a hard failure.
  ctest --test-dir build-ci/asan -R 'SnapshotTest' \
    --output-on-failure -j "$JOBS"
  # Kill-during-save storms with the io fault points armed from the
  # environment on top of the tests' own seeded chaos: partial-rate write
  # and fsync failures plus seeded mid-save truncation of the temp file.
  MST_CHAOS_IO_WRITE_FAIL_PM=${MST_CHAOS_IO_WRITE_FAIL_PM:-80} \
  MST_CHAOS_IO_FSYNC_FAIL_PM=${MST_CHAOS_IO_FSYNC_FAIL_PM:-80} \
  MST_CHAOS_SNAPSHOT_TRUNCATE_PM=${MST_CHAOS_SNAPSHOT_TRUNCATE_PM:-80} \
  MST_CHAOS_SEED="${CHAOS_SEED:-1}" \
    ctest --test-dir build-ci/asan -R 'SnapshotChaos' \
    --output-on-failure -j "$JOBS"
}

do_serve() {
  banner "serve: TSan, serving suite + shard crash storm"
  configure tsan RelWithDebInfo thread
  cmake --build build-ci/tsan -j "$JOBS" \
    --target test_serve test_serve_stress
  # Functional pass first: protocol, batching, end-to-end serving.
  ctest --test-dir build-ci/tsan -R '^Serve|^RequestBatcher' \
    -E '^ServeChaos' --output-on-failure -j "$JOBS"
  # Then the storms with the crash point armed from the environment on
  # top of the tests' own seeded schedule chaos (ScopedChaos arms
  # serve.shard.crash via armFailFromEnv).
  MST_CHAOS_SHARD_CRASH_PM=${MST_CHAOS_SHARD_CRASH_PM:-80} \
  MST_CHAOS_SEED="${CHAOS_SEED:-1}" \
    ctest --test-dir build-ci/tsan -R 'ServeChaos' \
    -E 'RequestStallStorm' --output-on-failure -j "$JOBS"
  # Overload/stall storm: serve.request.stall rewrites ~8% of evals into
  # `[true] whileTrue.` runaways, so the in-VM deadline runs end to end
  # under TSan. The test gates on no wedged shards (every request
  # answers, all shards serving) and on deadlines having expired.
  MST_CHAOS_REQUEST_STALL_PM=${MST_CHAOS_REQUEST_STALL_PM:-80} \
  MST_CHAOS_SEED="${CHAOS_SEED:-1}" \
    ctest --test-dir build-ci/tsan -R 'RequestStallStorm' \
    --output-on-failure -j "$JOBS"
}

do_journalfuzz() {
  banner "journal-fuzz: ASan+UBSan, WAL sweep + kill/tear replay storms"
  configure asan RelWithDebInfo address,undefined
  cmake --build build-ci/asan -j "$JOBS" \
    --target test_serve test_serve_stress
  # Functional sweep: record CRC round-trips, torn-tail repair, logical
  # truncation, dedup bounds, then the journaled end-to-end tests —
  # replay on !kill, dedup answers for bound-session resends, and the
  # checkpoint-commit-vs-truncation ordering regression.
  ctest --test-dir build-ci/asan -R 'JournalTest|ServeJournal' \
    --output-on-failure -j "$JOBS"
  # Kill+tear storm: the test arms journal.tear itself (800 permille);
  # armFailFromEnv layers append and truncation failures on top. A
  # failed append must refuse the request without executing it and a
  # failed truncation must never un-commit a checkpoint — the gate stays
  # zero acknowledged-request loss.
  MST_CHAOS_JOURNAL_APPEND_FAIL_PM=${MST_CHAOS_JOURNAL_APPEND_FAIL_PM:-40} \
  MST_CHAOS_JOURNAL_TRUNCATE_FAIL_PM=${MST_CHAOS_JOURNAL_TRUNCATE_FAIL_PM:-80} \
  MST_CHAOS_SEED="${CHAOS_SEED:-1}" \
    ctest --test-dir build-ci/asan \
    -R 'JournaledKillAndTearStorm' --output-on-failure -j "$JOBS"
  # Fsync-failure storm: every sync lies (warn-and-continue), which an
  # in-process reboot survives because the bytes are written, just not
  # fsynced. The tear drill is pinned off — with syncs failing, the
  # unsynced window can hold refusal outcomes, and tearing those models
  # a loss the fsync policy explicitly trades away under power loss.
  MST_CHAOS_JOURNAL_FSYNC_FAIL_PM=${MST_CHAOS_JOURNAL_FSYNC_FAIL_PM:-300} \
  MST_CHAOS_JOURNAL_APPEND_FAIL_PM=${MST_CHAOS_JOURNAL_APPEND_FAIL_PM:-40} \
  MST_CHAOS_JOURNAL_TEAR_PM=0 \
  MST_CHAOS_SEED="${CHAOS_SEED:-1}" \
    ctest --test-dir build-ci/asan \
    -R 'JournaledKillAndTearStorm' --output-on-failure -j "$JOBS"
}

# profile_run <out> <scale> <off|on> <pair>: one bench_table2 run, its
# JSON and log named after its side and pair. A profiler-on run's folded
# flamegraph export must exist, parse, and name at least one Smalltalk
# method frame ("Class>>selector").
profile_run() {
  local out=$1 scale=$2 side=$3 pair=$4
  local run="$out/table2-$side-$pair" flags=()
  [ "$side" = on ] && flags=(--profile --profile-folded="$run.folded")
  MST_BENCH_SCALE="$scale" build-ci/profile/bench/bench_table2 \
    --image="$out/prewarmed.image" "${flags[@]}" --json-out="$run.json" \
    >"$run.log"
  [ "$side" = on ] || return 0
  local folded="$run.folded"
  [ -s "$folded" ] || {
    echo "profile lane: folded output missing or empty" >&2
    exit 1
  }
  awk 'NF {
    if ($NF !~ /^[0-9]+$/ || $0 !~ /;/) {
      print "profile lane: unparseable folded line: " $0 > "/dev/stderr"
      exit 1
    }
  }' "$folded"
  grep -q '>>' "$folded" || {
    echo "profile lane: no Class>>selector frame in $folded" >&2
    exit 1
  }
  echo "profile lane: $(wc -l <"$folded") folded rows," \
    "$(grep -c '>>' "$folded") with Smalltalk frames ($folded)"
}

do_profile() {
  banner "profile: ASan+UBSan benches, bench_table2 --profile + overhead gate"
  configure profile RelWithDebInfo address,undefined ON
  cmake --build build-ci/profile -j "$JOBS" \
    --target bench_table2 bench_prewarm
  local out=build-ci/profile/profile-artifacts
  rm -rf "$out"
  mkdir -p "$out"
  local scale=${MST_PROFILE_BENCH_SCALE:-0.3}

  build-ci/profile/bench/bench_prewarm "$out/prewarmed.image"

  # Three profiler-off/on pairs of the same workload at the same scale;
  # the side that runs first alternates, so a drift in host load falls on
  # both sides alike.
  local pair=0 order side
  for order in "off on" "on off" "off on"; do
    pair=$((pair + 1))
    for side in $order; do
      profile_run "$out" "$scale" "$side" "$pair"
    done
  done

  # Overhead gate on CPU seconds: per side, each cell's minimum over its
  # runs (host load only adds time), summed over the paper's four Table 2
  # states. The what-if rows stay out: the shared free-context list's row
  # runs many times as long as the rest and would swamp the sum. The
  # design target is <1% at the default hz; sanitizer + shared-runner
  # noise gets headroom up to MST_PROFILE_OVERHEAD_MAX_PCT before the
  # lane fails.
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$out" <<'PYEOF'
import glob, json, os, sys

PAPER_STATES = 4  # bench_table2 lists the paper's four states first

minima = {}
for side in ("off", "on"):
    minima[side] = {}
    for path in sorted(glob.glob(f"{sys.argv[1]}/table2-{side}-*.json")):
        with open(path) as f:
            doc = json.load(f)
        cells = {(s["name"], r["bench"]): r["cpu_sec"]
                 for s in doc["states"][:PAPER_STATES]
                 for r in s["results"] if r["ok"]}
        print(f"profile lane: {os.path.basename(path)}: paper states "
              f"{sum(cells.values()):.3f}s cpu")
        for cell, cpu in cells.items():
            minima[side][cell] = min(cpu, minima[side].get(cell, cpu))
both = minima["off"].keys() & minima["on"].keys()
off = sum(minima["off"][c] for c in both)
on = sum(minima["on"][c] for c in both)
if off <= 0:
    print("profile lane: zero baseline CPU time, skipping overhead gate")
    sys.exit(0)
pct = (on / off - 1.0) * 100.0
limit = float(os.environ.get("MST_PROFILE_OVERHEAD_MAX_PCT", "5"))
print(f"profile lane: summed cell minima on={on:.3f}s off={off:.3f}s "
      f"overhead={pct:+.2f}% (design target <1%, lane limit {limit}%)")
if pct > 1.0:
    print("profile lane: WARNING overhead above the 1% design target "
          "(tolerated up to the lane limit for CI noise)")
if pct > limit:
    print(f"profile lane: overhead {pct:+.2f}% exceeds limit {limit}%",
          file=sys.stderr)
    sys.exit(1)
PYEOF
  else
    echo "profile lane: python3 unavailable, skipping overhead gate"
  fi
}

# A short run of each perfbench workload against the coverage build, so
# the report counts the benchmark's traffic too: serve_small's load
# against its daemon (started with the workload's flags on a prewarmed
# image), then macro_table2's in-process states at a small scale. The
# daemon must exit 0 on SIGTERM, or its counts are never written.
coverage_traffic() {
  banner "coverage: perfbench serve_small and macro_table2 traffic"
  local out=build-ci/coverage/traffic
  local driver=build-ci/coverage/perfbench/perfbench_driver
  cmake -B build-ci/coverage/perfbench -S perfbench \
    -DMST_BUILD_DIR="$PWD/build-ci/coverage" \
    -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
  cmake --build build-ci/coverage/perfbench -j "$JOBS" \
    --target perfbench_driver
  rm -rf "$out"
  mkdir -p "$out/data"
  build-ci/coverage/bench/bench_prewarm "$out/prewarmed.image" \
    >"$out/prewarm.log"
  start_serve "$out/serve.log" build-ci/coverage/src/serve/mst_serve \
    --shards=4 --image="$out/prewarmed.image" --data-dir="$out/data" \
    --journal --snapshot-every=3600000
  local load=ok
  if [ -z "$serve_port" ] || ! "$driver" loadgen --port="$serve_port" \
    --server-pid="$serve_pid" --workload=serve_small --seed=1 \
    --warmup=20000 --rate=2000 --paced=2000 --closed=4000 \
    >"$out/loadgen.json"; then
    load=failed
  fi
  stop_serve
  echo "serve_small: load $load, mst_serve exit $serve_status"
  [ "$load" = ok ] && [ "$serve_status" = 0 ] || return 1
  "$driver" states --workload=macro_table2 --image="$out/prewarmed.image" \
    --seed=1 --reps=1 --scale=0.02 >"$out/states.json"
  echo "macro_table2: states ok"
}

do_coverage() {
  banner "coverage: GCC --coverage, Tier-1 and perfbench, unexecuted code"
  # Benches on: the bench_spinlock ctest case is part of Tier-1. Atomic
  # counter updates: lines that several interpreter threads run at once
  # would otherwise lose increments, and some read negative.
  cmake -B build-ci/coverage -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -fprofile-update=atomic" \
    -DCMAKE_EXE_LINKER_FLAGS=--coverage \
    -DMST_BUILD_BENCH=ON >/dev/null
  cmake --build build-ci/coverage -j "$JOBS"
  # Counts left by an earlier run would add to this one's.
  find build-ci/coverage -name '*.gcda' -delete
  ctest --test-dir build-ci/coverage --output-on-failure -j "$JOBS"
  coverage_traffic
  python3 - build-ci/coverage "$PWD/src/" <<'PYEOF' |
import json, os, re, subprocess, sys

build, root = sys.argv[1:]
lines = {}  # (path, line) -> executed in any translation unit
funcs = {}  # (path, start line, name) -> entered in any unit
for dirpath, _, names in os.walk(build):
    for data in (os.path.join(dirpath, n) for n in names
                 if n.endswith(".gcda")):
        out = subprocess.run(["gcov-12", "--json-format", "--stdout",
                              "--demangled-names", data],
                             capture_output=True, text=True,
                             check=True).stdout
        for doc in out.splitlines():
            for f in json.loads(doc)["files"]:
                if not f["file"].startswith(root):
                    continue
                path = "src/" + f["file"][len(root):]
                for l in f["lines"]:
                    key = (path, l["line_number"])
                    lines[key] = lines.get(key, False) or l["count"] > 0
                for fn in f["functions"]:
                    key = (path, fn["start_line"], fn["demangled_name"])
                    funcs[key] = (funcs.get(key, False)
                                  or fn["execution_count"] > 0)

def ranges(nums):
    """'42-45 56 81-82' for [42, 43, 44, 45, 56, 81, 82]."""
    out = []
    for n in nums:
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return " ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in out)

total = missed = 0
for path in sorted({p for p, _ in lines}):
    run = [hit for (p, _), hit in lines.items() if p == path]
    unrun = sorted(n for (p, n), hit in lines.items() if p == path and not hit)
    never = sorted((n, name) for (p, n, name), hit in funcs.items()
                   if p == path and not hit)
    total += len(run)
    missed += len(unrun)
    # A name without its parameter list, and the line it starts on.
    names = "; ".join(
        re.split(r"\((?!anonymous namespace\))", name)[0]
        + (" (lambda)" if "{lambda" in name else "") + f":{n}"
        for n, name in never)
    print(f"{path}: {len(unrun)} of {len(run)} lines unexecuted: "
          f"{ranges(unrun) or '-'}; functions never entered: {names or '-'}")
print(f"src/ total: {missed} of {total} lines unexecuted "
      f"({100.0 * missed / max(total, 1):.1f}%)")
PYEOF
    tee build-ci/coverage/coverage.txt
}

CONFIGS=("$@")
if [ ${#CONFIGS[@]} -eq 0 ]; then
  CONFIGS=(release debug-chaos tsan asan smallheap snapfuzz serve
    journal-fuzz profile)
fi

for C in "${CONFIGS[@]}"; do
  case "$C" in
  release) do_release ;;
  debug-chaos) do_debug_chaos ;;
  tsan) do_tsan ;;
  asan) do_asan ;;
  smallheap) do_smallheap ;;
  snapfuzz) do_snapfuzz ;;
  serve) do_serve ;;
  journal-fuzz) do_journalfuzz ;;
  profile) do_profile ;;
  coverage) do_coverage ;;
  *)
    echo "unknown configuration: $C" \
      "(known: release debug-chaos tsan asan smallheap snapfuzz serve" \
      "journal-fuzz profile coverage)" >&2
    exit 2
    ;;
  esac
done

banner "matrix complete: ${CONFIGS[*]}"
