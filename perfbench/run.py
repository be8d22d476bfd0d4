#!/usr/bin/env python3
"""The repository benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # every workload, both passes

Run from the repository root. The first run builds the program with its own
CMake files, then this benchmark's driver (perfbench/CMakeLists.txt), under
.bench_build/. Workloads (see perfbench/README.md for why each exists):

  serve_small   mst_serve, short reads plus exactly-once increments
  serve_cache   mst_serve, fresh objects in a per-shard ring (old-space churn)
  macro_table2  the eight Table 2 macro benchmarks, in-process, bs/ms/busy

The report goes to stdout; its last line is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). The
exit code is non-zero when any answer check fails.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # leave nothing but .bench_build/ behind
import metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM_BUILD = os.path.join(BUILD, "program")
DRIVER_BUILD = os.path.join(BUILD, "perfbench")
SERVE_BIN = os.path.join(PROGRAM_BUILD, "src", "serve", "mst_serve")
PREWARM_BIN = os.path.join(PROGRAM_BUILD, "bench", "bench_prewarm")
DRIVER_BIN = os.path.join(DRIVER_BUILD, "perfbench_driver")

SETUPS = 11  # set-ups per run; setup_s is their median
PACED_SHARE = 0.4  # of --seconds, for the paced phase
BOOT_LIMIT_S = 60  # launch to first answer, for mst_serve and the boot probe
STOP_GRACE_S = 30  # SIGTERM to exit; a daemon still running is killed

# Load shapes. Counts are fixed per --seconds so that heap growth and
# collection counts repeat from run to run; README.md gives the reasons.
SERVE = {
    "serve_small": {
        "warmup": 20000,
        "rate": 50000,          # paced req/s: ~half the parent's closed loop
        "closed_per_s": 20000,  # closed-loop requests per --second
        "min_full_gcs": 0,
        "states_count": 20000,  # requests per block in each Table 2 state
        "replay_count": 20000,
    },
    "serve_cache": {
        "warmup": 20000,
        "rate": 900,
        "closed_per_s": 800,
        "min_full_gcs": 1,      # every shard, before the measured phases
        "states_count": 1500,
        "replay_count": 6000,
    },
}
MACRO = {"reps_per_10s": 3, "replay_scale": 0.05, "replay_count": 48}


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def run_logged(cmd, logfile):
    with open(logfile, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)


def build():
    """Builds the program's daemon, image tool and libraries, then the
    driver. Incremental after the first run."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no program source at %s (run from the repository root)" % ROOT,
             2)
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", ROOT, "-B", PROGRAM_BUILD],
        ["cmake", "--build", PROGRAM_BUILD, "-j", jobs, "--target",
         "mst_serve_bin", "bench_prewarm"],
        ["cmake", "-S", HERE, "-B", DRIVER_BUILD,
         "-DMST_BUILD_DIR=" + PROGRAM_BUILD, "-DMST_ROOT=" + ROOT],
        ["cmake", "--build", DRIVER_BUILD, "-j", jobs],
    ]
    for cmd in steps:
        if run_logged(cmd, logfile) != 0:
            with open(logfile) as f:
                sys.stderr.write(f.read()[-4000:])
            fail("build failed: " + " ".join(cmd))


def driver(args, timeout=170):
    """Runs perfbench_driver; returns (its JSON result, its exit code)."""
    p = subprocess.Popen([DRIVER_BIN] + args, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        fail("driver timed out: " + " ".join(args))
    if err.strip():
        sys.stderr.write(err)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("driver printed no result: " + " ".join(args))
    return result, p.returncode


def read_steal():
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def provenance(seed, data_dir):
    def first_line(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT).stdout.splitlines()[0].strip()
        except (OSError, IndexError):
            return "unknown"

    cache = open(os.path.join(PROGRAM_BUILD, "CMakeCache.txt")).read()
    flags_file = os.path.join(PROGRAM_BUILD, "src", "vm", "CMakeFiles",
                              "mst_vm.dir", "flags.make")
    flags = re.search(r"CXX_FLAGS = (.*)", open(flags_file).read()).group(1)
    compiler = re.search(r"CMAKE_CXX_COMPILER:FILEPATH=(.*)", cache).group(1)
    build_type = re.search(r"CMAKE_BUILD_TYPE:STRING=(.*)", cache).group(1)
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    rev = first_line(["git", "rev-parse", "HEAD"])
    dirty = "unknown"
    if rev != "unknown":
        dirty = "yes" if first_line(["git", "status", "--porcelain"]) \
            not in ("", "unknown") else "no"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "kernel": platform.release(),
        "compiler": first_line([compiler, "--version"]),
        "build_type": build_type or "(program default)",
        "cxx_flags": flags.strip(),
        "assertions": "on" if "-DNDEBUG" not in flags else "off",
        "data_dir_fs": first_line(["stat", "-f", "-c", "%T", data_dir]),
        "git_rev": rev if rev != "unknown" else "unknown (not a git checkout)",
        "git_dirty": dirty,
        "seed": seed,
    }


class Daemon:
    """One mst_serve process on an ephemeral loopback port."""

    def __init__(self, image, data_dir):
        shutil.rmtree(data_dir, ignore_errors=True)
        os.makedirs(data_dir)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [SERVE_BIN, "--port=0", "--shards=%d" % metrics.SHARDS,
             "--image=" + image, "--data-dir=" + data_dir, "--journal",
             # No timed checkpoint falls inside a run: the generator asks
             # for one at each phase boundary instead.
             "--snapshot-every=3600000"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        # A daemon that hangs while booting is killed, which ends the read.
        # (os.kill, not Popen.kill: only stop() may reap the process.)
        watchdog = threading.Timer(BOOT_LIMIT_S, os.kill,
                                   (self.proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
            m = re.search(r"serving on 127\.0\.0\.1:(\d+)", line)
            if not m:
                fail("mst_serve did not start: " + line.strip())
            self.port = int(m.group(1))
            # Set-up ends when the daemon answers its first request.
            with socket.create_connection(("127.0.0.1", self.port),
                                          timeout=BOOT_LIMIT_S) as s:
                s.sendall(b"3 + 4\n")
                answer = s.makefile().readline().strip()
            self.setup_s = time.perf_counter() - self.started
            if answer != "OK 7":
                fail("first request answered %r" % answer)
        except BaseException:
            watchdog.cancel()
            self.stop()
            raise
        watchdog.cancel()

    def stop(self):
        """SIGTERM (graceful drain), then waits STOP_GRACE_S at most before
        SIGKILL. Returns (max RSS in KB, whether it drained and exited 0)."""
        pid = self.proc.pid
        try:
            os.kill(pid, signal.SIGTERM)
            deadline = time.monotonic() + STOP_GRACE_S
            while True:
                done, status, usage = os.wait4(pid, os.WNOHANG)
                if done:
                    break
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    _, status, usage = os.wait4(pid, 0)
                    break
                time.sleep(0.01)
        except (ChildProcessError, ProcessLookupError):
            return 0, False
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss, self.proc.returncode == 0


def run_serve(name, a, run_dir, image):
    shape = SERVE[name]
    setups, stopped = [], True
    for i in range(SETUPS - 1):
        d = Daemon(image, os.path.join(run_dir, "setup%d" % i))
        setups.append(d.setup_s)
        stopped = d.stop()[1] and stopped
    d = Daemon(image, os.path.join(run_dir, "data"))
    setups.append(d.setup_s)
    paced = int(shape["rate"] * PACED_SHARE * a.seconds)
    closed = int(shape["closed_per_s"] * a.seconds)
    try:
        load, _ = driver([
            "loadgen", "--port=%d" % d.port, "--server-pid=%d" % d.proc.pid,
            "--workload=" + name, "--seed=%d" % a.seed,
            "--warmup=%d" % shape["warmup"], "--paced=%d" % paced,
            "--rate=%d" % shape["rate"], "--closed=%d" % closed,
            "--min-full-gcs=%d" % shape["min_full_gcs"]])
    finally:
        rss_kb, clean = d.stop()
    return {"setups": setups, "load": load, "rss_kb": rss_kb,
            "stopped": stopped and clean}


def run_serve_states(name, a, image):
    states, _ = driver([
        "states", "--workload=" + name, "--image=" + image,
        "--seed=%d" % a.seed, "--count=%d" % SERVE[name]["states_count"]])
    return states


def run_macro(a, image):
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        p = subprocess.Popen([DRIVER_BIN, "boot", "--image=" + image],
                             stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(BOOT_LIMIT_S, p.kill)
        watchdog.start()
        answer = p.stdout.readline().strip()
        setups.append(time.perf_counter() - t0)
        p.wait()  # the watchdog bounds it
        watchdog.cancel()
        p.stdout.close()
        if answer != "OK 7":
            fail("boot probe answered %r" % answer)
    reps = max(1, round(MACRO["reps_per_10s"] * a.seconds / 10))
    p = subprocess.Popen(
        [DRIVER_BIN, "states", "--workload=macro_table2", "--image=" + image,
         "--seed=%d" % a.seed, "--reps=%d" % reps],
        stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(170, p.kill)
    watchdog.start()
    out = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    try:
        states = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("macro states printed no result")
    return {"setups": setups, "states": states, "rss_kb": usage.ru_maxrss}


def run_replay(name, a, run_dir, image):
    if name == "macro_table2":
        count, scale = MACRO["replay_count"], MACRO["replay_scale"]
    else:
        count, scale = SERVE[name]["replay_count"], 1.0
    trace_file = os.path.join(run_dir, "replay.trace")
    replay, _ = driver([
        "replay", "--workload=" + name, "--image=" + image,
        "--seed=%d" % a.seed, "--count=%d" % count, "--scale=%g" % scale,
        "--journal=" + os.path.join(run_dir, "replay.journal"),
        "--trace-out=" + trace_file])
    replay["spans"] = metrics.replay_spans(trace_file)
    return replay


def run_workload(workload, seed, seconds, trace):
    """One run: set up, measure, check. Prints the report and the result
    line; returns whether every check passed."""
    a = argparse.Namespace(workload=workload, seed=seed, seconds=seconds,
                           trace=trace)
    run_dir = os.path.join(BUILD, "run-%s-%d" % (workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        image = os.path.join(run_dir, "prewarmed.image")
        if run_logged([PREWARM_BIN, image],
                      os.path.join(run_dir, "prewarm.log")) != 0:
            fail("bench_prewarm failed")
        prov = provenance(seed, run_dir)
        steal0 = read_steal()
        if workload == "macro_table2":
            raw = run_macro(a, image)
        else:
            raw = run_serve(workload, a, run_dir, image)
        if trace:
            if workload != "macro_table2":
                raw["states"] = run_serve_states(workload, a, image)
            raw["replay"] = run_replay(workload, a, run_dir, image)
        prov["steal_ticks"] = read_steal() - steal0
        result = metrics.evaluate(workload, raw, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(metrics.report(workload, prov, result), flush=True)
    print(json.dumps(result.line), flush=True)
    return result.line["correct"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve_small", "serve_cache", "macro_table2",
                             "all"],
                    help="'all' runs every workload, untraced then traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build()
    if a.workload != "all":
        ok = run_workload(a.workload, a.seed, a.seconds, a.trace)
    else:
        ok = True
        for workload in ("serve_small", "serve_cache", "macro_table2"):
            for trace in (0, 1):
                ok = run_workload(workload, a.seed, a.seconds, trace) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
