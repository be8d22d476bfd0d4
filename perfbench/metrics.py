"""Metric arithmetic and the text report for perfbench/run.py.

Everything here is a pure function of the raw results the driver printed,
so tests/test_metrics.py can check it without building the program.
"""

import json
import math
import statistics

SHARDS = 4  # mst_serve --shards for the serve workloads
STATES = ("bs", "ms", "busy")
MACRO_NAMES = ("org_rw", "print_def", "hierarchy", "calls", "implementors",
               "inspector", "compile", "decompile")
LOCKS = ("alloc", "oldspace", "freectx", "sched", "display", "symtab")
GC_SPANS = ("scavenge", "fullgc", "fullgc.mark", "fullgc.sweep")

# name -> unit. The end-to-end metrics every workload measures; for
# macro_table2 a request is one macro benchmark execution.
E2E_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "server_cpu_us_per_req": "us",
    "peak_rss_mb": "MB",
}
# The ones the result line carries (BENCHMARK.json's end_to_end). The
# others are reported with their sample counts but not gated: on a shared
# 4-CPU host their run-to-run spread is wider than any usable bound
# (README.md).
END_TO_END = ("setup_s", "server_cpu_us_per_req", "peak_rss_mb")

# name -> unit. The per-layer metrics every workload reports (--trace 1).
PER_LAYER = {
    "serve.frontend.parse_us": "us",
    "serve.frontend.format_us": "us",
    "serve.journal.append_us": "us",
    "serve.journal.sync_us.p50": "us",
    "serve.journal.sync_us.p99": "us",
    "vm.compiler.compile_us": "us",
    "vm.interpreter.execute_us": "us",
    "vm.interpreter.render_us": "us",
    "vm.interpreter.methodcache_hit_ratio": "ratio",
    "vm.interpreter.freectx_reuse_ratio": "ratio",
    "vm.interpreter.bytecodes_per_cpu_s": "1/s",
    "vm.interpreter.bs_cpu_s": "s",
    "vm.interpreter.ms_cpu_s": "s",
    "vm.interpreter.busy_cpu_s": "s",
    "vm.interpreter.mp_overhead": "ratio",
    "vm.interpreter.busy_overhead": "ratio",
    "objmem.gc_us": "us",
    "objmem.scavenges_per_kreq": "count",
    "objmem.scavenge_pause_ms.p50": "ms",
    "objmem.scavenge_pause_ms.p99": "ms",
    "objmem.full_collections": "count",
    "objmem.tenured_bytes_per_req": "B",
    "objmem.old_used_mb": "MB",
    "objmem.oldspace_lock_delays": "count",
    "perfbench.tracing_overhead": "ratio",
}
PER_LAYER.update({"vkernel.%s.contended_ratio" % k: "ratio" for k in LOCKS})


# --- statistics -----------------------------------------------------------

def percentile(values, q):
    """Nearest-rank q-th percentile of values, with its sample count.

    Returns (value, n); value is NaN when there are no samples.
    """
    v = sorted(values)
    if not v:
        return float("nan"), 0
    k = max(1, math.ceil(q / 100.0 * len(v)))
    return v[k - 1], len(v)


def union_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals
                       if b > lo and a < hi):
        if cur is None or a > cur[1]:
            if cur is not None:
                total += cur[1] - cur[0]
            cur = [a, b]
        else:
            cur[1] = max(cur[1], b)
    if cur is not None:
        total += cur[1] - cur[0]
    return total


def self_time(span, children):
    """A span's self time: its duration minus the union of its children."""
    return (span[1] - span[0]) - union_length(children, span[0], span[1])


def geomean(xs):
    xs = [x for x in xs if x > 0]
    return math.exp(sum(map(math.log, xs)) / len(xs)) if xs else float("nan")


# --- the daemon's registry, read over !health -------------------------------

def counter(health, name):
    return health.get("telemetry", {}).get("counters", {}).get(name, 0)


def gauge(health, name):
    return health.get("telemetry", {}).get("gauges", {}).get(name, 0)


def hist(health, name, stat):
    """Histogram field 'count', 'p50', 'p95', 'p99' or 'max', whatever
    unit suffix the registry gave it (p50_ns, p50_reqs, ...)."""
    h = health.get("telemetry", {}).get("histograms", {}).get(name, {})
    for key, value in h.items():
        if key == stat or key.startswith(stat + "_"):
            return value
    return 0


def counter_deltas(before, after):
    """Every registry counter's change between two readings."""
    names = set(after.get("telemetry", {}).get("counters", {}))
    names |= set(before.get("telemetry", {}).get("counters", {}))
    return {n: counter(after, n) - counter(before, n) for n in sorted(names)}


# --- the traced replay -------------------------------------------------------

def replay_spans(path):
    """Self times of the replay's layer spans (`pb.*`), in microseconds.

    The file holds one Chrome trace document per replay batch. A layer
    span's children are the program's own spans on the same thread
    (scavenge, fullgc.*, safepoint.rendezvous, lock.wait, lookup.miss,
    ctx.refill); GC time is the part of layer spans the GC spans cover.
    """
    self_us, gc_us, requests = {}, 0.0, set()
    with open(path) as f:
        for line in f:
            threads = {}
            for e in json.loads(line)["traceEvents"]:
                if e.get("ph") == "X":
                    threads.setdefault((e["pid"], e["tid"]), []).append(e)
            for events in threads.values():
                kids = [(e["ts"], e["ts"] + e["dur"], e["name"])
                        for e in events if not e["name"].startswith("pb.")]
                gc = [(a, b) for a, b, n in kids if n in GC_SPANS]
                for e in events:
                    if not e["name"].startswith("pb."):
                        continue
                    s, t = e["ts"], e["ts"] + e["dur"]
                    inside = [(a, b) for a, b, _ in kids if b > s and a < t]
                    self_us.setdefault(e["name"], []).append(
                        self_time((s, t), inside))
                    gc_us += union_length(gc, s, t)
                    if "args" in e:
                        requests.add(e["args"]["value"])
    return {"self_us": self_us, "gc_us": gc_us, "requests": len(requests)}


# --- evaluation --------------------------------------------------------------

class Result:
    def __init__(self):
        self.e2e = {}      # name -> (value, n)
        self.layers = {}   # name -> (value, note on its base)
        self.extra = {}    # report-only per-layer values
        self.checks = []   # (what, ok, detail)
        self.attempted = 0
        self.failed = 0
        self.phases = []   # (name, phase dict, counter deltas, health)
        self.lateness_ms = None  # paced generator lateness (p99, max)

    def check(self, what, ok, detail="", counted=False):
        """Records a check. A failed one counts as one failed operation,
        unless (counted=True) its operations are already in self.failed."""
        self.checks.append((what, bool(ok), detail))
        if not ok and not counted:
            self.failed += 1


def _serve(r, raw):
    load = raw["load"]
    r.check("load generator", not load.get("problem"), load.get("problem", ""))
    r.check("mst_serve drained and exited 0 on every SIGTERM", raw["stopped"])
    phases = load.get("phases", {})
    health = load.get("health", {})
    # session binds, state set-ups, counter read-backs
    r.attempted += 3 * SHARDS

    def segments(name):
        p = phases.get(name)
        return p if isinstance(p, list) else ([p] if p else [])

    merged = {}
    for name in ("warmup", "paced", "closed"):
        total = {"sent": 0, "ok": 0, "err": 0, "wrong": 0, "transport": 0,
                 "elapsed_s": 0.0}
        problems = []
        for p in segments(name):
            for k in total:
                total[k] += p[k]
            if p.get("first_problem"):
                problems.append(p["first_problem"])
        bad = total["err"] + total["wrong"] + total["transport"]
        r.check("%s answers (%d segments)" % (name, len(segments(name))),
                bad == 0, "; ".join(problems[:1]), counted=True)
        r.attempted += total["sent"]
        r.failed += total["err"] + total["wrong"] + total["transport"]
        merged[name] = total
    bounds = ["start", "warm", "paced", "closed"]
    for (a, b), name in zip(zip(bounds, bounds[1:]),
                            ("warmup", "paced", "closed")):
        if a in health and b in health:
            r.phases.append((name, merged[name],
                             counter_deltas(health[a], health[b]),
                             health[b]))
    if not segments("paced") or not segments("closed"):
        return
    # Each measured phase ran as segments; every metric is the median of
    # its per-segment values, with the samples of all segments counted.
    paced, closed = segments("paced"), segments("closed")
    lat = [[x / 1e6 for x in p["latency_ns"]] for p in paced]
    n = sum(len(x) for x in lat)
    r.e2e["throughput_rps"] = (
        statistics.median(p["ok"] / p["elapsed_s"] for p in closed),
        merged["closed"]["ok"])
    r.e2e["latency_p50_ms"] = (
        statistics.median(percentile(x, 50)[0] for x in lat), n)
    r.e2e["latency_p99_ms"] = (
        statistics.median(percentile(x, 99)[0] for x in lat), n)
    r.e2e["server_cpu_us_per_req"] = (
        statistics.median(p["server_cpu_s"] / p["sent"] * 1e6
                          for p in paced), merged["paced"]["sent"])
    late = [x / 1e6 for p in paced for x in p["lateness_ns"]]
    r.lateness_ms = (percentile(late, 99)[0], max(late))

    w, pc, cl = health["warm"], health["paced"], health["closed"]
    dp = counter_deltas(w, pc)
    dm = counter_deltas(w, cl)
    reqs = max(1, dp.get("serve.requests", 0))
    r.layers["objmem.scavenges_per_kreq"] = (
        dp.get("gc.scavenges", 0) / reqs * 1000, "per 1000 of %d paced" % reqs)
    r.layers["objmem.scavenge_pause_ms.p50"] = (
        hist(pc, "gc.scavenge.pause", "p50") / 1e6,
        "n=%d since daemon start" % hist(pc, "gc.scavenge.pause", "count"))
    r.layers["objmem.scavenge_pause_ms.p99"] = (
        hist(pc, "gc.scavenge.pause", "p99") / 1e6,
        "n=%d since daemon start" % hist(pc, "gc.scavenge.pause", "count"))
    r.layers["objmem.full_collections"] = (
        dm.get("gc.full.collections", 0), "paced+closed phases")
    r.layers["objmem.tenured_bytes_per_req"] = (
        dp.get("gc.bytes.tenured", 0) / reqs, "base %d paced" % reqs)
    r.layers["objmem.old_used_mb"] = (gauge(pc, "mem.old.used") / 2**20,
                                      "all shards, end of paced")
    r.layers["objmem.oldspace_lock_delays"] = (
        dm.get("lock.oldspace.delays", 0), "paced+closed phases")
    client_p50 = r.e2e["latency_p50_ms"][0]
    lat50 = hist(pc, "serve.latency", "p50") / 1e6
    wait50 = hist(pc, "serve.queue.wait", "p50") / 1e6
    r.extra.update({
        "serve.frontend.outside_ms.p50": (client_p50 - lat50, "ms"),
        "serve.batcher.queue_wait_ms.p50": (wait50, "ms"),
        "serve.batcher.queue_wait_ms.p99":
            (hist(pc, "serve.queue.wait", "p99") / 1e6, "ms"),
        "serve.batcher.batch_size.p50": (hist(pc, "serve.batch.size", "p50"),
                                         "count"),
        "serve.batcher.batch_size.p99": (hist(pc, "serve.batch.size", "p99"),
                                         "count"),
        "serve.journal.fsyncs_per_kreq":
            (dp.get("serve.journal.fsyncs", 0) / reqs * 1000, "count"),
        "serve.journal.dedup_hits": (counter(cl, "serve.dedup.hits"),
                                     "count"),
        "serve.shard.service_ms.p50": (lat50 - wait50, "ms"),
        "serve.shard.service_ms.p99":
            ((hist(pc, "serve.latency", "p99")
              - hist(pc, "serve.queue.wait", "p99")) / 1e6, "ms"),
        "serve.shard.restarts": (counter(cl, "serve.shard.restarts"),
                                 "count"),
        "vm.compiler.old_bytes_per_req":
            ((gauge(pc, "mem.old.used") - gauge(w, "mem.old.used")) / reqs,
             "B"),
        "objmem.full_pause_ms.p50": (hist(cl, "gc.full.pause", "p50") / 1e6,
                                     "ms"),
        "objmem.full_pause_ms.max": (hist(cl, "gc.full.pause", "max") / 1e6,
                                     "ms"),
        "objmem.safepoint_rendezvous_us.p99":
            (hist(cl, "gc.safepoint.rendezvous", "p99") / 1e3, "us"),
        "image.load_ms": (hist(cl, "img.load.millis", "p50"), "ms"),
        "image.save_pause_ms.p99": (hist(cl, "img.save.pause", "p99") / 1e6,
                                    "ms"),
    })
    if raw["workload"] == "serve_small":
        r.check("serve_small ends below its first full collection",
                counter(cl, "gc.full.collections") == 0,
                "%d full collections" % counter(cl, "gc.full.collections"))
    else:
        r.check("every shard ran a full collection before measuring",
                counter(w, "gc.full.collections") >= SHARDS,
                "%d full collections" % counter(w, "gc.full.collections"))
    r.check("no shard restarts", counter(cl, "serve.shard.restarts") == 0)


def _serve_states(r, raw):
    states = raw["states"]
    for s in STATES:
        st = states["states"][s]
        blocks = st["blocks_cpu_s"]
        r.attempted += len(blocks) * states["count"]
        r.layers["vm.interpreter.%s_cpu_s" % s] = (
            statistics.median(blocks) if blocks else float("nan"),
            "median of %d blocks of %d requests" % (len(blocks),
                                                    states["count"]))
        r.check("%s state answers" % s, not st["problem"], st["problem"])
    bs = r.layers["vm.interpreter.bs_cpu_s"][0]
    r.layers["vm.interpreter.mp_overhead"] = (
        r.layers["vm.interpreter.ms_cpu_s"][0] / bs, "ms/bs")
    r.layers["vm.interpreter.busy_overhead"] = (
        r.layers["vm.interpreter.busy_cpu_s"][0] / bs, "busy/bs")


def _macro(r, raw):
    states = raw["states"]
    per_state = {}
    all_runs, best_wall = [], []
    for s in STATES:
        st = states["states"][s]
        runs = st["runs"]
        all_runs += runs
        r.attempted += len(runs)
        bad = sum(1 for x in runs if not x["ok"])
        r.failed += bad
        r.check("%s cells report Ok, empty VM error log" % s,
                bad == 0 and not st["errors"] and not st["problem"],
                st["problem"], counted=bad > 0)
        # Each cell keeps its least-disturbed run, as bench_table2 does:
        # host interference only ever adds time.
        cpu, wall = {}, {}
        for x in runs:
            cpu.setdefault(x["bench"], []).append(x["cpu_s"])
            wall.setdefault(x["bench"], []).append(x["wall_s"])
        per_state[s] = {b: min(v) for b, v in cpu.items()}
        best_wall += [min(v) for v in wall.values()]
        r.layers["vm.interpreter.%s_cpu_s" % s] = (
            sum(per_state[s].values()),
            "sum over 8 benchmarks of the minimum of %d runs" %
            (len(runs) // max(1, len(per_state[s]))))
        for b, v in sorted(per_state[s].items()):
            r.extra["macro.%s.%s.cpu_s" % (s, MACRO_NAMES[b])] = (v, "s")
    cells = [v for s in STATES for v in per_state[s].values()]
    lat_ms = [x["wall_s"] * 1e3 for x in all_runs]
    r.e2e["throughput_rps"] = (len(best_wall) / sum(best_wall),
                               len(all_runs))
    r.e2e["latency_p50_ms"] = percentile(lat_ms, 50)
    r.e2e["latency_p99_ms"] = percentile(lat_ms, 99)
    r.e2e["server_cpu_us_per_req"] = (sum(cells) / len(cells) * 1e6,
                                      len(all_runs))
    bs = per_state["bs"]
    for s, name in (("ms", "mp_overhead"), ("busy", "busy_overhead")):
        r.layers["vm.interpreter." + name] = (
            geomean([per_state[s][b] / bs[b] for b in bs if bs[b] > 0]),
            "geomean of %s/bs over %d benchmarks" % (s, len(bs)))
    ms = states["states"]["ms"]
    reqs = max(1, len(ms["runs"]))
    r.layers["objmem.scavenges_per_kreq"] = (
        counter(ms, "gc.scavenges") / reqs * 1000,
        "per 1000 of %d ms-state executions" % reqs)
    for q in ("p50", "p99"):
        r.layers["objmem.scavenge_pause_ms." + q] = (
            hist(ms, "gc.scavenge.pause", q) / 1e6,
            "n=%d, ms state" % hist(ms, "gc.scavenge.pause", "count"))
    r.layers["objmem.full_collections"] = (
        sum(counter(states["states"][s], "gc.full.collections")
            for s in STATES), "all states")
    r.layers["objmem.tenured_bytes_per_req"] = (
        counter(ms, "gc.bytes.tenured") / reqs, "base %d ms-state" % reqs)
    r.layers["objmem.old_used_mb"] = (gauge(ms, "mem.old.used") / 2**20,
                                      "end of ms state")
    r.layers["objmem.oldspace_lock_delays"] = (
        counter(states["states"]["busy"], "lock.oldspace.delays"),
        "busy state")
    r.extra["image.load_ms"] = (hist(ms, "img.load.millis", "p50"), "ms")


def _busy_locks(r, raw):
    busy = raw["states"]["states"]["busy"]
    for k in LOCKS:
        acq = counter(busy, "lock.%s.acquisitions" % k)
        r.layers["vkernel.%s.contended_ratio" % k] = (
            counter(busy, "lock.%s.contended" % k) / acq if acq else 0.0,
            "base %d acquisitions, busy state" % acq)


def _replay(r, raw):
    rp = raw["replay"]
    spans = rp["spans"]
    self_us = spans["self_us"]
    r.attempted += rp["count"] * 2
    r.check("replay answers", not rp["problem"] and not rp["errors"],
            rp["problem"])

    def med(name):
        v = self_us.get(name, [])
        return (statistics.median(v) if v else float("nan"),
                "n=%d" % len(v))

    r.layers["serve.frontend.parse_us"] = med("pb.parse")
    r.layers["serve.frontend.format_us"] = med("pb.format")
    r.layers["serve.journal.append_us"] = med("pb.journal.append")
    for q in (50, 99):
        v, n = percentile(self_us.get("pb.journal.sync", []), q)
        r.layers["serve.journal.sync_us.p%d" % q] = (v, "n=%d" % n)
    r.layers["vm.compiler.compile_us"] = med("pb.compile")
    r.layers["vm.interpreter.execute_us"] = med("pb.execute")
    r.layers["vm.interpreter.render_us"] = med("pb.render")
    r.layers["objmem.gc_us"] = (spans["gc_us"] / max(1, spans["requests"]),
                                "mean over %d requests" % spans["requests"])
    plain, traced = rp["plain"], rp["traced"]
    r.layers["perfbench.tracing_overhead"] = (
        traced["cpu_s"] / plain["cpu_s"] - 1.0, "traced/plain replay CPU - 1")
    d = counter_deltas({"telemetry": rp["telemetry_before"]},
                       {"telemetry": rp["telemetry_plain"]})
    hits, misses = d.get("methodcache.hits", 0), d.get("methodcache.misses", 0)
    r.layers["vm.interpreter.methodcache_hit_ratio"] = (
        hits / max(1, hits + misses), "base %d lookups" % (hits + misses))
    ret = d.get("freectx.returns", 0)
    r.layers["vm.interpreter.freectx_reuse_ratio"] = (
        d.get("freectx.reuses", 0) / max(1, ret), "base %d returns" % ret)
    r.layers["vm.interpreter.bytecodes_per_cpu_s"] = (
        plain["bytecodes"] / plain["cpu_s"], "replay, spans off")


def evaluate(workload, raw, trace):
    """Turns the raw driver output into checks, metrics and the result
    line run.py prints last."""
    r = Result()
    raw["workload"] = workload
    setups = raw["setups"]
    r.attempted += len(setups)
    r.e2e["setup_s"] = (statistics.median(setups), len(setups))
    r.e2e["peak_rss_mb"] = (raw["rss_kb"] / 1024.0, 1)
    if workload == "macro_table2":
        _macro(r, raw)
    else:
        _serve(r, raw)
    if trace:
        if workload != "macro_table2":
            _serve_states(r, raw)
        _busy_locks(r, raw)
        _replay(r, raw)
    elif workload == "macro_table2":
        _busy_locks(r, raw)
    correct = r.failed == 0 and all(ok for _, ok, _ in r.checks)
    wanted = PER_LAYER if trace else END_TO_END
    values = r.layers if trace else r.e2e
    line_metrics = {}
    for name in wanted:
        unit = PER_LAYER[name] if trace else E2E_UNITS[name]
        value = values.get(name, (float("nan"),))[0]
        if not math.isfinite(value):
            correct = False
            r.check("metric %s measured" % name, False)
            value = 0.0
        line_metrics[name] = {"value": value, "unit": unit}
    r.line = {"correct": correct, "attempted": max(1, r.attempted),
              "failed": r.failed, "metrics": line_metrics}
    return r


def report(workload, prov, r):
    out = ["== perfbench %s ==" % workload, "provenance:"]
    for k, v in prov.items():
        out.append("  %-14s %s" % (k, v))
    if r.lateness_ms:
        out.append("  %-14s p99 %.3f ms, max %.3f ms" %
                   ("gen_lateness", r.lateness_ms[0], r.lateness_ms[1]))
    for name, p, deltas, health in r.phases:
        out.append("phase %s: sent %s ok %s err %s wrong %s transport %s "
                   "elapsed %.3f s" % (name, p.get("sent"), p.get("ok"),
                                       p.get("err"), p.get("wrong"),
                                       p.get("transport"),
                                       p.get("elapsed_s", 0)))
        moved = ["%s=%d" % kv for kv in deltas.items() if kv[1]]
        out.append("  registry deltas: " + " ".join(moved))
        hs = health.get("telemetry", {}).get("histograms", {})
        for hname, h in sorted(hs.items()):
            if h.get("count"):
                out.append("  %s (since daemon start) %s" % (
                    hname, " ".join("%s=%s" % kv for kv in h.items())))
    out.append("end-to-end:")
    for name, (value, n) in r.e2e.items():
        out.append("  %-24s %14.4f %-6s n=%d%s" % (
            name, value, E2E_UNITS[name], n,
            "" if name in END_TO_END else "  (not gated)"))
    out.append("  %-24s %14.6f %-6s base %d attempted" % (
        "error_ratio", r.failed / max(1, r.attempted), "ratio",
        r.attempted))
    out.append("per-layer:")
    for name, (value, note) in sorted(r.layers.items()):
        out.append("  %-40s %14.4f %-6s %s" % (name, value,
                                               PER_LAYER.get(name, ""), note))
    for name, (value, unit) in sorted(r.extra.items()):
        out.append("  %-40s %14.4f %-6s (report only)" % (name, value, unit))
    out.append("checks:")
    for what, ok, detail in r.checks:
        out.append("  [%s] %s %s" % ("ok" if ok else "FAIL", what, detail))
    return "\n".join(out)
