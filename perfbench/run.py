#!/usr/bin/env python3
"""oqec benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of an oqec checkout.  Builds the checker and the
workload program (oqec_perfbench.exe) with dune, runs one workload for S seconds and prints,
as its last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones.  Workloads, metrics and the reasons for
them are described in perfbench/README.md.
"""

import argparse
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_EXE = os.path.join("_build", "default", "perfbench", "oqec_perfbench.exe")
OQEC = os.path.join("_build", "default", "bin", "oqec_cli.exe")
TMP = ".perfbench_tmp"
WORKLOADS = ("compiled-dd", "optimized-zx", "serve-mix")
# One connection on one worker domain.  With the default two domains
# both vCPUs of a 2-core host are busy and every stop-the-world
# collection waits for the slower of them, so the figures follow the
# host's CPU steal; two connections on one domain make each latency the
# sum of two jobs and put the median between two latency modes.  See
# README.md.
SERVE_WORKERS = 1
# Whole-run budget after the build; one run must end within 180 s.
RUN_BUDGET_S = 160.0


class BenchError(Exception):
    """The run cannot produce a result."""


def log(msg):
    print(msg, flush=True)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./" + BENCH_EXE[len("_build/default/"):],
             "./bin/oqec_cli.exe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        raise BenchError("build failed (dune exit %d)" % r.returncode)


def run_bench_exe(args, timeout):
    try:
        r = subprocess.run([BENCH_EXE] + [str(a) for a in args], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("oqec_perfbench did not finish within %.0f s" % timeout)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise BenchError("oqec_perfbench exited with %d" % r.returncode)
    return [seconds_of(json.loads(line)) for line in r.stdout.splitlines() if line.strip()]


def seconds_of(record):
    """oqec_perfbench reports times as whole nanoseconds under "*_ns" keys;
    convert them to seconds under "*_s"."""
    out = {}
    for k, v in record.items():
        if k.endswith("_ns"):
            k = k[:-3] + "_s"
            v = [x / 1e9 for x in v] if isinstance(v, list) else v / 1e9
        out[k] = v
    return out


def mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


# ------------------------------------------------------------- one-shot

def oneshot(workload, seed, seconds, trace):
    lines = run_bench_exe(["oneshot", workload, seed, seconds, 1 if trace else 0],
                       timeout=RUN_BUDGET_S)
    setup = next(x for x in lines if x["type"] == "setup")
    end = next(x for x in lines if x["type"] == "end")
    checks = [x for x in lines if x["type"] == "check"]
    for c in checks:
        c["truth"] = c["kind"] == "equivalent"
        if c["error"]:
            log("check %d (%s %s) raised: %s" % (c["id"], c["family"], c["kind"], c["error"]))
    result = {
        "no_info_ok": workload == "optimized-zx",
        "limit_s": setup["limit_s"],
        "setup_s": statistics.median(setup["setup_s"]),
        "peak_rss_mb": end["vm_hwm_kb"] / 1024.0,
    }
    untraced = [c for c in checks if not c["traced"]]
    if not trace:
        result["checks"] = untraced
        result["wall_s"] = end["wall_s"]
        return result
    traced = [c for c in checks if c["traced"]]
    result["checks"] = traced + untraced
    n = len(traced)
    faulty = [c for c in traced if not c["truth"]]
    mm_hits = sum(c.get("dd_mm_hits", 0) for c in traced)
    mm_all = mm_hits + sum(c.get("dd_mm_misses", 0) for c in traced)

    def m(key):
        return mean(c.get(key, 0) for c in traced)

    def peak(key):
        return max((c.get(key, 0) for c in traced), default=0)

    result["layers"] = {
        "qasm.parse_s": m("parse_s"),
        "qasm.bytes": m("bytes"),
        "compile.route_s": setup["route_s"] / setup["pairs"],
        "compile.optimize_s": setup["optimize_s"] / setup["pairs"],
        "flatten.align_s": m("align_s"),
        "sim.screen_s": m("screen_s"),
        "sim.stimuli": m("stimuli"),
        "sim.refute_frac": refute_frac(faulty, lambda c: c.get("dd_gates", 0)),
        "dd.build_miter_s": m("dd_build_s"),
        "dd.conclude_s": m("dd_conclude_s"),
        "dd.gates_applied": m("dd_gates"),
        "dd.nodes_allocated": m("dd_allocated"),
        "dd.peak_live": peak("dd_peak_live"),
        "dd.mm_hit_rate": mm_hits / mm_all if mm_all else 0.0,
        "dd.gc_runs": m("dd_gc_runs"),
        "zx.translate_s": m("zx_translate_s"),
        "zx.reduce_s": m("zx_reduce_s"),
        "zx.rewrites": m("zx_rewrites"),
        "zx.spiders_peak": peak("zx_spiders_peak"),
        "zx.worklist_peak": peak("zx_worklist_peak"),
        "gc.minor_words": m("minor_words"),
        "gc.promoted_words": m("promoted_words"),
        "gc.major_collections": m("major_collections"),
        "trace.overhead_frac": stats.overhead_frac(
            n / sum(c["latency_s"] for c in traced),
            len(untraced) / sum(c["latency_s"] for c in untraced)),
    }
    log("traced: %d checks traced, %d untraced (each pair both ways)" % (n, len(untraced)))
    return result


def refute_frac(faulty, dd_gates):
    """Faulty pairs the stimuli screen refuted (the DD miter never ran)
    over faulty pairs checked."""
    if not faulty:
        return 0.0
    refuted = [c for c in faulty
               if c["outcome"] == "not equivalent" and dd_gates(c) == 0]
    return len(refuted) / len(faulty)


# ------------------------------------------------------------ serve-mix

class Daemon:
    """One `oqec serve --socket` process with SERVE_WORKERS worker domains."""

    def __init__(self, path):
        self.path = path
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([OQEC, "serve", "--socket", path,
                                      "--jobs", str(SERVE_WORKERS)], cwd=ROOT,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
        deadline = t0 + 30.0
        while True:
            try:
                reply = self.request({"method": "ping"})
                break
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.stop()
                    raise BenchError("oqec serve did not come up")
                time.sleep(0.002)
        if reply.get("event") != "pong":
            self.stop()
            raise BenchError("unexpected reply to ping: %r" % reply)
        self.spawn_s = time.perf_counter() - t0

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(self.path)
        except OSError:
            s.close()
            raise
        return s

    def request(self, msg):
        with self.connect() as s:
            s.sendall((json.dumps(msg) + "\n").encode())
            line = s.makefile("rb").readline()
        if not line:
            raise OSError("connection closed")
        return json.loads(line)

    def vm_hwm_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.request({"method": "shutdown"})
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def client(daemon, rounds, t_start, seconds):
    """One closed-loop connection: submit, wait for the verdict and its
    engine_stats (or an error), then submit the next.  Stops at the first
    round boundary past the time limit."""
    out = []
    try:
        with daemon.connect() as s:
            f = s.makefile("rb")
            for rnd in rounds:
                if time.perf_counter() - t_start >= seconds:
                    break
                for req in rnd:
                    t0 = time.perf_counter()
                    s.sendall(req["request"].encode() + b"\n")
                    rec = {"mode": req["mode"], "truth": req["kind"] == "equivalent",
                           "family": req["family"], "kind": req["kind"]}
                    while True:
                        line = f.readline()
                        if not line:
                            raise OSError("connection closed by oqec serve")
                        ev = json.loads(line)
                        kind = ev.get("event")
                        if kind == "verdict":
                            rec["latency_s"] = time.perf_counter() - t0
                            rec["outcome"] = ev["outcome"]
                            rec["cached"] = ev["cached"]
                        elif kind == "engine_stats":
                            rec["elapsed_s"] = ev["elapsed"]
                            rec["counters"] = {}
                            for e in ev["engines"]:
                                for k, v in e["counters"].items():
                                    rec["counters"][k] = rec["counters"].get(k, 0) + v
                            break
                        elif kind == "error":
                            rec["latency_s"] = time.perf_counter() - t0
                            rec["outcome"] = "error"
                            rec["error"] = "%s: %s" % (ev.get("code"), ev.get("message"))
                            break
                    out.append(rec)
    except (OSError, ValueError, KeyError) as e:
        out.append({"mode": "broken", "outcome": "error", "truth": True,
                    "latency_s": 0.0, "error": str(e)})
    return out


def serve_pass(daemon, rounds, seconds):
    """The connection against one daemon; returns the records, the timed
    wall time and the final server counters."""
    t_start = time.perf_counter()
    recs = client(daemon, rounds, t_start, seconds)
    wall = time.perf_counter() - t_start
    reply = daemon.request({"method": "stats"})
    if reply.get("event") != "server_stats":
        raise BenchError("unexpected reply to stats: %r" % reply)
    return recs, wall, reply["server"]


def check_cache(recs, server):
    """The verdict cache must be read by exactly the plain resubmissions,
    and the combined hit/miss counters must match the schedule."""
    problems = []
    for r in recs:
        if "cached" in r and r["cached"] != (r["mode"] == "cached"):
            problems.append("%s submit answered with cached=%s" % (r["mode"], r["cached"]))
    plain = sum(1 for r in recs if r["mode"] == "cached")
    hits = sum(1 for r in recs if r.get("cached"))
    if hits != plain:
        problems.append("verdict-cache hits %d != plain resubmissions %d" % (hits, plain))
    want = stats.expected_cache_counts(r["mode"] for r in recs)
    got = (server.get("server.cache.hit", -1), server.get("server.cache.miss", -1))
    if got != want:
        problems.append("server.cache.hit/miss %r != expected %r" % (got, want))
    return plain, problems


def serve_mix(seed, seconds, trace):
    os.makedirs(TMP, exist_ok=True)
    tag = "%d" % os.getpid()
    sched = os.path.join(TMP, "serve-%s.jsonl" % tag)
    daemons = []
    try:
        lines = run_bench_exe(["serve-gen", seed, seconds, 1 if trace else 0, sched],
                           timeout=RUN_BUDGET_S / 2)
        setup = lines[-1]
        reqs = [json.loads(line) for line in open(sched)]
        by_round = {}
        for r in reqs:
            by_round.setdefault(r["round"], []).append(r)
        rounds = [by_round[k] for k in sorted(by_round)]
        # Set-up: the draw plus spawning a daemon up to its first pong,
        # three times; the last daemon serves the timed run.
        spawns = []
        for k in range(3):
            d = Daemon(os.path.join(TMP, "s%s-%d.sock" % (tag, k)))
            daemons.append(d)
            spawns.append(d.spawn_s)
            if k < 2:
                d.stop()
        result = {
            "no_info_ok": False,
            "limit_s": setup["limit_s"],
            "setup_s": statistics.median([g + s for g, s in zip(setup["setup_s"], spawns)]),
        }
        if not trace:
            recs, wall, server = serve_pass(daemons[-1], rounds, seconds)
            result["peak_rss_mb"] = daemons[-1].vm_hwm_kb() / 1024.0
            result.update(checks=recs, wall_s=wall)
            plain, problems = check_cache(recs, server)
            result["problems"] = problems
            log("serve: %d requests (%d plain resubmissions), server %s" % (
                len(recs), plain, json.dumps(server, sort_keys=True)))
            return result
        # Traced run: the untraced and the traced half each get a fresh
        # daemon and half the time; which goes first alternates with the
        # seed.  The service emits the same events either way, so the
        # difference is the client's bookkeeping plus noise.
        second = Daemon(os.path.join(TMP, "s%s-t.sock" % tag))
        daemons.append(second)
        order = [("untraced", daemons[-2]), ("traced", second)]
        if seed % 2:
            order.reverse()
        passes = {name: serve_pass(d, rounds, seconds / 2.0) for name, d in order}
        u_recs, u_wall, u_server = passes["untraced"]
        t_recs, t_wall, server = passes["traced"]
        result["checks"] = t_recs + u_recs
        result["problems"] = check_cache(u_recs, u_server)[1] + check_cache(t_recs, server)[1]
        real = [r for r in t_recs if r["mode"] != "cached" and "counters" in r]
        faulty = [r for r in real if not r["truth"]]
        answered = [r for r in t_recs if "elapsed_s" in r]
        waits = stats.wait_times([(r["latency_s"], r["elapsed_s"]) for r in answered])
        try:
            wait_tail = stats.tail(waits)[1]
        except stats.TooFewSamples as e:
            result["problems"].append("serve.wait_tail_s: %s" % e)
            wait_tail = max(waits)

        def m(key):
            return mean(r["counters"].get(key, 0) for r in real)

        log("note: serve.dd_resident_nodes and serve.cache_evict are timing-dependent: "
            "they depend on how many rounds the run reaches")
        # Spans, Dd.stats and GC deltas of the daemon's checks are not
        # observable from here; those layers read 0 (see README.md).
        result["layers"] = {
            "qasm.parse_s": setup["parse_s"] / setup["pairs"],
            "qasm.bytes": setup["bytes"] / setup["pairs"],
            "compile.route_s": setup["route_s"] / setup["pairs"],
            "compile.optimize_s": setup["optimize_s"] / setup["pairs"],
            "flatten.align_s": setup["align_s"] / setup["pairs"],
            "sim.stimuli": m("sim.stimuli"),
            "sim.refute_frac": refute_frac(
                faulty, lambda r: r["counters"].get("dd.gates_applied", 0)),
            "dd.gates_applied": m("dd.gates_applied"),
            "dd.gc_runs": m("dd.gc_runs"),
            "serve.decode_s": setup["decode_s"] / setup["requests"],
            "serve.run_s": mean(r["elapsed_s"] for r in answered),
            "serve.wait_s": mean(waits),
            "serve.wait_tail_s": wait_tail,
            "serve.cache_hit_frac": stats.cache_hit_frac(server),
            "serve.cache_evict": server.get("server.cache.evict", 0),
            "serve.dd_resident_nodes": server.get("server.dd.resident_nodes", 0),
            "trace.overhead_frac": stats.overhead_frac(len(t_recs) / t_wall,
                                                       len(u_recs) / u_wall),
        }
        return result
    finally:
        for d in daemons:
            d.stop()
        for name in os.listdir(TMP):
            if tag in name:
                os.remove(os.path.join(TMP, name))
        try:
            os.rmdir(TMP)
        except OSError:
            pass  # another run is using it


# -------------------------------------------------------------- report

def metric_units(section):
    """{name: unit} of a BENCHMARK.json metric list, in its order."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def report(workload, result, trace):
    checks = result["checks"]
    problems = list(result.get("problems", []))
    ok_frac, decided_frac, counts = stats.verdict_fracs(checks, result["no_info_ok"])
    for c in checks:
        cls = stats.classify(c["truth"], c["outcome"], result["no_info_ok"])
        what = "%s: %s %s -> %s %s" % (cls, c.get("family"), c.get("kind"), c["outcome"],
                                       c.get("error", ""))
        if cls in ("wrong", "failed"):
            problems.append(what)
        elif cls == "inconclusive":
            log("not ok (lowers ok_frac, not a wrong answer): " + what)
    if trace:
        # A layer the workload does not pass through reads 0.
        metrics = {k: (result["layers"].get(k, 0.0), u)
                   for k, u in metric_units("per_layer").items()}
    else:
        lats = [c["latency_s"] for c in checks]
        try:
            tail_p, tail_v = stats.tail(lats)
            log("latency_tail_s is p%g over %d checks" % (tail_p, len(lats)))
        except stats.TooFewSamples as e:
            problems.append("latency_tail_s: %s" % e)
            tail_v = max(lats)
        slowest = max(checks, key=lambda c: c["latency_s"])
        log("slowest check: %.3f s (%s %s); the per-check limit is %g s" % (
            slowest["latency_s"], slowest.get("family"), slowest.get("kind"),
            result["limit_s"]))
        log("throughput_cps at 1 closed-loop client%s: %d checks in %.3f s" % (
            ", %d worker domain(s)" % SERVE_WORKERS if workload == "serve-mix" else "",
            len(checks), result["wall_s"]))
        values = {
            "setup_s": result["setup_s"],
            "latency_p50_s": statistics.median(lats),
            "latency_tail_s": tail_v,
            "throughput_cps": len(checks) / result["wall_s"],
            "ok_frac": ok_frac,
            "decided_frac": decided_frac,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: (values[k], u) for k, u in metric_units("end_to_end").items()}
    log("verdicts: %s" % json.dumps(counts, sort_keys=True))
    for k, (v, u) in metrics.items():
        log("%-26s %.6g %s" % (k, v, u))
    for p in problems:
        log("PROBLEM: %s" % p)
    return {
        "correct": not problems,
        "attempted": len(checks),
        "failed": counts["wrong"] + counts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds <= 0:
        ap.error("--seconds must be positive")
    os.chdir(ROOT)  # socket paths stay short and relative
    # On SIGTERM unwind normally, so every daemon started is shut down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        build()
        ref_start = run_bench_exe(["hostref"], timeout=60)[0]
        log("workload %s, seed %d, %g s, trace %d" % (a.workload, a.seed, a.seconds, a.trace))
        if a.workload == "serve-mix":
            result = serve_mix(a.seed, a.seconds, a.trace == 1)
        else:
            result = oneshot(a.workload, a.seed, a.seconds, a.trace == 1)
        ref_end = run_bench_exe(["hostref"], timeout=60)[0]
        log("host reference (diagnostic, not a metric): cpu loop %.4f s -> %.4f s, "
            "memory walk %.4f s -> %.4f s" % (ref_start["cpu_s"], ref_end["cpu_s"],
                                              ref_start["mem_s"], ref_end["mem_s"]))
        out = report(a.workload, result, a.trace == 1)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
