#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the vrc simulator.

Run from the repository root:

    python3 vrcbench/run.py --workload <rerun|sweep|shard|serve|all>
                            [--seed N] [--seconds S] [--trace 0|1]

The first run builds vrc-sim and the in-process helper (vrcbench-probe)
from source into .bench_build/. Every workload launches real vrc-sim
processes, one operation at a time, and checks every simulated result
against a reference. With --trace 1 the run instead performs the
in-process traced pass, which times each layer's public calls and
writes a span file. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

See vrcbench/README.md for the workloads, metrics and layer mapping.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
EXPECTED = HERE / "expected"

ORGS = ("vr", "rr", "rr-noincl", "vr-rlt")
WORKLOADS = ("rerun", "sweep", "shard", "serve")

END_TO_END = {
    "setup_s": "s",
    "sim_refs_per_s": "1/s",
    "p50_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Printed with the end-to-end metrics but left out of the result's
# metrics (see README.md): p99 of a batch run is its slowest operation
# or two; serve's saturation throughput swings with the host's other
# tenants by nearly the largest bound allowed; and the load generator's
# lateness is a health check, not a property of vrc.
PRINTED_ONLY = {
    "p99_ms": "ms",
    "max_rate_sps": "1/s",
    "loadgen.late_ms.p99": "ms",
}

PER_LAYER = {
    "trace.gen_ns_per_ref": "ns",
    "trace.gen_share": "ratio",
    "trace.encode_ns_per_ref": "ns",
    "trace.decode_ns_per_ref": "ns",
    "vm.tlb_ns_per_translate": "ns",
    "vm.tlb_hit_ratio": "ratio",
    **{f"core.replay_ns_per_ref.{o}": "ns" for o in ORGS},
    "core.cycle_ns_per_ref.vr": "ns",
    "core.construct_us": "us",
    "core.cold_segment_us": "us",
    "sim.summarize_us": "us",
    "sim.runner.parallelism": "cpus",
    "sim.runner.efficiency": "ratio",
    "sim.campaign.overhead_s": "s",
    "shard.overhead_s": "s",
    "shard.useful_ratio": "ratio",
    "shard.speculative": "count",
    "shard.workers_lost": "count",
    "serve.wire_encode_us": "us",
    "serve.wire_decode_us": "us",
    "serve.queue_io_ms.p50": "ms",
    "serve.queue_io_ms.p99": "ms",
    "serve.shed": "count",
    "serve.pool_hit_ratio": "ratio",
    **{f"model.{k}.{o}": ("ratio" if k in ("h1", "h2") else "count")
       for k in ("h1", "h2", "synonym_hits", "inclusion_invals", "bus_tx",
                 "wb_stalls")
       for o in ORGS},
    "tracing.overhead_s.rerun": "s",
    "tracing.overhead_s.sweep": "s",
    **{f"self_s.{layer}": "s"
       for layer in ("trace", "vm", "core", "sim", "shard", "serve")},
}

# Repetitions of the set-up phase; setup_s is their median.
SETUP_REPS = 3
SERVE_SETUP_REPS = 21

# Served segments: every seeded trace split in 8, as vrc-loadgen
# splits a trace by default (--segments=8).
SEGMENTS_PER_TRACE = 8
# Fixed offered rate of the open-loop phase, 1/s: a fifth to two
# fifths of the server's saturation throughput with the seed code on a
# 4-core host (75-145 segments/s as the host's load varies), so
# segments seldom queue and the backlog never grows.
SERVE_RATE = 30.0
SERVE_OPEN_SHARE = 0.65  # share of --seconds spent at the fixed rate
SERVE_WINDOW = 3  # in-flight segments per connection at saturation
# Each connection carries many independent users, so its in-flight cap
# is raised above the open loop's bursts; at the default cap of 4 a
# host stall of ~0.2 s would shed a segment.
SERVE_PER_CLIENT = 32
LATE_LIMIT_MS = 5.0  # loadgen p99 lateness above this: run invalid
TRACED_SERVED = 48  # two passes over the distinct segments

# Per-operation deadlines, seconds; a child past its deadline is killed
# and the operation counts as failed.
OP_DEADLINE = {"rerun": 60.0, "sweep": 60.0, "shard": 90.0}
READY_DEADLINE = 30.0
RUN_BUDGET = 165.0  # no new operation starts after this many seconds

RUN_START = time.perf_counter()  # reset for each workload run
LIVE = []  # children not yet reaped
SAMPLES = []  # (wall_s, cpu_s) of each timed operation, for result.json


def die(msg, code=2):
    print(f"vrcbench: {msg}", file=sys.stderr)
    stop_all()
    sys.exit(code)


def jobs():
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def quantile(values, q):
    """Linear interpolation between order statistics (never past max)."""
    v = sorted(values)
    if not v:
        return float("nan")
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


# ---- build and fingerprint --------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"repository sources not found in {ROOT}; run from a "
            "checkout of the repository")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "ab") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", str(jobs()),
                      "--target", "vrc-sim", "vrcbench-probe"])
        for argv in steps:
            if subprocess.run(argv, stdout=log, stderr=log).returncode:
                die(f"build failed: {' '.join(argv)} "
                    f"(see {BUILD / 'build.log'})")


def vrc_sim():
    return str(BUILD / "vrc" / "tools" / "vrc-sim")


def probe(*args, cwd=None):
    out = subprocess.run([str(BUILD / "vrcbench-probe"), *map(str, args)],
                         cwd=cwd, stdout=subprocess.PIPE, text=True)
    if out.returncode:
        die(f"vrcbench-probe {args[0]} failed ({out.returncode})")
    return out.stdout


def source_identity():
    """The git commit of a clone, else a hash of the sources built."""
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            return "git " + head.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt", "vrcbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree-sha256 " + h.hexdigest()[:16]


def fingerprint():
    fp = json.loads(probe("fingerprint"))
    fp["nproc"] = os.cpu_count()
    fp["cpus_usable"] = len(os.sched_getaffinity(0))
    fp["source"] = source_identity()
    return fp


# ---- children -----------------------------------------------------------

class Child:
    """A launched process, reaped with its own rusage."""

    def __init__(self, argv, cwd, env, stdout=subprocess.DEVNULL,
                 stderr=None):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout,
                                     stderr=stderr, start_new_session=True)
        self.pidfd = os.pidfd_open(self.proc.pid)
        self.code = None
        self.timed_out = False
        self.wall = self.cpu = self.rss_mb = 0.0
        LIVE.append(self)

    def wait(self, timeout):
        """Reap the child; past @timeout kill its process group."""
        ready, _, _ = select.select([self.pidfd], [], [], max(0.0, timeout))
        if not ready:
            self.timed_out = True
            self.kill()
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.wall = time.perf_counter() - self.t0
        self.code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.code
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        os.close(self.pidfd)
        LIVE.remove(self)
        return not self.timed_out

    def kill(self, sig=signal.SIGKILL):
        try:
            os.killpg(self.proc.pid, sig)
        except ProcessLookupError:
            pass

    def read_line(self, prefix, timeout):
        """First stdout line starting with @prefix, or None."""
        fd = self.proc.stdout.fileno()
        buf = b""
        deadline = time.perf_counter() + timeout
        while True:
            nl = buf.find(b"\n")
            while nl >= 0:
                line, buf = buf[:nl].decode(), buf[nl + 1:]
                if line.startswith(prefix):
                    return line
                nl = buf.find(b"\n")
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([fd], [], [], max(0.0, left))
            if not ready:
                return None
            chunk = os.read(fd, 4096)
            if not chunk:
                return None
            buf += chunk


def stop_all():
    for child in list(LIVE):
        child.kill()
        try:
            os.wait4(child.proc.pid, 0)
        except ChildProcessError:
            pass
        child.proc.returncode = -9
        os.close(child.pidfd)
        LIVE.remove(child)


def fresh_home(path):
    """A working directory that also holds HOME/TMPDIR/XDG caches, so
    anything a child caches on disk starts empty in a fresh home."""
    if path.exists():
        shutil.rmtree(path)
    (path / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    env.update(HOME=str(path), TMPDIR=str(path / "tmp"),
               XDG_CACHE_HOME=str(path / ".cache"))
    return path, env


def budget_left():
    return RUN_BUDGET - (time.perf_counter() - RUN_START)


def op_deadline(workload):
    """Seconds the next operation may take: its own deadline, cut short
    near the end of the run's budget."""
    return min(OP_DEADLINE[workload], max(1.0, budget_left()))


# ---- inputs and references ----------------------------------------------

def read_rerun(path):
    cells = []
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            profile, org, refs, summary = line.split(" ", 3)
            cells.append((profile, org, int(refs), summary))
    return cells


def check_stdlib(inputs, fp):
    """Stop with one message when the committed seed-0 results cannot
    hold for this build: recorded with another standard library, and
    a fresh seed-0 reference differs from them."""
    recorded = json.loads((EXPECTED / "recorded_with.json").read_text())
    if recorded["stdlib"] == fp["stdlib"]:
        return
    check = inputs / "stdlib-check"
    check.mkdir()
    probe("profiles", check, 0)
    probe("reference", check, jobs())
    if ((check / "rerun.txt").read_text() !=
            strip_comments(EXPECTED / "rerun_seed0.txt")):
        die("the committed expected results were recorded with "
            f"{recorded['stdlib']}, but this build uses "
            f"{fp['stdlib']}; the trace generator draws through the "
            "standard library's random distributions, so traces and "
            "every result differ. Re-record them with "
            "`python3 vrcbench/run.py --record-expected`.", code=3)


def prepare_inputs(inputs, seed, need, fp):
    """Seeded profiles plus the reference results for @seed.

    Seed 0 uses the committed expected results; every other seed
    computes its reference in-process through the library. The shard
    reference is the committed seed-0 sweep whatever the seed, so the
    standard-library guard runs for every seed. @need is a subset of
    {"reference", "segments"}: segments also computes the served
    segments' expected lines."""
    inputs.mkdir(parents=True)
    check_stdlib(inputs, fp)
    probe("profiles", inputs, seed)
    if "segments" in need:
        probe("segments", inputs)
    shutil.copy(EXPECTED / "sweep_seed0.json", inputs / "shard.json")
    if seed != 0:
        if "reference" in need:
            probe("reference", inputs, jobs())
        return
    shutil.copy(EXPECTED / "rerun_seed0.txt", inputs / "rerun.txt")
    shutil.copy(EXPECTED / "sweep_seed0.json", inputs / "sweep.json")
    if "segments" in need:
        shutil.copy(EXPECTED / "serve_seed0.txt", inputs / "serve.txt")


def strip_comments(path):
    return "".join(l + "\n" for l in path.read_text().splitlines()
                   if not l.startswith("#"))


def record_expected():
    inputs = WORK / "record"
    if inputs.exists():
        shutil.rmtree(inputs)
    inputs.mkdir(parents=True)
    probe("profiles", inputs, 0)
    probe("reference", inputs, jobs())
    probe("segments", inputs)
    EXPECTED.mkdir(exist_ok=True)
    header = "# profile org refs summary-line (vrc-sim --summary), seed 0\n"
    (EXPECTED / "rerun_seed0.txt").write_text(
        header + (inputs / "rerun.txt").read_text())
    shutil.copy(inputs / "sweep.json", EXPECTED / "sweep_seed0.json")
    (EXPECTED / "serve_seed0.txt").write_text(
        "# segment refs RESULT-line, seed 0\n" +
        (inputs / "serve.txt").read_text())
    fp = fingerprint()
    (EXPECTED / "recorded_with.json").write_text(
        json.dumps({"stdlib": fp["stdlib"], "compiler": fp["compiler"]},
                   indent=1) + "\n")
    print(f"recorded expected results in {EXPECTED}")


# ---- results ------------------------------------------------------------

class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def merge(self, probe_result):
        """Fold in the checks a vrcbench-probe run made."""
        self.attempted += probe_result["attempted"]
        self.failed += probe_result["failed"]
        self.reasons += probe_result["errors"][:max(0, 10 - len(
            self.reasons))]

    def record(self, ok, why):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(why)
        return ok


def batch_metrics(setup, ops):
    """End-to-end metrics of a closed-loop batch workload.

    @ops holds (key, wall_s, cpu_s, rss_mb, refs) per timed operation;
    operations with one key are identical work. Rates and CPU average
    per key first, so a partly finished round does not shift the mix."""
    SAMPLES.extend((round(o[1], 6), round(o[2], 6)) for o in ops)
    by_key = {}
    for key, wall, cpu, _, refs in ops:
        by_key.setdefault(key, []).append((wall, cpu, refs))
    mean_wall = sum(statistics.fmean(w for w, _, _ in v)
                    for v in by_key.values())
    walls = [o[1] for o in ops]
    return {
        "setup_s": statistics.median(setup),
        "sim_refs_per_s": sum(v[0][2] for v in by_key.values()) / mean_wall,
        "p50_ms": 1e3 * quantile(walls, 0.50),
        "p99_ms": 1e3 * quantile(walls, 0.99),
        "cpu_s": statistics.fmean(statistics.fmean(c for _, c, _ in v)
                                  for v in by_key.values()),
        "peak_rss_mb": max(o[3] for o in ops),
    }


# ---- workloads ----------------------------------------------------------

def run_rerun(work, inputs, seconds, ledger, notes):
    """12 single-cell vrc-sim runs per round, one client, closed loop."""
    cells = read_rerun(inputs / "rerun.txt")
    log = open(work / "children.log", "ab")

    def one(home, env, profile, org, summary):
        child = Child([vrc_sim(),
                       f"--profile-file={inputs}/{profile}.profile",
                       f"--org={org}", "--summary"], home, env,
                      stdout=subprocess.PIPE, stderr=log)
        finished = child.wait(op_deadline("rerun"))
        out = child.proc.stdout.read().decode()
        child.proc.stdout.close()
        same = out == summary + "\n"
        ledger.record(finished and child.code == 0 and same,
                      f"{profile} {org}: exit {child.code}, timed out "
                      f"{child.timed_out}, output "
                      f"{'matches' if same else 'differs'}")
        return child

    setup = []
    for rep in range(SETUP_REPS):
        home, env = fresh_home(work / f"home{rep}")
        t0 = time.perf_counter()
        for profile, org, _, summary in cells:
            if org == "vr":
                one(home, env, profile, org, summary)
        setup.append(time.perf_counter() - t0)

    ops = []
    t0 = time.perf_counter()
    while len(ops) < len(cells) or (time.perf_counter() - t0 < seconds and
                                    budget_left() > 0):
        profile, org, n, summary = cells[len(ops) % len(cells)]
        c = one(home, env, profile, org, summary)
        ops.append((profile + org, c.wall, c.cpu, c.rss_mb, n))
    notes.append(f"rerun: {len(ops)} runs of {len(cells)} cells in turn; "
                 f"p99 over {len(ops)} samples")
    return batch_metrics(setup, ops)


def sweep_argv(inputs):
    return [vrc_sim(), f"--profile-file={inputs}/thor.profile", "--sweep",
            f"--jobs={jobs()}", "--checkpoint=sweep.ckpt",
            "--out=sweep.json"]


def run_sweep(work, inputs, seconds, ledger, notes):
    """One 12-cell --sweep per operation, closed loop."""
    expected = (inputs / "sweep.json").read_bytes()
    refs = 12 * next(n for profile, _, n, _ in read_rerun(
        inputs / "rerun.txt") if profile == "thor")
    log = open(work / "children.log", "ab")

    def one(home, env):
        for name in ("sweep.ckpt", "sweep.json"):
            (home / name).unlink(missing_ok=True)
        child = Child(sweep_argv(inputs), home, env, stderr=log)
        finished = child.wait(op_deadline("sweep"))
        out = home / "sweep.json"
        same = out.exists() and out.read_bytes() == expected
        ledger.record(finished and child.code == 0 and same,
                      f"sweep: exit {child.code}, timed out "
                      f"{child.timed_out}, result "
                      f"{'matches' if same else 'differs'}")
        return child

    setup = []
    for rep in range(SETUP_REPS):
        home, env = fresh_home(work / f"home{rep}")
        t0 = time.perf_counter()
        one(home, env)
        setup.append(time.perf_counter() - t0)

    ops = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds and budget_left() > 0:
        c = one(home, env)
        ops.append(("sweep", c.wall, c.cpu, c.rss_mb, refs))
    notes.append(f"sweep: {len(ops)} sweeps at --jobs={jobs()}; p99 over "
                 f"{len(ops)} samples")
    return batch_metrics(setup, ops)


def run_shard(work, inputs, seconds, ledger, notes):
    """A 2-worker --coordinate sweep of built-in thor per operation."""
    expected = (inputs / "shard.json").read_bytes()
    refs = 12 * json.loads(expected)["results"][0]["summary"]["refs"]
    home, env = fresh_home(work / "home")
    log = open(work / "children.log", "ab")
    setup, ops = [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds and budget_left() > 0:
        for name in ("shard.sock", "shard.ckpt", "shard.json"):
            (home / name).unlink(missing_ok=True)
        start = time.perf_counter()
        coord = Child([vrc_sim(), "--profile=thor", "--coordinate",
                       "--listen-unix=shard.sock", "--checkpoint=shard.ckpt",
                       "--out=shard.json"], home, env,
                      stdout=subprocess.PIPE, stderr=log)
        deadline = start + op_deadline("shard")
        ready = coord.read_line("listening unix",
                                min(READY_DEADLINE, deadline - start))
        children = [coord]
        # Workers exit at once when the socket does not exist yet, and
        # the coordinator then waits for them without bound.
        if ready and (home / "shard.sock").exists():
            setup.append(time.perf_counter() - start)
            for w in range(2):
                children.append(Child(
                    [vrc_sim(), "--shard-worker",
                     "--connect-unix=shard.sock", f"--worker-name=w{w}"],
                    home, env, stderr=log))
        else:
            coord.kill()
        ok = all([c.wait(deadline - time.perf_counter()) for c in children])
        coord.proc.stdout.close()
        wall = time.perf_counter() - start
        out = home / "shard.json"
        same = out.exists() and out.read_bytes() == expected
        ledger.record(ok and len(children) == 3 and
                      all(c.code == 0 for c in children) and same,
                      f"shard: ready {bool(ready)}, exits "
                      f"{[c.code for c in children]}, result "
                      f"{'matches' if same else 'differs'}")
        ops.append(("shard", wall, sum(c.cpu for c in children),
                    max(c.rss_mb for c in children), refs))
    notes.append(f"shard: {len(ops)} coordinated sweeps, 2 workers, p99 "
                 f"over {len(ops)} samples; "
                 "built-in thor whatever the seed")
    if not setup:
        die("the --coordinate process never listened")
    return batch_metrics(setup, ops)


def start_server(home, env, log):
    (home / "serve.sock").unlink(missing_ok=True)
    start = time.perf_counter()
    server = Child([vrc_sim(), "--serve", "--workers=2",
                    f"--per-client={SERVE_PER_CLIENT}",
                    "--listen-unix=serve.sock", "--manifest=serve.json"],
                   home, env, stdout=subprocess.PIPE, stderr=log)
    ready = server.read_line("listening unix", READY_DEADLINE)
    return server, (time.perf_counter() - start if ready else None)


def stop_server(server, ledger):
    server.kill(signal.SIGTERM)
    finished = server.wait(min(READY_DEADLINE, max(1.0, budget_left())))
    server.proc.stdout.close()
    return ledger.record(finished and server.code == 5,
                         f"server drain: exit {server.code}")


def run_serve(work, inputs, seconds, ledger, notes):
    """Open loop of independent users against vrc-sim --serve."""
    home, env = fresh_home(work / "home")
    log = open(work / "children.log", "ab")

    setup = []
    for _ in range(SERVE_SETUP_REPS):
        server, ready = start_server(home, env, log)
        if ready is not None:
            setup.append(ready)
        stop_server(server, ledger)
    server, ready = start_server(home, env, log)
    if ready is None:
        die("vrc-sim --serve never listened")
    setup.append(ready)

    open_s = SERVE_OPEN_SHARE * seconds
    sat_s = seconds - open_s
    load = json.loads(probe("loadgen", inputs, "serve.sock", server.proc.pid,
                            SERVE_RATE, open_s, sat_s, SERVE_WINDOW,
                            cwd=home))
    stop_server(server, ledger)
    manifest = home / "serve.json"
    drained = manifest.exists() and json.loads(
        manifest.read_text()).get("drained") is True
    ledger.record(drained, "service manifest does not say drained")
    ledger.merge(load)

    capacity = load["sat_completed"] / sat_s
    notes.append(f"serve: {load['open_n']} segments (each seeded trace "
                 f"split in {SEGMENTS_PER_TRACE}) at {SERVE_RATE:g}/s "
                 f"(open loop, 2 connections); p99 over {load['open_n']} "
                 "samples")
    notes.append(f"serve: max_rate_sps is closed-loop saturation, "
                 f"{SERVE_WINDOW} in flight per connection, server busy "
                 f"{load['sat_cpus']:.3g} cpus")
    ledger.record(load["late_p99_ms"] <= LATE_LIMIT_MS,
                  f"INVALID: the load generator ran {load['late_p99_ms']:.3g}"
                  " ms late at p99, so it, not the server, set the pace")
    return {
        "setup_s": statistics.median(setup),
        "sim_refs_per_s": load["open_refs_per_s"],
        "p50_ms": load["p50_ms"],
        "p99_ms": load["p99_ms"],
        "cpu_s": load["open_cpu_s"] / max(1, load["open_n"]),
        "peak_rss_mb": server.rss_mb,
        "max_rate_sps": capacity,
        "loadgen.late_ms.p99": load["late_p99_ms"],
    }


RUNNERS = {"rerun": run_rerun, "sweep": run_sweep, "shard": run_shard,
           "serve": run_serve}


# ---- traced pass --------------------------------------------------------

def self_times(spans_path):
    """Per-layer self time: each span minus the union of its children."""
    spans = [json.loads(l) for l in open(spans_path)]
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        iv = sorted((max(c["start_s"], s["start_s"]),
                     min(c["end_s"], s["end_s"]))
                    for c in kids.get(s["id"], []))
        covered, reach = 0.0, s["start_s"]
        for lo, hi in iv:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + (s["end_s"] - s["start_s"]) - \
            covered
    return out, len(spans)


def run_traced(work, inputs, ledger, notes):
    t0 = time.perf_counter()
    result = json.loads(probe("traced", inputs, jobs(), SERVE_RATE,
                              TRACED_SERVED, SERVE_PER_CLIENT, cwd=work))
    wall = time.perf_counter() - t0
    ledger.merge(result)
    metrics = result["metrics"]
    selfs, n = self_times(inputs / "spans.jsonl")
    for layer in ("trace", "vm", "core", "sim", "shard", "serve"):
        metrics[f"self_s.{layer}"] = selfs.get(layer, 0.0)
    notes.append(f"traced: {n} spans in {inputs / 'spans.jsonl'}; "
                 f"pass took {wall:.3g} s")
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        die(f"traced pass did not report {sorted(missing)}")
    return {k: metrics[k] for k in PER_LAYER}


# ---- main ---------------------------------------------------------------

def run_one(workload, seed, seconds, trace, fp):
    global RUN_START
    RUN_START = time.perf_counter()
    SAMPLES.clear()
    work = WORK / workload
    if work.exists():
        shutil.rmtree(work)
    inputs = work / "inputs"
    need = {"rerun": {"reference"}, "sweep": {"reference"}, "shard": set(),
            "serve": {"segments"}}[workload]
    prepare_inputs(inputs, seed, {"reference", "segments"} if trace else need,
                   fp)
    ledger, notes = Ledger(), []
    if trace:
        values, units = run_traced(work, inputs, ledger, notes), PER_LAYER
    else:
        values = RUNNERS[workload](work, inputs, seconds, ledger, notes)
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "trace": trace,
         "fingerprint": fp, "notes": notes, "failures": ledger.reasons,
         "op_wall_cpu_s": SAMPLES,
         **result}, indent=1) + "\n")

    print(f"== {workload} (seed {seed}, trace {trace})")
    for note in notes:
        print(f"  {note}")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    for k, unit in PRINTED_ONLY.items():
        if k in values:
            print(f"  {k} = {values[k]:.6g} {unit} (printed only)")
    print(f"  error_rate = {ledger.failed / max(1, ledger.attempted):.6g} "
          f"({ledger.failed} of {ledger.attempted} operations failed)")
    for why in ledger.reasons:
        print(f"  failed: {why}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help="re-record vrcbench/expected/ for seed 0")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    os.chdir(ROOT)
    build()
    if args.record_expected:
        record_expected()
        return
    fp = fingerprint()
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    try:
        if args.workload != "all":
            result = run_one(args.workload, args.seed, args.seconds,
                             args.trace, fp)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            runs = [(w, 0) for w in WORKLOADS] + [("rerun", 1)]
            for w, trace in runs:
                r = run_one(w, args.seed, args.seconds, trace, fp)
                result["correct"] &= r["correct"]
                result["attempted"] += r["attempted"]
                result["failed"] += r["failed"]
                label = "traced" if trace else w
                for k, m in r["metrics"].items():
                    result["metrics"][f"{label}/{k}"] = m
    finally:
        stop_all()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
