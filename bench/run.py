"""parbetti benchmark: the paper's tables, large closed-form instances and
the Harder-Narasimhan recursion, each run through the ``parbetti`` CLI.

    python3 bench/run.py --workload {tables,closed-large,recursion}
                         [--seed N] [--seconds S] [--trace 0|1] [--serial]

One client in a closed loop: every CLI invocation runs in a fresh
interpreter, one at a time, as a user would run it, so module caches start
cold each time.  The only parallelism is ``PARBETTI_WORKERS=2`` inside
``sweep`` (``--serial`` leaves it unset).  A round runs every job of the
workload once and checks every output (see ``checks.py``); the run repeats
whole rounds while another round still fits in ``--seconds`` (at least one)
and reports the median over its rounds.

The host's speed drifts, so the benchmark pins itself and its jobs to one
CPU (two for pooled sweeps).  Every ``SLICE_S`` of a job's run it stops the
job's process group, times a fixed kernel on those CPUs for ``PROBE_S``
(``calibrate.py``) and lets the job go on; the stopped time is taken out
of every job time.  The round's times are divided by the slowdown that the
kernel showed over the round, so they read as on a host of reference
speed.  The raw times and the slowdown go to the record.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A record of every round goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Probe
from checks import Checker, OutputError, parse_compare, parse_compute, parse_sweep
from instances import WORKLOADS, jobs_for
from reference import load_references
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SLICE_S = 0.2  # job run time between two probes
PROBE_S = 0.025  # kernel time per probe

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Invocation:
    """One finished CLI process: its output, exit code and resource use."""

    def __init__(self, job, code, stdout, stderr, started, paused, cpu, rss_mb, setup, traces):
        self.job, self.code, self.stdout, self.stderr = job, code, stdout, stderr
        self.started, self.paused = started, paused
        self.cpu, self.rss_mb, self.setup = cpu, rss_mb, setup
        self.traces = traces


class Bench:
    def __init__(self, workload, seed, trace, serial, work):
        self.jobs = jobs_for(workload, seed)
        self.trace = trace
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("PARBETTI_WORKERS", None)
        if not serial:
            self.env["PARBETTI_WORKERS"] = "2"
        # children inherit the affinity; a pooled sweep keeps two CPUs
        allowed = sorted(os.sched_getaffinity(0))
        pooled = not serial and any(j.command == "sweep" for j in self.jobs)
        self.cpus = set(allowed[:2]) if pooled else {allowed[-1]}
        os.sched_setaffinity(0, self.cpus)
        self.probe = None  # the current round's
        self.checker = Checker(load_references())
        self.count = 0
        self.problems = []

    def invoke(self, job, trace=False):
        """Run one job in a fresh interpreter."""
        self.count += 1
        stem = self.work / str(self.count)
        doc = stem.with_suffix(".json")
        doc.write_text(json.dumps(job.document()))
        report = stem.with_suffix(".report")
        argv = job.argv(str(doc))
        cmd = [sys.executable, str(HERE / "child.py"), str(report), "1" if trace else "0"]
        out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd + argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT, start_new_session=True)
            try:
                # a traced job runs unstopped, so its spans hold no probe time
                pauses = [] if trace else self.run_probed(proc.pid)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _signal_group(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        parsed_at = setup = None
        if report.exists():
            parsed_at = json.loads(report.read_text())["parsed_at"]
        if parsed_at is not None:
            setup = parsed_at - t0 - sum(min(b, parsed_at) - a for a, b in pauses if a < parsed_at)
        traces = []
        if trace:
            for path in sorted(self.work.glob(report.name + ".trace*")):
                traces.append(json.loads(path.read_text()))
                path.unlink()
        return Invocation(
            job, code, out_path.read_text(), err_path.read_text(), t0,
            sum(b - a for a, b in pauses), usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024, setup, traces,
        )

    def run_probed(self, pid):
        """Wait for the job to exit, stopping its process group every
        ``SLICE_S`` to run a probe; returns the (start, end) of each stop."""
        pauses = []
        fd = os.pidfd_open(pid)  # readable once the job has exited
        try:
            while not select.select([fd], [], [], SLICE_S)[0]:
                if not _signal_group(pid, signal.SIGSTOP):
                    break
                a = time.monotonic()
                self.probe.run(PROBE_S)
                b = time.monotonic()
                _signal_group(pid, signal.SIGCONT)
                pauses.append((a, b))
        finally:
            os.close(fd)
        return pauses

    def check(self, inv):
        """Check one invocation's output; returns the operations that failed."""
        job = inv.job
        if inv.code != 0:
            tail = inv.stderr.strip().splitlines()[-1:] or ["no message"]
            sys.stderr.write(f"{job.label}: exit {inv.code}: {tail[0]}\n")
            return job.operations
        try:
            if job.command == "sweep":
                solved, errors = parse_sweep(inv.stdout)
                for e in errors:
                    sys.stderr.write(f"{job.label}: {e}\n")
            elif job.command == "compare":
                solved, errors = parse_compare(inv.stdout, job.genus, job.degree), []
            else:
                solved = parse_compute(inv.stdout, job.method, job.genus, job.degree)
                errors = []
        except (OutputError, ValueError, KeyError, IndexError) as exc:
            self.problems.append(f"{job.label}: unreadable output: {exc}")
            return 0
        if len(solved) + len(errors) != len(job.cells()) and job.command != "compare":
            self.problems.append(f"{job.label}: {len(solved)} results for {job.operations}")
        for s in solved:
            self.problems += [f"{job.label}: {p}" for p in self.checker.check(s, job.points, job.tag)]
        return len(errors)

    def prepare(self):
        """Untimed set-up: write the bytecode caches, as an installed package
        has them, and fail early when ``src/`` does not import."""
        warm = subprocess.run([sys.executable, "-c", "import parbetti.cli"],
                              env=self.env, cwd=ROOT, capture_output=True, text=True)
        if warm.returncode != 0:
            raise SystemExit(f"error: cannot import parbetti from src/: {warm.stderr.strip()}")

    def round(self):
        rec = {"jobs": [], "attempted": 0, "failed": 0, "self_ns": {}, "counts": {},
               "max_bits": 0}
        walls, cpus, setups, rss = [], [], [], []
        self.probe = Probe(self.cpus)
        self.probe.run(PROBE_S)
        for job in self.jobs:
            inv = self.invoke(job, trace=self.trace)
            failed = self.check(inv)
            wall = time.monotonic() - inv.started - inv.paused  # start to checked output
            self.probe.run(PROBE_S)
            walls.append(wall)
            cpus.append(inv.cpu)
            rss.append(inv.rss_mb)
            setups.append(inv.setup or 0.0)
            rec["attempted"] += job.operations
            rec["failed"] += failed
            rec["jobs"].append({"label": job.label, "wall_s": wall, "cpu_s": inv.cpu,
                                "setup_s": inv.setup, "rss_mb": inv.rss_mb,
                                "exit": inv.code})
            if inv.traces:
                calls = tracer.accumulate(inv.traces, rec)
                rec["jobs"][-1]["poincare_closed_calls"] = calls.get("engine.poincare_closed", 0)
        rec["raw"] = {"wall_s": sum(walls), "cpu_s": sum(cpus), "setup_s": sum(setups)}
        rec["slowdown"] = slow = self.probe.slowdown()
        rec["metrics"] = {
            "wall_s": sum(walls) / slow,
            "cpu_s": sum(cpus) / slow,
            "setup_s": sum(setups) / slow,
            "peak_rss_mb": max(rss),
        }
        if self.trace:
            rec["layers"] = tracer.layer_metrics(rec, len(self.jobs), rec["metrics"]["wall_s"])
        return rec


def _signal_group(pgid, sig):
    """Signal a job's process group; False once it has gone."""
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        return False
    return True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--serial", action="store_true",
                    help="leave PARBETTI_WORKERS unset (single-threaded sweeps)")
    args = ap.parse_args(argv)
    # leave through the cleanup paths, which kill a job even while it is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "parbetti" / "cli.py").is_file():
        sys.stderr.write(f"error: no parbetti sources under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(args.workload, args.seed, args.trace == 1, args.serial, work)
        bench.prepare()
        rounds = []
        start = time.monotonic()
        while True:
            t = time.monotonic()
            rounds.append(bench.round())
            took = time.monotonic() - t
            sys.stderr.write(f"round {len(rounds)}: {took:.2f} s, "
                             f"slowdown {rounds[-1]['slowdown']:.3f}\n")
            if time.monotonic() - start + took > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    key = "layers" if args.trace else "metrics"
    names = list(rounds[0][key])
    units = dict(END_TO_END) if not args.trace else tracer.LAYER_UNITS
    metrics = {
        n: {"value": statistics.median(r[key][n] for r in rounds), "unit": units[n]}
        for n in names
    }
    for p in bench.problems[:20]:
        sys.stderr.write(f"CHECK FAILED {p}\n")
    result = {
        "correct": not bench.problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "result": result, "rounds": [
        {k: v for k, v in r.items() if k not in ("self_ns",)} | {"self_s": {
            n: ns / 1e9 for n, ns in sorted(r["self_ns"].items())}} for r in rounds
    ], "problems": bench.problems}, indent=1))
    for n, m in metrics.items():
        print(f"{n:48s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
