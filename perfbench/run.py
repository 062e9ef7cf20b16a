#!/usr/bin/env python3
"""Benchmark of the `lhsseq` command line.  Run it from the repository root:

    python3 perfbench/run.py --workload sseq --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--seconds defaults to run_seconds of BENCHMARK.json.

--trace 0 times the workload as a user runs it: one caller starts
`python3 -m lhsseq.cli ...` subprocesses one after another (a closed loop),
in passes over the workload's invocations, as many as fit in --seconds;
before each pass and after the last it times the set-up alone
(setup_probe.py).  It reports the end-to-end metrics of BENCHMARK.json.

--trace 1 makes one pass in which each invocation runs once untraced and
once under layer_trace.py, and reports the per-layer metrics.

Every report is checked, outside the timed region, against the references
in workloads.py.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import KNOWN_WRONG, WORKLOADS, Invocation, workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 150
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread (nproc is 2 on the reference box): with two, `compare`
# spent 70% more CPU in BLAS spin-waits, ran no faster at the median and
# its wall time spread by 10% from run to run instead of 1%.
BLAS_THREADS = 1


@dataclass
class Child:
    """A finished subprocess, with its resource use from wait4."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    traceback: bool


def run_child(argv: list[str], env: dict, log_path: Path) -> Child:
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        exit_code=proc.returncode,
        traceback=b"Traceback (most recent call last)" in log_path.read_bytes(),
    )


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lhsseq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def input_key(args: tuple[str, ...], code: str) -> str:
    """What one invocation's report depends on: the source digest, the
    command line and the bytes of every file the command line names."""
    h = hashlib.sha256(code.encode())
    for arg in args:
        h.update(b"\0" + arg.encode())
        path = ROOT / arg
        if path.is_file():
            h.update(b"\0" + path.read_bytes())
    return h.hexdigest()


@dataclass
class Tally:
    """Outcomes of the checked operations of one run; `wrong` holds each
    distinct (input, problem) once, however often the input ran."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    wrong: set[str] = field(default_factory=set)
    unexpected: set[str] = field(default_factory=set)
    nondeterministic: list[str] = field(default_factory=list)
    digests: dict[tuple, set] = field(default_factory=lambda: defaultdict(set))

    def probe(self, label: str, child: Child) -> None:
        self.attempted += 1
        if child.exit_code != 0 or child.traceback:
            self.failed.append(f"setup probe {label}: exit {child.exit_code}")

    def record(self, inv: Invocation, child: Child, out_path: Path) -> None:
        """Check one invocation's exit status and report."""
        self.attempted += 1
        data = out_path.read_bytes() if out_path.exists() else None
        if child.exit_code != 0 or child.traceback or data is None:
            self.failed.append(f"{inv.label}: exit {child.exit_code}"
                               f"{', traceback' if child.traceback else ''}"
                               f"{', no report' if data is None else ''}")
        if data is None:
            return
        self.digests[inv.args].add(hashlib.sha256(data).hexdigest())
        try:
            problem = inv.check(json.loads(data))
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"unreadable report: {exc!r}"
        if problem is not None:
            self.wrong.add(f"{inv.label}: {problem}")
            if KNOWN_WRONG.get(inv.label) != problem:
                self.unexpected.add(f"{inv.label}: {problem}")

    def check_determinism(self, log_path: Path, code: str) -> None:
        """One report hash per input, within this run and across the runs
        recorded in log_path for the same input (see input_key)."""
        log = json.loads(log_path.read_text()) if log_path.exists() else {}
        for args, hashes in self.digests.items():
            line = " ".join(args)
            if len(hashes) > 1:
                self.nondeterministic.append(f"{line}: {len(hashes)} distinct reports")
            h = min(hashes)
            if log.setdefault(input_key(args, code), h) != h:
                self.nondeterministic.append(f"{line}: report differs from an earlier run")
        tmp = log_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(log, indent=1, sort_keys=True))
        os.replace(tmp, log_path)


def slug(label: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in label)


class Runner:
    def __init__(self, name: str, seed: int, seconds: int):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.invocations = workload(name, seed)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.env["TMPDIR"] = str(OUT / "tmp")
        for var in BLAS_VARS:
            self.env[var] = str(BLAS_THREADS)
        self.tally = Tally()

    def _cli(self, inv: Invocation, traced_stats: Path | None = None) -> Child:
        tag = "traced" if traced_stats else "cli"
        out = OUT / f"{slug(inv.label)}.{tag}.json"
        out.unlink(missing_ok=True)
        if traced_stats is None:
            head = [sys.executable, "-m", "lhsseq.cli"]
        else:
            head = [sys.executable, str(BENCH_DIR / "layer_trace.py"), str(traced_stats)]
        child = run_child([*head, *inv.args, "--out", str(out)], self.env,
                          OUT / f"{slug(inv.label)}.{tag}.log")
        self.tally.record(inv, child, out)
        return child

    def setup_round(self) -> float:
        """Summed set-up time of the workload's invocations, one probe each."""
        total = 0.0
        for inv in self.invocations:
            child = run_child([sys.executable, str(BENCH_DIR / "setup_probe.py"), *inv.args],
                              self.env, OUT / f"{slug(inv.label)}.setup.log")
            self.tally.probe(inv.label, child)
            total += child.wall_s
        return total

    def end_to_end(self) -> tuple[dict, dict]:
        # The first set-up round only fills the bytecode and file caches.
        # The timed ones are spread over the run, before each pass and
        # after the last, so that their median averages over the box's
        # speed drift instead of sampling one moment of it.
        self.setup_round()
        setups, passes = [], []
        start = time.perf_counter()
        while True:
            setups.append(self.setup_round())
            passes.append([self._cli(inv) for inv in self.invocations])
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > self.seconds:  # the next would not fit
                break
        setups.append(self.setup_round())
        metrics = {
            "wall_s": statistics.median(sum(c.wall_s for c in p) for p in passes),
            "cpu_s": statistics.median(sum(c.cpu_s for c in p) for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(max(c.rss_mb for c in p) for p in passes),
        }
        return metrics, {"pass_wall_s": [sum(c.wall_s for c in p) for p in passes],
                         "setup_s_samples": setups}

    def per_layer(self) -> tuple[dict, dict]:
        totals: dict[str, float] = defaultdict(int)
        keys: set[str] = set()
        absent: set[str] = set()
        overhead = 0.0
        for inv in self.invocations:
            stats_path = OUT / f"{slug(inv.label)}.stats.json"
            stats_path.unlink(missing_ok=True)
            # Both reports go under one input in the digest check, so a
            # traced report that differs from the untraced one is caught.
            untraced = self._cli(inv)
            traced = self._cli(inv, traced_stats=stats_path)
            overhead += traced.wall_s - untraced.wall_s
            if not stats_path.exists():
                continue
            stats = json.loads(stats_path.read_text())
            for name, value in stats["metrics"].items():
                totals[name] += value
            keys.update(stats["resolution_keys"])
            absent.update(stats["absent"])
        mult = totals["engine.EngineContext.mult_matrix.calls"]
        res = totals["oracle.minimal_resolution.calls"]
        metrics = dict(totals)
        # 0 when the layer did not run in this workload.
        metrics["engine.mult_matrix.hit_ratio"] = (
            1 - totals["cohomology.RingContext.multiplication_matrix.calls"] / mult if mult else 0.0)
        metrics["oracle.minimal_resolution.distinct_ratio"] = len(keys) / res if res else 0.0
        metrics["trace.overhead_s"] = overhead
        return metrics, {"absent": sorted(absent)}

    def run(self, trace: bool, spec: dict) -> dict:
        OUT.mkdir(exist_ok=True)
        (OUT / "tmp").mkdir(exist_ok=True)
        code = src_digest()
        measured, extra = self.per_layer() if trace else self.end_to_end()
        self.tally.check_determinism(OUT / "report_digests.json", code)
        t = self.tally
        wanted = spec["per_layer" if trace else "end_to_end"]
        record = {
            "workload": self.name,
            "seed": self.seed,
            "trace": int(trace),
            "seconds": self.seconds,
            "invocations": [" ".join(inv.args) for inv in self.invocations],
            "wrong_results": len(t.wrong),
            "failed_runs": len(t.failed),
            "wrong": sorted(t.wrong),
            "unexpected_wrong": sorted(t.unexpected),
            "failures": t.failed,
            "nondeterministic": t.nondeterministic,
            **extra,
            "git_sha": git_sha(),
            "src_sha256": code,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {var: self.env[var] for var in BLAS_VARS},
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
        }
        for m in wanted:
            print(f"{self.name:<8} {m['name']:<55} {measured[m['name']]:>14.6g} {m['unit']}")
        print(f"{self.name:<8} {'wrong_results':<55} {len(t.wrong):>14} count")
        print(f"{self.name:<8} {'failed_runs':<55} {len(t.failed):>14} count")
        for line in [*sorted(t.wrong), *t.failed, *t.nondeterministic]:
            print(f"{self.name:<8} ! {line}")
        (OUT / f"record-{self.name}-seed{self.seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))
        print("record " + json.dumps(record, sort_keys=True))
        return {
            "correct": not (t.failed or t.unexpected or t.nondeterministic),
            "attempted": t.attempted,
            "failed": len(t.failed),
            "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        }


def git_sha() -> str | None:
    """HEAD of the repository at ROOT, or None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("BENCHMARK.json", "src/lhsseq/cli.py", "configs/extraspecial_27.cfg")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a lhsseq source tree, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        result = Runner(name, args.seed, seconds).run(bool(args.trace), spec)
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
