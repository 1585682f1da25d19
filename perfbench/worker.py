"""One workload of the a6k3 benchmark, run in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S [--trace]
    python3 perfbench/worker.py WORKLOAD --setup-only
    python3 perfbench/worker.py cli_all --traced-main

run.py starts this script once per run, so cache contents and peak memory
never carry over from one workload to another.  The last line of stdout is
one JSON object with the raw samples; run.py turns them into metrics.

Operations are taken in round-robin order over the workload's inputs, and a
timed run always ends on a complete pass, so every run measures the same mix.
With --trace, passes alternate between traced and untraced, and the tracing
overhead is the difference of their operation times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from inputs import relabelings

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

CLI_ARGS = ["all", "--format", "json"]
CLI_DIGEST = "ac027fccd946ffad638ccb95bdd9786a"
CHILD_TIMEOUT_S = 120
MAX_ERRORS = 5

# Sorted degree columns of the unrelabeled tower groups.
TOWER_DEGREES = {
    "S6": (1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16),
    "PGL29": (1, 1, 8, 8, 8, 8, 9, 9, 10, 10, 10),
    "M10": (1, 1, 9, 9, 10, 10, 10, 16),
    "PGammaL29": (1, 1, 1, 1, 9, 9, 9, 9, 10, 10, 16, 16, 20),
}


class GateError(Exception):
    """A correctness gate of the benchmark did not hold."""


def require(condition, message):
    if not condition:
        raise GateError(message)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_package():
    sys.path.insert(0, str(SRC))
    import a6k3

    if not Path(a6k3.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"a6k3 was imported from {a6k3.__file__}, not from {SRC}")


def run_child(args) -> tuple[subprocess.CompletedProcess, float]:
    t0 = perf_counter()
    proc = subprocess.run(
        args, cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S
    )
    return proc, perf_counter() - t0


def speed_slice() -> float:
    """Current speed of the host, as seconds for a fixed slice of work.

    On a shared host, speed drifts by tens of percent within minutes.  The
    slice times three standard-library kernels like the ones the workloads
    spend their time in (tuple composition with hashing, Fraction
    arithmetic, modular integer arithmetic) and returns the geometric mean
    of the three times.  It uses no a6k3 code, so a change to the program
    cannot move it.  run.py rescales every timed sample by the slices taken
    just before and after it."""
    t0 = perf_counter()
    a = tuple((i * 5 + 3) % 14 for i in range(14))
    p, seen = a, set()
    for _ in range(7000):
        p = tuple(p[i] for i in a)
        seen.add(p)
    t1 = perf_counter()
    acc = [Fraction(0)] * 16
    for k in range(500):
        x = Fraction(k % 7 + 1, k % 5 + 2)
        for i in range(16):
            acc[i] += x * (i + 1)
    t2 = perf_counter()
    n = 0
    for k in range(20000):
        n = (n + pow(k % 240 + 1, 7, 241) * (k & 15)) % 241
    t3 = perf_counter()
    return ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1 / 3)


class Speed:
    """Speed slices bracketing a sequence of timed samples: n samples get
    n + 1 slices, one before the first and one after each."""

    def __init__(self):
        self.slices = [speed_slice()]

    def mark(self):
        self.slices.append(speed_slice())


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliAll) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def in_process_setup_samples(workload, speed) -> list[float]:
    """Set-up times of fresh interpreters, each doing import plus build; the
    worker's own set-up is the last sample."""
    samples = []
    for _ in range(workload.setup_samples - 1):
        proc, _ = run_child([sys.executable, str(HERE / "worker.py"), workload.name, "--setup-only"])
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr.decode()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        speed.mark()
    return samples


# -- workloads ------------------------------------------------------------------


class CliAll:
    """`python -m a6k3.cli all --format json` as a fresh child process."""

    name = "cli_all"
    kinds = ("all",)
    setup_samples = 15
    rss_passes = 3

    def timed_setup(self) -> tuple[list[float], Speed]:
        # cold `import a6k3.cli` in a fresh interpreter; the first, untimed
        # probe writes the bytecode caches, which users do not pay per run
        args = [sys.executable, "-c", "import a6k3.cli"]
        samples = []
        for i in range(self.setup_samples + 1):
            proc, seconds = run_child(args)
            if proc.returncode != 0:
                raise SystemExit(f"import a6k3.cli failed:\n{proc.stderr.decode()}")
            if i:
                samples.append(seconds)
                speed.mark()
            else:
                speed = Speed()
        return samples, speed

    def prepare(self):
        pass

    def degrees(self):
        return (0,)  # the CLI takes no input: empty relabelings

    @staticmethod
    def check_report(returncode, stdout: bytes):
        require(returncode == 0, f"exit status {returncode}")
        digest = hashlib.md5(stdout).hexdigest()
        require(digest == CLI_DIGEST, f"stdout md5 {digest} != {CLI_DIGEST}")
        require(json.loads(stdout)["verdict"] == "M10_2", "verdict is not M10_2")

    def op(self, kind, images):
        proc, _ = run_child([sys.executable, "-m", "a6k3.cli", *CLI_ARGS])
        self.check_report(proc.returncode, proc.stdout)

    def traced_op(self, kind, images) -> dict:
        proc, _ = run_child([sys.executable, str(HERE / "worker.py"), self.name, "--traced-main"])
        require(proc.returncode == 0, f"traced child failed:\n{proc.stderr.decode()}")
        return json.loads(proc.stdout.splitlines()[-1])


class RelabelIdentify:
    """identify() on a relabeled copy of each candidate, round robin."""

    name = "relabel_identify"
    setup_samples = 5
    rss_passes = 10

    def setup(self):
        from a6k3.extbuild import KINDS, build_all_candidates

        self.kinds = KINDS
        self.cands = build_all_candidates()

    def prepare(self):
        # called through the modules, so that a traced run sees these calls
        import a6k3.extbuild
        import a6k3.permgrp

        self.extbuild, self.permgrp = a6k3.extbuild, a6k3.permgrp

    def degrees(self):
        return tuple(self.cands[k].group.degree for k in self.kinds)

    def op(self, kind, images):
        t = self.permgrp.Perm(images)
        ti = t.inverse()
        gens = tuple(t * g * ti for g in self.cands[kind].group.generators)
        got = self.extbuild.identify(self.permgrp.closure(gens))
        require(got == kind, f"identify gave {got} for a relabeled {kind}")


class ChartabTower:
    """character_table of a relabeled copy of each tower group, round robin."""

    name = "chartab_tower"
    kinds = tuple(TOWER_DEGREES)
    setup_samples = 9
    rss_passes = 3

    def setup(self):
        from a6k3.pgl9 import build_pgammal29, classify_overgroups

        split = classify_overgroups()
        self.groups = dict(zip(self.kinds, (split.s6, split.pgl, split.m10, build_pgammal29())))

    def prepare(self):
        """The unrelabeled tables at the first two admissible primes."""
        # called through the modules, so that a traced run sees these calls
        import a6k3.chartab
        import a6k3.permgrp

        self.chartab, self.permgrp = a6k3.chartab, a6k3.permgrp
        self.expected = {}
        for kind, G in self.groups.items():
            table = self.chartab.character_table(G)
            again = self.chartab.character_table(G, prime_index=1)
            require(again.prime != table.prime, f"{kind}: the second prime repeats the first")
            require(
                all(v == w for r1, r2 in zip(table.rows, again.rows) for v, w in zip(r1, r2)),
                f"{kind}: the tables at primes {table.prime} and {again.prime} differ",
            )
            self.expected[kind] = tuple(sorted(table.degrees))
            require(self.expected[kind] == TOWER_DEGREES[kind], f"{kind}: degrees {self.expected[kind]}")

    def degrees(self):
        return tuple(self.groups[k].degree for k in self.kinds)

    def op(self, kind, images):
        H = self.permgrp.conjugate_group(self.groups[kind], self.permgrp.Perm(images))
        got = tuple(sorted(self.chartab.character_table(H).degrees))
        require(got == self.expected[kind], f"relabeled {kind}: degrees {got}")


WORKLOADS = {w.name: w for w in (CliAll, RelabelIdentify, ChartabTower)}


# -- timed and traced loops ----------------------------------------------------


class Loop:
    """Runs passes over the workload's kinds until the deadline."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.inputs = relabelings(workload.name, seed, workload.degrees())
        self.ops = []  # [kind, seconds, ok]
        self.errors = []

    def one(self, kind, call) -> float:
        images = next(self.inputs)
        t0 = perf_counter()
        try:
            call(kind, images)
            ok = True
        except Exception:
            ok = False
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(traceback.format_exc())
        seconds = perf_counter() - t0
        self.ops.append([kind, seconds, ok])
        return seconds

    def run_pass(self, call) -> float:
        """Mean operation time over one pass of every kind."""
        return statistics.fmean(self.one(kind, call) for kind in self.workload.kinds)


def timed(workload, loop, seconds) -> dict:
    """Passes until the deadline.  Peak RSS is read after a fixed number of
    passes, because the caches grow with every input and a faster machine
    would otherwise report more memory."""
    passes, speed = [], Speed()
    t0 = perf_counter()
    while len(passes) < workload.rss_passes or perf_counter() - t0 < seconds:
        passes.append(loop.run_pass(workload.op))
        speed.mark()
        if len(passes) == workload.rss_passes:
            rss = peak_rss_mb(workload)
    return {"passes": passes, "pass_slices": speed.slices, "peak_rss_mb": rss}


def traced(workload, loop, seconds, seed) -> dict:
    """Alternate traced and untraced passes; return per-layer metrics."""
    import tracer

    traced_passes, untraced_passes, op_spans = [], [], []
    totals, hits, calls = [], 0, 0

    def traced_call(kind, images):
        nonlocal hits, calls
        if isinstance(workload, CliAll):
            child = workload.traced_op(kind, images)
            require(child["ok"], child.get("error", "traced main() failed"))
            spans, (h, c) = child["spans"], child["cache"]
        else:
            spans, (h, c), _ = tracer.run_traced("op", len(loop.ops), lambda: workload.op(kind, images))
        op_spans.append(spans)
        totals.append(tracer.layer_totals(spans))
        hits += h
        calls += c

    t0 = perf_counter()
    while len(untraced_passes) < 1 or perf_counter() - t0 < seconds:
        traced_passes.append(loop.run_pass(traced_call))
        untraced_passes.append(loop.run_pass(workload.op))
    elapsed = perf_counter() - t0

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload.name}-seed{seed}.trace.json"
    path.write_text(json.dumps({"workload": workload.name, "seed": seed, "ops": op_spans}))
    layer = tracer.layer_metrics(
        tracer.merge_totals(totals),
        ops=len(op_spans),
        traced_op_s=statistics.median(traced_passes),
        untraced_op_s=statistics.median(untraced_passes),
        cache_hits=hits,
        cache_calls=calls,
    )
    return {"passes": untraced_passes, "elapsed_s": elapsed, "layer": layer, "trace_file": str(path)}


def traced_main() -> dict:
    """cli.main(["all", "--format", "json"]) under the tracer, stdout captured."""
    import_package()
    import a6k3.cli as cli

    import tracer

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        spans, cache, rc = tracer.run_traced("cli.main", 0, lambda: cli.main(list(CLI_ARGS)))
    result = {"ok": True, "spans": spans, "cache": list(cache)}
    try:
        CliAll.check_report(rc, out.getvalue().encode())
    except GateError as exc:
        result.update(ok=False, error=str(exc))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced-main", action="store_true")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        raise SystemExit("refusing to run under python -O: src/ verifies with assert")
    # One CPU for this process and its children, so that the speed slices
    # run where the measured work runs, cli_all's child processes included.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.traced_main:
        print(json.dumps(traced_main()))
        return 0

    workload = WORKLOADS[args.workload]()
    if isinstance(workload, CliAll):
        setup_s, speed = workload.timed_setup()
    else:
        speed = None if args.setup_only else Speed()
        samples = [] if args.setup_only else in_process_setup_samples(workload, speed)
        t0 = perf_counter()
        import_package()
        workload.setup()
        samples.append(perf_counter() - t0)
        if args.setup_only:
            print(json.dumps({"setup_s": samples[0]}))
            return 0
        speed.mark()
        setup_s = samples
    workload.prepare()

    loop = Loop(workload, args.seed)
    if args.trace:
        result = traced(workload, loop, args.seconds, args.seed)
    else:
        result = timed(workload, loop, args.seconds)
    result.update(
        setup_s=setup_s,
        setup_slices=speed.slices,
        ops=loop.ops,
        errors=loop.errors,
        tracer_imported="tracer" in sys.modules,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
