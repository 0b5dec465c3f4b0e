#!/usr/bin/env python3
"""The tropd4 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It drives the program in
child processes with ``src/`` on the path and imports none of it, except
the published tables of ``src/tropd4/reference.py``, loaded by path.
Every workload is a closed loop: one client process, one op at a time, no
added threads.

Workloads (see ``BENCHMARK.json`` for why each is there):

- ``verify-all``: cold ``tropd4.cli --seed N verify-all`` processes,
  started through ``child.py`` so that their steps can be marked.
- ``hull-membership``: ``point_in_hull`` on seeded rational points and
  the cells of the 48 canonical cone subdivisions.
- ``generic-lift``: lower envelope, basis-exchange verdicts and signature
  of seeded height vectors on the 20 vertices of Delta(3,6), mostly fine
  triangulations that share no cells, so that a cache keyed on repeated
  cells shows what it costs inputs without repeats.

The op count of a run follows from ``--seconds`` alone, never from the
clock, so faster code does not run more ops with warmer caches.

The host this was written on shares its cores with other tenants, and its
speed drifts by up to 1.7x for minutes at a time.  So every time reported
with ``--trace 0`` is scaled to a reference host speed, read by a probe
loop that the clients run between ops (``hostspeed.py``); the unscaled
times are in the environment line.  An op of ``verify-all`` is one
process of about 11,000 steps: the clock is read at the start of each
check and of each sample of its two sweeps (``child.install_marks``), and
each step is scaled by the probes around it.  The end-to-end metrics, the
same on every workload:

- ``setup_s``: median over nine fresh processes of importing tropd4 and
  building ``compute_fan_f36()`` and ``reference_signatures()``, each
  scaled by probes just before and after it;
- ``wall_s``: the sum of the op times, that is the verify-all processes
  or the op loop;
- ``ops_per_s``, ``op_ms_p50`` and ``op_ms_p90`` over the op times;
- ``peak_rss_mb``: the largest client process;
- ``ok_ratio``: the share of ops whose outputs passed their checks.

With ``--trace 1`` it runs the same ops once plain and once with spans
around each public function (``spans.py``), and reports the per-layer
metrics and the tracing overhead (traced over plain op time, both
scaled).
The first line of output records the environment, the last line the
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from time import perf_counter

import checks
import hostspeed
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Digest of each verify-all report, by its arguments, kept across the runs
# made in one checkout: a report must not change between runs of one seed.
DIGESTS = ROOT / ".perfbench-digests.json"

# Nominal seconds per op on a 2-core box with Python 3.11 when the
# benchmark was written.  They only turn --seconds into a fixed op count.
OP_SECONDS = {"verify-all": 17.0, "generic-lift": 0.3,
              "hull-membership": 0.025}
# generic-lift needs a third op to include a matroidal lift.
MIN_OPS = {"verify-all": 1, "generic-lift": 3, "hull-membership": 10}
SETUP_REPEATS = 9
TINY_VERIFY = ["--samples-per-cone", "1", "--cover-samples", "100"]

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
                    "op_ms_p50": "ms", "op_ms_p90": "ms",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def per_layer_units():
    units = spans.metric_units()
    units["trace.overhead_ratio"] = "ratio"
    return units


@dataclass
class Pass:
    """What one pass over a workload's ops measured and checked.

    ``op_s`` holds the op times as measured, and ``ref_s`` the same at the
    reference host speed.
    """

    traced: bool = False
    op_s: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)
    failed: int = 0
    rss_kb: int = 0
    span_files: list = field(default_factory=list)


class Runner:
    """Starts the child processes of one benchmark run."""

    def __init__(self, workdir):
        self.workdir = workdir
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (
            os.pathsep + path if path else ""))

    def spawn(self, argv, stdin=None):
        """Run a child to its end: exit code, stdout, clock readings at
        its start and end, peak RSS KiB."""
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable] + argv, cwd=ROOT, env=self.env,
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE)
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        end = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, (start, end), usage.ru_maxrss

    def child(self, args, result, stdin=None):
        """``child.py`` with ``args``; traced children add a span file."""
        argv = [str(HERE / "child.py")]
        if result.traced:
            path = self.workdir / f"spans-{len(result.span_files)}.json"
            result.span_files.append(path)
            argv += ["--trace", str(path)]
        return self.spawn(argv + args, stdin)


def same_as_earlier_runs(args, report):
    """Whether ``report`` is byte-identical to the first one recorded for
    ``args`` in this checkout; the first one is recorded."""
    key = " ".join(args)
    digest = hashlib.sha256(report).hexdigest()
    known = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if key not in known:
        known[key] = digest
        DIGESTS.write_text(json.dumps(known, indent=1, sort_keys=True))
    return known[key] == digest


def run_verify_all(runner, inputs, ref, result):
    """Each op is one verify-all process, split into steps at the marks
    of ``child.install_marks``; each step is scaled by the probes near it."""
    seed, count, tiny = inputs
    args = ["--seed", str(seed), "verify-all"] + (TINY_VERIFY if tiny else [])
    for k in range(count):
        marks = runner.workdir / f"marks-{int(result.traced)}-{k}.json"
        code, out, (start, end), rss = runner.child(
            ["--marks", str(marks), "cli"] + args, result)
        result.rss_kb = max(result.rss_kb, rss)
        try:
            ok = code == 0 and checks.verify_report_ok(out, ref)
        except (ValueError, KeyError, TypeError):
            ok = False
        result.failed += not (ok and same_as_earlier_runs(args, out))
        if not marks.is_file():  # the process died; its op failed above
            result.op_s.append(end - start)
            result.ref_s.append(end - start)
            continue
        data = json.loads(marks.read_text())
        probed = sum(seconds for _, seconds in data["probes"])
        clock = [start] + data["marks"] + [end - probed]
        steps = [(a, b - a) for a, b in zip(clock, clock[1:])]
        result.op_s.append(sum(seconds for _, seconds in steps))
        result.ref_s.append(sum(hostspeed.scale(steps, data["probes"])))


def _in_process(runner, name, inputs, result, check):
    code, out, _, rss = runner.child([name], result,
                                     json.dumps(inputs).encode())
    result.rss_kb = max(result.rss_kb, rss)
    if code != 0:
        raise RuntimeError(f"{name} client exited with {code}")
    data = json.loads(out)
    if len(data["out"]) != len(inputs):
        raise RuntimeError(f"{name} client answered {len(data['out'])} of "
                           f"{len(inputs)} ops")
    result.op_s = data["op_s"]
    result.ref_s = hostspeed.scale(zip(data["op_start"], data["op_s"]),
                                   data["probes"])
    result.failed += sum(not check(i, o) for i, o in zip(inputs, data["out"]))


def lift_inputs(rng, count):
    """Height vectors on the 20 vertices, in lexicographic triple order.

    Two of every three are uniform in 0..1000: fine subdivisions with up to
    66 cells that are not matroidal and do not repeat.  Every third is the
    vector of tropical 3x3 minors of a random 3x6 matrix, a tropical
    Plücker vector, so the matroid verdict is checked on both outcomes.
    """
    lifts = []
    for k in range(count):
        if k % 3 < 2:
            lifts.append([rng.randint(0, 1000) for _ in checks.TRIPLES])
            continue
        a = [[rng.randint(0, 1000) for _ in range(6)] for _ in range(3)]
        lifts.append([min(sum(a[row][col - 1] for row, col in enumerate(p))
                          for p in permutations(t)) for t in checks.TRIPLES])
    return lifts


def hull_inputs(rng, count, ref):
    """Rational points of Delta(3,6), each with one of the 48 cones.

    The cones take turns in a seeded order, so every seed queries each of
    them equally often.  A point is a convex combination of 2 to 6 random
    vertices, so points fall inside cells and on their boundaries.
    ``pick`` chooses the cell and the outside vertex of the negative query.
    """
    cones = [list(c) for cones in ref.TABLE1.values() for c in cones]
    rng.shuffle(cones)
    verts = [checks.vertex(t) for t in checks.TRIPLES]
    queries = []
    for k in range(count):
        support = rng.sample(range(len(verts)), rng.randint(2, 6))
        weights = [rng.randint(1, 9) for _ in support]
        point = [Fraction(sum(w * verts[i][m]
                              for w, i in zip(weights, support)),
                          sum(weights)) for m in range(6)]
        queries.append({"cone": cones[k % len(cones)],
                        "point": [str(x) for x in point],
                        "pick": rng.randrange(1 << 30)})
    return queries


def run_generic_lift(runner, lifts, ref, result):
    _in_process(runner, "generic-lift", lifts, result,
                lambda w, out: out[1] == checks.satisfies_plucker_relations(w))


def run_hull_membership(runner, queries, ref, result):
    _in_process(runner, "hull-membership", queries, result,
                lambda q, out: out == [True, True])


WORKLOADS = {
    "verify-all": run_verify_all,
    "generic-lift": run_generic_lift,
    "hull-membership": run_hull_membership,
}


def make_inputs(name, seed, seconds, tiny, ref):
    """The inputs of ``name`` and their op count."""
    count = max(MIN_OPS[name], round(seconds / OP_SECONDS[name]))
    rng = random.Random(seed)
    if name == "verify-all":
        return (seed, count, tiny), count
    if name == "generic-lift":
        return lift_inputs(rng, count), count
    return hull_inputs(rng, count, ref), count


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(result, setup_s, attempted):
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": sum(result.ref_s),
        "ops_per_s": len(result.ref_s) / sum(result.ref_s),
        "op_ms_p50": statistics.median(result.ref_s) * 1000,
        "op_ms_p90": p90(result.ref_s) * 1000,
        "peak_rss_mb": result.rss_kb / 1024,
        "ok_ratio": (attempted - result.failed) / attempted,
    }


def per_layer(plain, traced):
    metrics, missing = spans.layer_metrics(traced.span_files)
    metrics["trace.overhead_ratio"] = sum(traced.ref_s) / sum(plain.ref_s)
    return metrics, missing


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "tropd4").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the smoke check")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tropd4" / "cli.py").is_file():
        print(f"no tropd4 sources under {SRC}", file=sys.stderr)
        return 2
    env = {"commit": git_commit(), "src_sha256": source_digest(),
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "loadavg_start": os.getloadavg(), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    ref = checks.load_reference(SRC)
    inputs, count = make_inputs(args.workload, args.seed, args.seconds,
                                args.tiny, ref)
    run = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workdir)
        code, _, _, _ = runner.spawn(["-c", "import tropd4.cli"])  # .pyc
        if code != 0:
            raise RuntimeError("cannot import tropd4")
        if args.trace == 0:
            plain = Pass()
            setup_s, setup_raw_s = [], []
            for _ in range(SETUP_REPEATS):
                before = hostspeed.probe()
                code, _, (start, end), _ = runner.child(["setup"], plain)
                if code != 0:
                    raise RuntimeError("set-up failed")
                speed = (before + hostspeed.probe()) / 2
                setup_raw_s.append(end - start)
                setup_s.append((end - start) * hostspeed.REFERENCE_S / speed)
            run(runner, inputs, ref, plain)
            attempted = count
            metrics = end_to_end(plain, setup_s, attempted)
            env["unscaled"] = {"setup_s": setup_raw_s,
                               "wall_s": sum(plain.op_s)}
        else:
            plain, traced = Pass(), Pass(traced=True)
            run(runner, inputs, ref, plain)
            run(runner, inputs, ref, traced)
            metrics, env["missing_layers"] = per_layer(plain, traced)
            plain.failed += traced.failed
            attempted = count * 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["ops"] = attempted
    units = END_TO_END_UNITS if args.trace == 0 else per_layer_units()
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": plain.failed == 0, "attempted": attempted,
        "failed": plain.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
