#!/usr/bin/env python3
"""Time each check of ``tropd4 verify-all`` in fresh processes.

    python scripts/check_times.py --seed 7 --runs 9

Run it from anywhere in a source checkout.  Each run is a new Python
process, with the checkout's ``src/`` on its path, that times the import
of ``tropd4.verify`` and then calls ``verify.full_report(seed)`` with
every ``check_*`` function of ``tropd4.verify`` wrapped in a timer.  So
the checks run in the report's order and with its caches: a check's time
includes the set-up it is the first to need, such as the fan build in
``check_fan``.  ``full_report`` is the whole call, the checks and the
assembly of the report.  The median of each time over the runs is written
to ``BENCH_verify_checks.json`` at the root of the checkout, with the
commit, the seed, the run count, the Python version, ``src_lines``, the
number of lines of ``src/tropd4/*.py``, so that the size of the code can
be read beside its times, and ``probe_s``.  Beside the medians,
``sweeps`` gives the number of double-description sweeps
(``tropd4.geometry._double_description``) made in each check and in
``full_report``, and ``packs`` the number of packings of vectors into
words (``tropd4.geometry._pack``): a batch of points located in the fan,
or a certificate's forms, which are packed once and kept.  The counts do
not depend on the host, so every run must give the same ones.

The times are wall-clock seconds, unscaled.  The host's speed drifts,
within a run as well as between runs, so each run times the fixed loop of
``perfbench/hostspeed.probe`` just before each check, outside the check's
time and outside ``full_report``'s, and before and after its work.
``check_probe_s`` gives the median over the runs of each check's own
probe, beside its median time; ``probe_s`` is the median of all the
probes.  Two files written minutes apart compare after scaling each
check's time by ``hostspeed.REFERENCE_S`` over its probe, and any other
time by ``hostspeed.REFERENCE_S / probe_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_verify_checks.json"
sys.path.insert(0, str(ROOT / "perfbench"))

from hostspeed import probe  # noqa: E402

PROBES = 3  # taken before and after the work of each run


def child(seed):
    """One run: print its ``{name: seconds}``, the probes taken before
    each check, all its probes and the violation count as JSON."""
    probes = [probe() for _ in range(PROBES)]
    start = perf_counter()
    from tropd4 import geometry, verify
    times = {"import": perf_counter() - start}
    made = {"sweeps": 0, "packs": 0}  # the calls counted so far
    counts = {kind: {} for kind in made}  # kind -> {name: calls}
    check_probes = {}  # name -> the probes taken just before its calls
    probing = [0.0]  # the seconds spent in those probes

    def counted(kind, fn):
        def call(*args, **kwargs):
            made[kind] += 1
            return fn(*args, **kwargs)
        return call

    def timed(name, fn):
        def call(*args, **kwargs):
            t0 = perf_counter()
            check_probes.setdefault(name, []).append(probe())
            probing[0] += perf_counter() - t0
            t0, before = perf_counter(), dict(made)
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] = times.get(name, 0.0) + perf_counter() - t0
                for kind, n in made.items():
                    counts[kind][name] = counts[kind].get(name, 0) \
                        + n - before[kind]
        return call

    geometry._double_description = counted(
        "sweeps", geometry._double_description)
    geometry._pack = counted("packs", geometry._pack)
    for name in [n for n in vars(verify) if n.startswith("check_")]:
        setattr(verify, name, timed(name, getattr(verify, name)))
    start = perf_counter()
    report = verify.full_report(seed)
    times["full_report"] = perf_counter() - start - probing[0]
    for kind, n in made.items():
        counts[kind]["full_report"] = n
    probes += [p for ps in check_probes.values() for p in ps]
    probes += [probe() for _ in range(PROBES)]
    json.dump({"times": times, **counts, "probes": probes,
               "check_probes": check_probes,
               "violations": len(report["violations"])}, sys.stdout)


def commit():
    """The checked-out commit, marked ``-dirty`` when tracked files other
    than the ``BENCH_*.json`` files the timing scripts write differ from
    it, or ``unknown`` outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        head = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no",
                    "--", ".", ":(exclude)BENCH_*.json")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def main(script, description, body, summary, output):
    """Run ``script --child --seed SEED`` in ``--runs`` fresh processes
    and write their header and ``summary(runs)`` to ``output``.

    ``body(seed)`` is one run: it prints a JSON object with its
    ``probes``.  Shared by the timing scripts of ``scripts/``.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        body(args.seed)
        return 0
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    runs = [json.loads(subprocess.run(
        [sys.executable, str(script), "--child", "--seed", str(args.seed)],
        check=True, capture_output=True, text=True, env=env).stdout)
        for _ in range(args.runs)]
    record = {
        "commit": commit(),
        "seed": args.seed,
        "runs": args.runs,
        "python": platform.python_version(),
        "src_lines": sum(len(path.read_text().splitlines())
                         for path in (ROOT / "src" / "tropd4").glob("*.py")),
        "probe_s": round(statistics.median(
            p for r in runs for p in r["probes"]), 6),
        **summary(runs),
    }
    output.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {output}")
    return 0


def summary(runs):
    """The violation count, the median of each time over ``runs``, the
    median of each check's own probes over ``runs``, and the sweep and
    pack counts, which must be the same in every run."""
    for kind in ("sweeps", "packs"):
        if any(r[kind] != runs[0][kind] for r in runs):
            raise RuntimeError(f"the runs made different numbers of "
                               f"{kind}: {[r[kind] for r in runs]}")
    return {"violations": max(r["violations"] for r in runs),
            "median_s": {name: round(statistics.median(
                r["times"][name] for r in runs), 4)
                for name in runs[0]["times"]},
            "check_probe_s": {name: round(statistics.median(
                p for r in runs for p in r["check_probes"][name]), 6)
                for name in runs[0]["check_probes"]},
            "sweeps": runs[0]["sweeps"], "packs": runs[0]["packs"]}


if __name__ == "__main__":
    sys.exit(main(__file__, __doc__.splitlines()[0], child, summary, OUTPUT))
