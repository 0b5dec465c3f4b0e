#!/usr/bin/env python3
"""Run the benchmark in alternating pairs: the working tree against a parent.

    python scripts/bench_pairs.py --workload generic-lift --parent HEAD~1 \\
        --seed 29601 --pairs 10

Run it from anywhere in a git checkout.  It extracts a ``git archive`` of
``--parent`` into a temporary directory.  Then, for each of ``--pairs``
seeds from ``--seed`` up, it runs ``perfbench/run.py --workload NAME
--seed SEED --seconds SECONDS`` once in that copy and once in the working
tree, each in a fresh process: the parent first on even pairs (pair 0 is
the first), the working tree first on odd ones, so that neither side
always runs second.  Each run's result line, the last line that
``perfbench/run.py`` prints, is appended to ``BENCH_<workload>.json`` at
the root of the checkout with the side, its commit, the pair, the seed
and the unscaled times of the run's environment line; the hyphenated
workload name keeps these files apart from the layer files of the timing
scripts.  The file is a JSON list, one record per line, rewritten after
each pair.

At the end it prints, per end-to-end metric of ``BENCHMARK.json``, each
side's median [quartiles] over the pairs, the change of the medians in
percent, and the pairs the working tree won, that is read better than the
parent of the same seed; then the distance between the medians and the
parent's quartile distance.  Last, per metric, the median ratio of the
change to the parent over the pairs where the parent ran first and over
those where the change ran first, so that a side that reads slower
whenever it runs second shows.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def number(x):
    """``x`` to four significant digits, with no exponent; from 1,000 up,
    with thousands separators and one decimal."""
    if abs(x) >= 1000:
        return f"{x:,.1f}"
    if not x:
        return "0"
    return f"{x:.{max(0, 3 - math.floor(math.log10(abs(x))))}f}"


def quartiles(values):
    """The median and the quartiles of ``values``, inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def paired(records):
    """The metrics of ``records`` by side and pair, and the pairs that
    both sides ran, ascending."""
    sides = {"parent": {}, "change": {}}
    for r in records:
        sides[r["side"]][r["pair"]] = r["metrics"]
    return sides, sorted(set(sides["parent"]) & set(sides["change"]))


def summarize(records, metrics):
    """One line per metric in ``metrics``, a list of ``(name, unit,
    better)``, over ``records`` of both sides: the parent's median
    [quartiles] → the change's, the change of the medians, the pairs the
    change won, and the distance of the medians against the parent's
    quartile distance."""
    sides, pairs = paired(records)
    lines = []
    for name, unit, better in metrics:
        parent = [sides["parent"][k][name]["value"] for k in pairs]
        change = [sides["change"][k][name]["value"] for k in pairs]
        (p, p1, p3), (c, c1, c3) = quartiles(parent), quartiles(change)
        won = sum(b < a if better == "lower" else b > a
                  for a, b in zip(parent, change))
        pct = 100 * (c - p) / p if p else 0.0
        sign = "\N{MINUS SIGN}" if pct < 0 else "+"
        lines.append(
            f"{name} {number(p)} [{number(p1)}\N{EN DASH}{number(p3)}] "
            f"\N{RIGHTWARDS ARROW} {number(c)} "
            f"[{number(c1)}\N{EN DASH}{number(c3)}] {unit}, "
            f"{sign}{abs(pct):.1f} %, {won}/{len(pairs)}; "
            f"gap {number(abs(c - p))}, parent quartile distance "
            f"{number(p3 - p1)}")
    return lines


def by_order(records, metrics):
    """One line per metric in ``metrics`` over ``records`` of both sides:
    the median ratio change/parent over the even pairs, where the parent
    ran first, and over the odd pairs, where the change ran first, each
    with its number of pairs.  A pair whose parent reads 0 has no ratio
    and is left out."""
    sides, pairs = paired(records)
    lines = []
    for name, _, _ in metrics:
        ratios = ([], [])
        for k in pairs:
            p = sides["parent"][k][name]["value"]
            if p:
                ratios[k % 2].append(sides["change"][k][name]["value"] / p)
        lines.append(f"{name} change/parent: " + ", ".join(
            f"{first} first {statistics.median(r):.3f} ({len(r)})" if r
            else f"{first} first none (0)"
            for first, r in zip(("parent", "change"), ratios)))
    return lines


def git(*args, **kwargs):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, **kwargs).stdout


def run(tree, workload, seed, seconds):
    """The environment and result lines of one benchmark run in ``tree``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[0])["env"], json.loads(lines[-1])


def save(path, records):
    path.write_text("[\n" + ",\n".join(
        json.dumps(r, sort_keys=True) for r in records) + "\n]\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[
        w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--parent", required=True,
                        help="the commit to compare the working tree with")
    parser.add_argument("--seed", type=int, required=True,
                        help="the seed of pair 0; pair k takes seed + k")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sys.path.insert(0, str(ROOT / "scripts"))
    from check_times import commit

    parent = git("rev-parse", "--short", args.parent, text=True).strip()
    sides = {"change": (ROOT, commit())}
    output = ROOT / f"BENCH_{args.workload}.json"
    records = json.loads(output.read_text()) if output.exists() else []
    new = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = git("archive", "--format=tar", parent)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        sides["parent"] = (Path(tmp), parent)
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else \
                ("change", "parent")
            for side in order:
                tree, rev = sides[side]
                env, result = run(tree, args.workload, seed, args.seconds)
                new.append({"side": side, "commit": rev, "pair": k,
                            "seed": seed, "workload": args.workload,
                            "seconds": args.seconds,
                            "unscaled": env.get("unscaled"), **result})
            save(output, records + new)
            print(f"pair {k} (seed {seed}) done", file=sys.stderr)
    metrics = [(m["name"], m["unit"], m["better"])
               for m in BENCHMARK["end_to_end"]]
    print(f"{args.workload}, seeds {args.seed}\N{EN DASH}"
          f"{args.seed + args.pairs - 1}, {parent} \N{RIGHTWARDS ARROW} "
          f"{sides['change'][1]}:")
    for line in summarize(new, metrics):
        print("  " + line)
    print("by the side that ran first:")
    for line in by_order(new, metrics):
        print("  " + line)
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
