#!/usr/bin/env python3
"""Time each layer of the ``generic-lift`` benchmark op in fresh processes.

    python scripts/lift_times.py --seed 7 --runs 9

Run it from anywhere in a source checkout.  Each run is a new Python
process, with the checkout's ``src/`` on its path.  It first times the
benchmark's cold set-up: the import of ``tropd4.fan`` and
``tropd4.hypersimplex`` and ``setup`` of ``perfbench/child.py``, which
builds the fan and the reference signatures.  That is timed before
``perfbench/run.py`` is imported, as ``run.py`` loads standard modules,
such as ``dataclasses``, that the set-up must not find loaded already;
the median over the runs is written as ``setup_ms``.  Then it makes the
benchmark's inputs, ``lift_inputs(random.Random(seed), 80)`` of
``run.py``, and, per height vector, it times the three layers of the op
in turn: the lower envelope (``hypersimplex.induced_subdivision``), the
basis-exchange verdict of each cell (``is_matroid_basis_set``) and the
signature (``subdivision_signature``), and the whole op.  The median
per-op time of each, in milliseconds, is taken per run, and the median
over the runs is written to ``BENCH_generic_lift.json`` at the root of
the checkout, under the header of ``scripts/check_times.py``: commit,
seed, run count, Python version, ``src_lines`` and ``probe_s``.  The
same medians are written again for each kind of lift: under
``uniform_ms_p50`` for the lifts ``k % 3 < 2`` of uniform heights, fine
subdivisions that set the benchmark's ``op_ms_p50``, and under
``plucker_ms_p50`` for the tropical Plücker vectors, whose larger cells
set its ``op_ms_p90``.  Under ``op_ms_p90`` is each layer's 90th
percentile over all 80 lifts, taken as the benchmark takes it (``p90``
of ``perfbench/run.py``), and the median of it over the runs.  The layer
medians and percentiles need not add up to the op's.  Beside them,
``fvectors`` gives the number of ``polytope_f_vector`` calls that
``hypersimplex`` makes over the 80 lifts, after the set-up, ``ranked``
the number of its ``intersection_dim`` calls, each an exact rank of a
vertex set that no cache or parity test settled, and ``matroidal`` the
number of their cells judged matroidal; the counts do not depend on the
host, so every run must give the same ones.  Times are unscaled; scale
by ``hostspeed.REFERENCE_S / probe_s`` to compare files written minutes
apart.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from time import perf_counter

from check_times import PROBES, ROOT, main, probe

OUTPUT = ROOT / "BENCH_generic_lift.json"
LIFTS = 80  # the op count of perfbench/run.py --workload generic-lift --seconds 24
LAYERS = ("envelope", "verdicts", "signature", "op")
COUNTS = ("fvectors", "ranked", "matroidal")  # the same in every run
# the lifts of each kind, as in lift_inputs: lift k is uniform when k % 3 < 2
KINDS = {"op_ms_p50": range(LIFTS),
         "uniform_ms_p50": [k for k in range(LIFTS) if k % 3 < 2],
         "plucker_ms_p50": [k for k in range(LIFTS) if k % 3 == 2]}


def child(seed):
    """One run: print the per-op milliseconds of each layer and the probes
    as JSON."""
    from child import setup
    start = perf_counter()
    import tropd4.fan  # noqa: F401
    import tropd4.hypersimplex  # noqa: F401
    setup()
    setup_ms = (perf_counter() - start) * 1000
    from run import lift_inputs, p90
    from tropd4 import hypersimplex
    from tropd4.hypersimplex import (
        induced_subdivision,
        is_matroid_basis_set,
        subdivision_signature,
    )
    lifts = lift_inputs(random.Random(seed), LIFTS)
    counts = dict.fromkeys(COUNTS, 0)

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call
    hypersimplex.polytope_f_vector = counted(
        "fvectors", hypersimplex.polytope_f_vector)
    hypersimplex.intersection_dim = counted(
        "ranked", hypersimplex.intersection_dim)
    probes = [probe() for _ in range(PROBES)]
    times = {name: [] for name in LAYERS}
    for w in lifts:
        t0 = perf_counter()
        cells = induced_subdivision(w)
        t1 = perf_counter()
        counts["matroidal"] += sum(map(is_matroid_basis_set, cells))
        t2 = perf_counter()
        subdivision_signature(cells)
        t3 = perf_counter()
        for name, seconds in zip(LAYERS, (t1 - t0, t2 - t1, t3 - t2, t3 - t0)):
            times[name].append(seconds * 1000)
    probes += [probe() for _ in range(PROBES)]
    json.dump({key: {name: statistics.median(ms[k] for k in ks)
                     for name, ms in times.items()}
               for key, ks in KINDS.items()}
              | {"op_ms_p90": {name: p90(ms) for name, ms in times.items()},
                 "setup_ms": setup_ms, **counts, "probes": probes},
              sys.stdout)


def summary(runs):
    """The median over ``runs`` of the set-up time, of each layer's per-op
    median, over all lifts and over each kind, and of its 90th percentile
    over all lifts; and the counts, which must be the same in every run."""
    for count in COUNTS:
        if any(r[count] != runs[0][count] for r in runs):
            raise RuntimeError(f"the runs disagree on {count}: "
                               f"{[r[count] for r in runs]}")

    def median(values):
        return round(statistics.median(values), 3)
    return {"lifts": LIFTS,
            "setup_ms": median(r["setup_ms"] for r in runs),
            **{key: {name: median(r[key][name] for r in runs)
                     for name in LAYERS} for key in (*KINDS, "op_ms_p90")},
            **{count: runs[0][count] for count in COUNTS}}


if __name__ == "__main__":
    sys.exit(main(__file__, __doc__.splitlines()[0], child, summary, OUTPUT))
