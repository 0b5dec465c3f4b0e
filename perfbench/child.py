"""One client process of the benchmark.

    python3 perfbench/child.py [--trace FILE] setup
    python3 perfbench/child.py [--trace FILE] [--marks FILE] cli ARG...
    python3 perfbench/child.py [--trace FILE] generic-lift < inputs.json
    python3 perfbench/child.py [--trace FILE] hull-membership < inputs.json

``setup`` imports tropd4 and builds the fan and the reference signatures.
``cli`` runs the tropd4 command line with ARG.  The two in-process
workloads read their generated inputs as JSON on stdin, do the same set-up
untimed, time each op and print ``{"op_start": [...], "op_s": [...],
"probes": [...], "out": [...]}``: the clock reading at the start of each
op, its seconds, the host-speed probes (see ``hostspeed.py``) and the
outputs, which ``run.py`` checks.  With ``--trace FILE`` the public
functions are wrapped first (see ``spans.py``) and the spans are written
to FILE at exit.  With ``--marks FILE`` the clock reading at the start of
each step of ``verify-all`` and the probes are written to FILE at exit
(see :func:`install_marks`).  ``src/`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import atexit
import json
import sys
from fractions import Fraction

from hostspeed import Probes

# The functions of ``tropd4.verify`` whose calls start a step of
# ``verify-all``: each check, and each sample of the two random sweeps.
MARKED = (
    "check_enumeration", "check_cluster_complex", "check_symmetry_classes",
    "check_psi_rows", "check_compatibility_relations", "check_minors",
    "check_fan", "check_correspondence", "check_table1", "check_table2",
    "check_reflection_theorem", "check_interior_point_stability",
    "check_fan_covering", "induced_subdivision",
)


def install_marks(path):
    """Record the clock at each call of a marked function.

    The sweeps call ``induced_subdivision`` once per interior point and
    ``Fan.cones_containing`` once per covering point, so a report is split
    into about 11,000 steps.  A probe runs at the start of a step now and then; the marks
    are read from a clock that stops while it runs (``Probes.clock``).
    Functions that are not found are skipped.  ``{"marks": [...],
    "probes": [...]}`` is written to ``path`` as JSON at exit.
    """
    from tropd4 import geometry, verify
    marks, probes = [], Probes()
    probes.tick()

    def marked(fn):
        def call(*args, **kwargs):
            marks.append(probes.tick())
            return fn(*args, **kwargs)
        return call

    for name in MARKED:
        if hasattr(verify, name):
            setattr(verify, name, marked(getattr(verify, name)))
    if hasattr(geometry.Fan, "cones_containing"):
        geometry.Fan.cones_containing = marked(geometry.Fan.cones_containing)

    def dump():
        with open(path, "w") as fh:
            json.dump({"marks": marks, "probes": probes.readings}, fh)
    atexit.register(dump)


def setup():
    from tropd4.fan import compute_fan_f36
    from tropd4.hypersimplex import reference_signatures
    compute_fan_f36()
    reference_signatures()


def generic_lift(weights):
    """Lower envelope, basis-exchange verdict per cell, then signature."""
    from tropd4 import hypersimplex
    setup()
    probes, op_start, op_s, out = Probes(), [], [], []
    for w in weights:
        t0 = probes.tick()
        op_start.append(t0)
        cells = hypersimplex.induced_subdivision(w)
        verdicts = [hypersimplex.is_matroid_basis_set(c) for c in cells]
        hypersimplex.subdivision_signature(cells)
        op_s.append(probes.clock() - t0)
        out.append([len(cells), all(verdicts)])
    return op_start, op_s, probes.readings, out


def hull_membership(queries):
    """Locate each point in a cell, then reject a vertex outside one cell."""
    from checks import TRIPLES, vertex
    from tropd4 import fan, geometry, hypersimplex, reference
    setup()
    cells_of = {}  # cone -> [(cell vertices, vertices outside the cell)]
    for q in queries:
        labels = tuple(q["cone"])
        if labels not in cells_of:
            rays = sorted(reference.ray_set(labels))
            point = tuple(sum(col) for col in zip(*rays))
            cells = hypersimplex.induced_subdivision(fan.trop_phi2(point))
            cells_of[labels] = [
                ([vertex(t) for t in sorted(c)],
                 [vertex(t) for t in TRIPLES if t not in c]) for c in cells]
    probes, op_start, op_s, out = Probes(), [], [], []
    for q in queries:
        cells = cells_of[tuple(q["cone"])]
        y = [Fraction(v) for v in q["point"]]
        pick = q["pick"]
        cell, outside = cells[pick % len(cells)]
        negative = outside[pick // len(cells) % len(outside)]
        t0 = probes.tick()
        op_start.append(t0)
        found = any(geometry.point_in_hull(y, c) for c, _ in cells)
        rejected = not geometry.point_in_hull(negative, cell)
        op_s.append(probes.clock() - t0)
        out.append([found, rejected])
    return op_start, op_s, probes.readings, out


WORKLOADS = {"generic-lift": generic_lift, "hull-membership": hull_membership}


def main(argv):
    if argv[:1] == ["--trace"]:
        import spans
        spans.install(argv[1])
        argv = argv[2:]
    if argv[:1] == ["--marks"]:
        install_marks(argv[1])
        argv = argv[2:]
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        setup()
        return 0
    if mode == "cli":
        from tropd4.cli import main as cli_main
        return cli_main(args)
    op_start, op_s, probes, out = WORKLOADS[mode](json.load(sys.stdin))
    json.dump({"op_start": op_start, "op_s": op_s, "probes": probes,
               "out": out}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
