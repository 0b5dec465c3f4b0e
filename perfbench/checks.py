"""Correctness checks on the outputs of each benchmark workload.

Every check returns True when the output is right.  The expected values
come from ``src/tropd4/reference.py``, the published tables, loaded by
path so that nothing of the pipeline is imported.  The matroid verdicts of
``generic-lift`` are checked by the 3-term tropical Plücker relations on
the 30 octahedral faces of Delta(3,6), which shares no code with the
basis-exchange test it checks: a height vector induces a matroid
subdivision exactly when it satisfies them (Speyer, "Tropical linear
spaces", math/0410455).
"""

from __future__ import annotations

import importlib.util
import json
from itertools import combinations

TRIPLES = list(combinations(range(1, 7), 3))
_TRIPLE_INDEX = {t: i for i, t in enumerate(TRIPLES)}


def vertex(triple):
    """The vertex of Delta(3,6) for an increasing triple of 1..6."""
    return tuple(1 if m in triple else 0 for m in range(1, 7))


def load_reference(src):
    spec = importlib.util.spec_from_file_location(
        "tropd4_reference", src / "tropd4" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def satisfies_plucker_relations(w):
    """Min-convention 3-term tropical Plücker relations for heights ``w``.

    ``w`` lists the heights of the 20 vertices of Delta(3,6) in
    lexicographic triple order.  For each s and each 4-set ijkl avoiding
    s, the minimum of w(sij)+w(skl), w(sik)+w(sjl), w(sil)+w(sjk) must be
    attained at least twice.
    """
    def p(*triple):
        return w[_TRIPLE_INDEX[tuple(sorted(triple))]]

    for s in range(1, 7):
        rest = [x for x in range(1, 7) if x != s]
        for i, j, k, l in combinations(rest, 4):
            terms = sorted((p(s, i, j) + p(s, k, l), p(s, i, k) + p(s, j, l),
                            p(s, i, l) + p(s, j, k)))
            if terms[0] != terms[1]:
                return False
    return True


def _table1(ref):
    return sorted((" ".join(labels), plane_type)
                  for plane_type, cones in ref.TABLE1.items()
                  for labels in cones)


def _table2(ref):
    return sorted((cls, plane_type, count)
                  for cls, split in ref.TABLE2.items()
                  for plane_type, count in split.items())


def verify_report_ok(text, ref):
    """``verify-all``: no violations, tables and f-vectors as published."""
    report = json.loads(text)
    tables = report["tables"]
    return (report["violations"] == []
            and sorted((" ".join(r["rays"]), r["type"])
                       for r in tables["table1"]) == _table1(ref)
            and sorted((r["class"], r["type"], r["count"])
                       for r in tables["table2"]) == _table2(ref)
            and report["fvectors"] == {
                "fan": list(ref.FAN_F_VECTOR),
                "cluster_complex": list(ref.CLUSTER_COMPLEX_F_VECTOR)})
