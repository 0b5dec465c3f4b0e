"""Step (b) of ``verify.check_cone_proofs`` against plain sums."""

import itertools

import tropd4.verify as verify
from tropd4.fan import trop_phi2


def _kind(values):
    """How a strict form fares at the heights of a cone's rays."""
    if min(values) < 0:
        return "negative at a ray, positive at the sum" if sum(values) > 0 \
            else "negative at a ray"
    if not any(values):
        return "zero at every ray"
    return "holds"


def test_added_strict_form_fails_where_plain_sums_say(monkeypatch, fan36):
    """The strict form ``w_i - w_j`` added to every cone's certificate
    fails the cones where it is negative at some ray, even when it is
    positive at the sum of the rays' heights, and those where it vanishes
    at every ray, and no others.  The pair (i, j) is the first under
    which each of these kinds of cone, and a cone that holds, occurs."""
    cones = [sorted(c.rays) for c in fan36.maximal_cones]
    heights = [[trop_phi2(r) for r in rays] for rays in cones]

    def kinds(i, j):
        return [_kind([h[i] - h[j] for h in hs]) for hs in heights]

    i, j = next(pair for pair in itertools.permutations(range(20), 2)
                if {"negative at a ray, positive at the sum",
                    "zero at every ray", "holds"} <= set(kinds(*pair)))
    form = tuple((k == i) - (k == j) for k in range(20))
    real = verify.subdivision_forms

    def with_form(cells):
        equalities, stricts = real(cells)
        return equalities, stricts + (form,)
    monkeypatch.setattr(verify, "subdivision_forms", with_form)
    violations = verify.check_cone_proofs()
    assert [v["check"] for v in violations] == \
        ["subdivision constant on cone"] * len(violations)
    assert [v["cone"] for v in violations] == [
        [list(r) for r in rays] for rays, kind in zip(cones, kinds(i, j))
        if kind != "holds"]
