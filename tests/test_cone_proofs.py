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


def _equality_kind(values):
    """How an equality form fares at the heights of a cone's rays."""
    if not any(values):
        return "holds"
    return "zero at the sum, not at a ray" if sum(values) == 0 \
        else "nonzero at the sum"


def _check_with_form(monkeypatch, fan36, form_kind, wanted, strict):
    """Add the form ``w_i - w_j`` to every cone's certificate, a strict
    form when ``strict`` and an equality form otherwise, for the first
    pair (i, j) under which every kind of cone in ``wanted`` occurs, as
    ``form_kind`` reads its values at the rays' heights.  Check that
    exactly the cones of a kind other than "holds" fail, in fan order."""
    cones = [sorted(c.rays) for c in fan36.maximal_cones]
    heights = [[trop_phi2(r) for r in rays] for rays in cones]

    def kinds(i, j):
        return [form_kind([h[i] - h[j] for h in hs]) for hs in heights]

    i, j = next(pair for pair in itertools.permutations(range(20), 2)
                if wanted <= set(kinds(*pair)))
    form = tuple((k == i) - (k == j) for k in range(20))
    real = verify.subdivision_forms

    def with_form(cells):
        equalities, stricts = real(cells)
        if strict:
            return equalities, stricts + (form,)
        return equalities + (form,), stricts
    monkeypatch.setattr(verify, "subdivision_forms", with_form)
    violations = verify.check_cone_proofs()
    assert [v["check"] for v in violations] == \
        ["subdivision constant on cone"] * len(violations)
    assert [v["cone"] for v in violations] == [
        [list(r) for r in rays] for rays, kind in zip(cones, kinds(i, j))
        if kind != "holds"]


def test_added_strict_form_fails_where_plain_sums_say(monkeypatch, fan36):
    """The strict form ``w_i - w_j`` added to every cone's certificate
    fails the cones where it is negative at some ray, even when it is
    positive at the sum of the rays' heights, and those where it vanishes
    at every ray, and no others.  The pair (i, j) is the first under
    which each of these kinds of cone, and a cone that holds, occurs."""
    _check_with_form(monkeypatch, fan36, _kind, {
        "negative at a ray, positive at the sum", "zero at every ray",
        "holds"}, strict=True)


def test_added_equality_form_fails_where_plain_sums_say(monkeypatch, fan36):
    """The equality form ``w_i - w_j`` added to every cone's certificate
    fails the cones where it is nonzero at some ray, even when it
    vanishes at the sum of the rays' heights, and no others.  The pair
    (i, j) is the first under which each of these kinds of cone, and a
    cone that holds, occurs."""
    _check_with_form(monkeypatch, fan36, _equality_kind, {
        "zero at the sum, not at a ray", "nonzero at the sum", "holds"},
        strict=False)
