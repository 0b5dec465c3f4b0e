from collections import Counter

import tropd4.verify as verify


def test_rejected_cell_fails_every_point_that_has_it(monkeypatch):
    """Reusing basis-exchange verdicts across samples hides no failure."""
    samples = []  # [point, cells] per sampled point, in order
    real_phi, real_induced = verify.trop_phi2, verify.induced_subdivision

    def phi(x):
        samples.append([x, None])
        return real_phi(x)

    def induced(w):
        samples[-1][1] = cells = real_induced(w)
        return cells

    monkeypatch.setattr(verify, "trop_phi2", phi)
    monkeypatch.setattr(verify, "induced_subdivision", induced)
    assert verify.check_interior_point_stability(3, samples_per_cone=2) == []
    assert len(samples) == 96

    counts = Counter(c for _, cells in samples for c in cells)
    chosen = max((c for c in counts if counts[c] < len(samples)),
                 key=counts.get)
    assert counts[chosen] >= 2
    real_verdict = verify.is_matroid_basis_set
    monkeypatch.setattr(verify, "is_matroid_basis_set",
                        lambda cell: cell != chosen and real_verdict(cell))
    samples.clear()
    violations = verify.check_interior_point_stability(3, samples_per_cone=2)

    expected = [[str(v) for v in x] for x, cells in samples if chosen in cells]
    assert len(expected) == counts[chosen]
    assert [v["check"] for v in violations] == \
        ["matroidal cells"] * len(expected)
    assert [v["point"] for v in violations] == expected
