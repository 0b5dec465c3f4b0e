"""Chords of a 2n-gon with a central disk, and their symmetric pairs.

Vertices are labeled 0..2n-1 counterclockwise; the antipode of p is p+n
(written with a ``b`` suffix in text form, e.g. ``2b``).  Chords come in two
flavors: polygon diagonals that avoid the center (cyclic distance 2..2n-2
but not n) and tangent chords ``pL`` / ``pR`` running from a vertex to the
central disk.  The half-turn pairs every chord with its antipodal copy; a
pair is named by its lexicographically smallest member.  Every motion of
the model, the half-turn included, moves vertices by a map
``k -> sign * k + shift (mod 2n)``, with or without a swap of tangency sides.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache

L, R = "L", "R"


class SamePairError(ValueError):
    """Both arguments denote the same centrally symmetric pair."""


class Chord(namedtuple("Chord", "p q side", defaults=(-1, ""))):
    """A diagonal from vertex p to vertex q, with side "", or a tangent
    from vertex p to the disk, with q = -1 and side "L" or "R"."""

    __slots__ = ()

    @property
    def is_tangent(self):
        return self.q < 0


def arc(p, q, n):
    """Polygon diagonal between distinct vertices, canonically ordered."""
    m = 2 * n
    p, q = p % m, q % m
    if p > q:
        p, q = q, p
    d = q - p
    if d < 2 or d > m - 2 or d == n:
        raise ValueError(f"{{{p},{q}}} is not a chord of the 2*{n}-gon model")
    return Chord(p, q)


def tangent(p, side, n):
    if side not in (L, R):
        raise ValueError(f"tangent side must be L or R, got {side!r}")
    return Chord(p % (2 * n), -1, side)


def _move(c: Chord, sign, shift, swap, n) -> Chord:
    """Image of ``c`` under the vertex map ``k -> sign * k + shift``, with
    the tangency side swapped when ``swap`` is set."""
    if c.is_tangent:
        return tangent(sign * c.p + shift,
                       (R if c.side == L else L) if swap else c.side, n)
    return arc(sign * c.p + shift, sign * c.q + shift, n)


def partner(c: Chord, n) -> Chord:
    """The centrally symmetric copy of a chord (tangency side is preserved)."""
    return _move(c, 1, n, False, n)


def pair_rep(c: Chord, n) -> Chord:
    """Canonical representative of the pair {c, partner(c)}."""
    return min(c, partner(c, n))


def all_chords(n):
    m = 2 * n
    chords = [Chord(p, q) for p in range(m) for q in range(p + 1, m)
              if 2 <= q - p <= m - 2 and q - p != n]
    chords += [Chord(p, -1, s) for p in range(m) for s in (L, R)]
    return sorted(chords)


def all_chord_pairs(n):
    """All centrally symmetric pairs, as sorted canonical representatives."""
    if n < 3:
        raise ValueError(f"the model needs n >= 3, got {n}")
    return sorted({pair_rep(c, n) for c in all_chords(n)})


def _strictly_between(v, a, b, m):
    """True if v lies strictly inside the ccw arc from a to b (mod m)."""
    return 0 < (v - a) % m < (b - a) % m


def _minor_arc_contains(v, c: Chord, n):
    """True if vertex v lies strictly on the side of diagonal c away from
    the center (well defined because long diagonals are excluded)."""
    m = 2 * n
    if (c.q - c.p) % m < n:
        return _strictly_between(v, c.p, c.q, m)
    return _strictly_between(v, c.q, c.p, m)


def crossing(c1: Chord, c2: Chord, n) -> bool:
    """Whether two chords cross in their interiors.

    Diagonals cross when their endpoints interleave; a tangent chord crosses
    a diagonal when its vertex sits on the arc cut off from the center.  Two
    tangent chords cross only with opposite tangency sides, and then exactly
    when the L-vertex lies in the open ccw half-turn after the R-vertex
    (tangents from equal or antipodal vertices never cross).
    """
    m = 2 * n
    if c1 == c2:
        return False
    if c1.is_tangent and c2.is_tangent:
        if c1.side == c2.side or c1.p == c2.p:
            return False
        pr, pl = (c1.p, c2.p) if c1.side == R else (c2.p, c1.p)
        return 0 < (pl - pr) % m < n
    if c1.is_tangent or c2.is_tangent:
        t, d = (c1, c2) if c1.is_tangent else (c2, c1)
        if t.p == d.p or t.p == d.q:
            return False
        return _minor_arc_contains(t.p, d, n)
    if len({c1.p, c1.q, c2.p, c2.q}) < 4:
        return False
    return _strictly_between(c2.p, c1.p, c1.q, m) != \
        _strictly_between(c2.q, c1.p, c1.q, m)


def pair_crossing_count(a: Chord, b: Chord, n) -> int:
    """Number of chords of pair b crossed by one representative of pair a.

    Well defined: the two representatives of a give equal counts by central
    symmetry.  Arguments are taken as pair representatives.
    """
    ra, rb = pair_rep(a, n), pair_rep(b, n)
    if ra == rb:
        raise SamePairError(f"{chord_text(ra, n)} compared with itself")
    return sum(crossing(ra, c, n) for c in {rb, partner(rb, n)})


# -- symmetries --------------------------------------------------------------

class SymmetryOp(namedtuple("SymmetryOp", "kind axis", defaults=(0,))):
    """Rigid or combinatorial symmetry of the configuration.

    Each kind maps vertex k to ``sign * k + shift (mod 2n)``: "rho" (one-step
    ccw rotation) to k+1; "tau" to k+1 with tangency sides swapped;
    "reflect" to axis-k with sides swapped; "sigma" to k with sides swapped.
    Only "reflect" reads ``axis``.
    """

    __slots__ = ()


RHO = SymmetryOp("rho")
TAU = SymmetryOp("tau")
SIGMA = SymmetryOp("sigma")


def reflect(axis):
    return SymmetryOp("reflect", axis)


# kind -> (sign, shift, multiple of the axis added to the shift, side swap)
_MOTIONS = {"rho": (1, 1, 0, False), "tau": (1, 1, 0, True),
            "reflect": (-1, 0, 1, True), "sigma": (1, 0, 0, True)}


def apply_to_chord(op: SymmetryOp, c: Chord, n) -> Chord:
    if op.kind not in _MOTIONS:
        raise ValueError(f"unknown symmetry kind {op.kind!r}")
    sign, shift, axis_multiple, swap = _MOTIONS[op.kind]
    return _move(c, sign, shift + axis_multiple * op.axis, swap, n)


def apply_symmetry(op: SymmetryOp, pairs, n):
    """Image of a set of chord pairs, re-canonicalized: each chord's
    ``pair_rep(apply_to_chord(op, c, n), n)``, read off the table of
    :func:`_pair_images`.  A chord outside the model raises ValueError,
    as an unknown kind of ``op`` does."""
    images = _pair_images(op, n)
    try:
        return frozenset(map(images.__getitem__, pairs))
    except KeyError as missing:
        raise ValueError(f"{missing.args[0]!r} is not a chord of the "
                         f"2*{n}-gon model") from None


@lru_cache(maxsize=128)
def _pair_images(op, n):
    """``{chord: pair image under op}`` over :func:`all_chords` of n, the
    finite set of chords; built once per ``(op, n)``, so the check of the
    symmetry classes and the reflection theorem move no chord twice.
    Kept for at most 128 pairs ``(op, n)``."""
    return {c: pair_rep(apply_to_chord(op, c, n), n) for c in all_chords(n)}


# -- text form ---------------------------------------------------------------

_CHORD_RE = re.compile(r"^(\d)(b?)(?:(\d)(b?)|([LR]))$")


def vertex_text(v, n):
    return str(v) if v < n else f"{v - n}b"


def chord_text(c: Chord, n) -> str:
    if c.is_tangent:
        return f"{vertex_text(c.p, n)}{c.side}"
    return f"{vertex_text(c.p, n)}{vertex_text(c.q, n)}"


def parse_chord(text, n) -> Chord:
    m = _CHORD_RE.match(text.strip())
    if not m or any(int(d) >= n for d in m.group(1, 3) if d):
        raise ValueError(f"cannot parse chord {text!r} of the 2*{n}-gon model")
    p = int(m.group(1)) + (n if m.group(2) else 0)
    if m.group(5):
        return tangent(p, m.group(5), n)
    q = int(m.group(3)) + (n if m.group(4) else 0)
    return arc(p, q, n)


def pairs_text(pairs, n) -> str:
    return ",".join(chord_text(c, n) for c in sorted(pairs))
