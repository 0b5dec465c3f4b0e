"""The (3,6)-hypersimplex: matroid subdivisions and plane-type classification.

A weight vector on the 20 vertices induces a regular subdivision via the exact
lower envelope.  For weights coming from the tropical minors the cells are
matroid polytopes, which one basis-exchange walk checks; their face counts and
the dimensions of pairwise intersections form a signature that separates the
six realized combinatorial types of tropical planes.  The classifier reads a
cone's type off the subdivisions at its rays, one letter E, F or G per ray.
The subdivisions at the fan's rays and canonical points are enveloped once
per orbit of the fan's symmetries and moved to the rest of the orbit.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from itertools import combinations, groupby, permutations, product, starmap
from math import comb, gcd
from operator import and_, or_

from . import reference
from .fan import compute_fan_f36, integer_heights
from .geometry import (
    basis_relations,
    intersection_dim,
    lower_cell_masks,
    point_signs,
    polytope_f_vector,
    set_bits,
)
from .webmatrix import PLUECKER_TRIPLES


# Each vertex as a 6-bit mask, bit m - 1 standing for coordinate m.
_TRIPLE_BITS = tuple(sum(1 << (m - 1) for m in t) for t in PLUECKER_TRIPLES)


@lru_cache(maxsize=1)
def hypersimplex_vertices():
    """The 20 zero-one vectors with coordinate sum 3, in lex triple order:
    each vertex's 6-bit mask of ``_TRIPLE_BITS`` read bit by bit."""
    return tuple(tuple(t >> m & 1 for m in range(6)) for t in _TRIPLE_BITS)


class _Cell(frozenset):
    """A cell of Delta(3,6): a frozenset of triples that also holds its
    20-bit vertex mask, bit i for ``PLUECKER_TRIPLES[i]``, so that the
    verdict and the signature read the mask and do not rebuild it."""

    __slots__ = ("mask",)


# The triples of each 5-bit chunk of a vertex mask: entry v of table c
# holds, in lex order, the triples 5c + j of the set bits j of v.
_CHUNK_TRIPLES = tuple(
    tuple(tuple(PLUECKER_TRIPLES[5 * c + j] for j in range(5) if v >> j & 1)
          for v in range(32))
    for c in range(4))


def induced_subdivision(w):
    """Maximal cells of the subdivision of the hypersimplex lifted by w.

    ``w`` is the 20-entry weight vector in lexicographic triple order; each
    cell is returned as a frozenset of index triples, which holds its
    vertex mask from :func:`lower_cell_masks` as ``mask`` (``_Cell``), in
    the order of :func:`_cells`.
    """
    return _cells(lower_cell_masks(hypersimplex_vertices(), list(w)))


def _cells(masks):
    """The cells of the 20-bit vertex ``masks`` as ``_Cell``s, sorted by
    their triples.  A mask's triples are read off its four 5-bit chunks, in
    lex order.  ``PLUECKER_TRIPLES`` is in lex order, so that is the order
    of the index sets of :func:`regular_subdivision`."""
    t0, t1, t2, t3 = _CHUNK_TRIPLES
    keyed = sorted(
        (t0[m & 31] + t1[m >> 5 & 31] + t2[m >> 10 & 31] + t3[m >> 15], m)
        for m in masks)
    cells = []
    for triples, mask in keyed:
        cell = _Cell(triples)
        cell.mask = mask
        cells.append(cell)
    return tuple(cells)


_TRIPLE_BIT = {t: 1 << i for i, t in enumerate(PLUECKER_TRIPLES)}


def _vertex_mask(cell):
    """The cell's vertices as a 20-bit mask: bit i stands for vertex i.
    A cell of :func:`induced_subdivision` holds it; for any other family
    the bit of each triple is ORed in, so a repeat adds nothing."""
    if type(cell) is _Cell:
        return cell.mask
    try:
        return reduce(or_, map(_TRIPLE_BIT.__getitem__, cell), 0)
    except KeyError as exc:
        raise ValueError(
            f"{exc.args[0]!r} is not a vertex of Delta(3,6)") from None


def _vertex_indices(mask):
    """Indices of the vertices whose bits are set in ``mask``, ascending."""
    return [b.bit_length() - 1 for b in set_bits(mask)]


# _span_dim, _cell_invariant, _orbit_invariant and _cell_forms are keyed
# on 20-bit vertex masks, so their keys are subsets of the 20 vertices and
# the caches are finite.
@lru_cache(maxsize=None)
def _span_dim(mask):
    """Dimension of the affine span of the vertices in ``mask`` (-1 if
    none).  Pairs of cells that share a vertex set share this value.

    When the vertices are the bases of a matroid on n elements, here the
    6 of 1..6, their hull is its matroid polytope, of dimension n minus
    the number of connected components (Feichtner & Sturmfels, "Matroid
    polytopes, nested sets and Bergman fans", 2005, Prop. 2.4): the keys
    and the classes of :func:`_exchange_classes`, with no rank.  Every
    other set, the empty one too, is ranked by :func:`intersection_dim`.
    """
    classes = _exchange_classes(mask)
    if mask and classes is not None:
        return len(classes) - len(set(classes.values()))
    shared = _vertex_indices(mask)
    return intersection_dim(hypersimplex_vertices(), shared, shared)


# Invariant and simplex flag of an (n-1)-simplex, for n = 1, ..., 6.  One
# shared object per n lets the signature's sort compare equal invariants
# by identity.
_SIMPLEX_INVARIANTS = {
    n: ((n, tuple(comb(n, k) for k in range(1, n)) or (1,)), True)
    for n in range(1, 7)}


def _exchange_tables(bases, ground):
    """Tables of :func:`_exchange_classes` for ``bases``, distinct element
    masks over ``ground``: each basis's bit by its mask, basis i taking bit
    i; and per basis A, per element a of A, ``(b, bit of A - a + b)`` for
    each b of ``ground`` outside A, 0 when that set is no basis."""
    bit = {m: 1 << i for i, m in enumerate(bases)}
    return bit, tuple(
        tuple((a, tuple((b, bit.get(m ^ a | b, 0))
                        for b in set_bits(ground & ~m)))
              for a in set_bits(m))
        for m in bases)


class _BasesInside(dict):
    """Bases' bits by their element masks, as ``inside`` of
    :func:`_exchange_classes`: at any other element set, the bits of the
    bases inside it; so it is nonzero exactly when some basis is inside."""

    def __missing__(self, elements):
        return sum(b for m, b in self.items() if not m & ~elements)


# Each vertex's bit by its 6-bit mask, and the exchanges of Delta(3,6).
_VERTEX_BIT, _EXCHANGES = _exchange_tables(_TRIPLE_BITS, 63)
# The vertices inside each 6-bit element set s, as a 20-bit mask.
_INSIDE = tuple(map(_BasesInside(_VERTEX_BIT).__missing__, range(64)))


def is_matroid_basis_set(bases) -> bool:
    """Basis-exchange axiom: for every basis A and element a of A, every
    basis without a contains a partner of (A, a), an element b outside A
    for which A - a + b is a basis.

    ``bases`` is read once, and :func:`_exchange_classes` judges it.  A
    cell of :func:`induced_subdivision` holds its vertex mask, walked on
    the tables of Delta(3,6).  Any other family is read as element masks,
    each new element taking the next bit (a repeat adds nothing), and
    walked on tables of its own (:func:`_exchange_tables`).  Bases of
    mixed sizes fail the walk itself: the axiom makes all bases equally
    large.  An empty family raises ``ValueError``.

    A cell of five or six vertices that the mod-2 tables certify affinely
    independent (see :func:`_cell_invariant`) is no matroid, and is
    rejected with no walk.  By the edge theorem of Gelfand, Goresky,
    MacPherson & Serganova ("Combinatorial geometries, convex polyhedra,
    and Schubert cells", *Adv. Math.* 63, 1987), a family is a matroid
    exactly when every edge of its hull joins two bases that differ by one
    exchange, so share two elements.  Every two vertices of a simplex are
    joined by an edge.  But triples that pairwise share two elements
    either all hold one pair or all lie in one 4-set, and there are only
    four of either kind.
    """
    if type(bases) is _Cell:
        family, tables = bases.mask, ()
        if (5 <= family.bit_count() <= 6
                and _SPAN_LO[family & 1023] & _SPAN_HI[family >> 10] == 1):
            return False
    else:
        bit = {}
        masks = dict.fromkeys(
            reduce(or_, (bit.setdefault(e, 1 << len(bit)) for e in base), 0)
            for base in bases)
        family, ground = (1 << len(masks)) - 1, (1 << len(bit)) - 1
        basis_bit, exchanges = _exchange_tables(masks, ground)
        tables = exchanges, _BasesInside(basis_bit), ground
    if not family:
        raise ValueError("empty basis set")
    return _exchange_classes(family, *tables) is not None


# The positions x of a 64-bit set whose bit k is clear, one set per k.
_LOW_HALVES = tuple(sum(1 << x for x in range(64) if not x >> k & 1)
                    for k in range(6))


def _span_table(vectors):
    """Per subset of ``vectors``, 6-bit masks of three bits each, bit j
    standing for vectors[j]: the GF(2) span of its vectors as a 64-bit
    set, bit x for the vector x, or 0 when they are dependent.  A vector v
    outside a span S doubles it to S + (v + S), and v + S is S with the
    positions that differ in bit k swapped, for each of the three bits k
    of v."""
    table = [1]  # the empty subset spans the zero vector
    for v in vectors:
        (s1, l1), (s2, l2), (s3, l3) = [
            (1 << k, _LOW_HALVES[k]) for k in range(6) if v >> k & 1]
        grown = []
        for span in table:
            if not span or span >> v & 1:
                grown.append(0)
                continue
            coset = (span & l1) << s1 | span >> s1 & l1
            coset = (coset & l2) << s2 | coset >> s2 & l2
            grown.append(span | (coset & l3) << s3 | coset >> s3 & l3)
        table += grown
    return tuple(table)


# The spans of the vertices 0-9 and 10-19, by their 10-bit half masks.
_SPAN_LO = _span_table(_TRIPLE_BITS[:10])
_SPAN_HI = _span_table(_TRIPLE_BITS[10:])


def _exchange_classes(family, exchanges=_EXCHANGES, inside=_INSIDE,
                      ground=63):
    """The basis-exchange walk over the bases set in ``family``: per
    element bit e of ``ground``, the mask of the elements that e can be
    exchanged with, e included; None when basis exchange fails.  The
    default tables are Delta(3,6)'s, 20 vertices over 1..6.

    ``exchanges`` (:func:`_exchange_tables`) gives, per basis A and element
    a of A, each element b of ``ground`` outside A with the bit of
    A - a + b, so the partners P of (A, a) are read off the family; some
    basis avoids a and all of P when ``family & inside[ground ^ (a | P)]``.
    In a matroid, a and b can be exchanged exactly when a circuit holds
    both, an equivalence relation (Oxley, *Matroid Theory*, 2nd ed., 2011,
    Sect. 4.1), so the masks are the connected components; a loop or
    coloop stays alone.
    """
    classes = {e: e for e in set_bits(ground)}
    for low in set_bits(family):
        for a, swaps in exchanges[low.bit_length() - 1]:
            p = a
            for b, v in swaps:
                if family & v:
                    p |= b
            if family & inside[ground ^ p]:
                return None
            classes[a] |= p
    return classes


@lru_cache(maxsize=None)
def _cell_invariant(mask):
    """Vertex count and f-vector of the cell whose vertices are ``mask``,
    and whether the cell is a simplex.

    The faces of a simplex are exactly its nonempty vertex subsets
    (Ziegler, *Lectures on Polytopes*, Lecture 2), so n affinely
    independent vertices have the f-vector ``(C(n,1), ..., C(n,n-1))``, or
    ``(1,)`` for a single point, with no faces counted.  At most six
    points of the 5-dimensional hypersimplex are affinely independent, so
    a larger cell is not tested; the faces of it and of every other
    non-simplex are counted by :func:`polytope_f_vector`, at most once
    per orbit of cells under the permutations of 1..6: on the orbit's key
    (:func:`_orbit_key`), and kept.  The key tries at most 48 relabellings
    on every cell of the canonical and ray subdivisions of the fan and of
    the 240 seeded lifts ``lift_inputs(random.Random(7), 240)`` of
    ``perfbench/run.py``; all 720 only when the six degrees tie, as for
    Delta(3,6) itself.

    The vertices lie on the hyperplane where the coordinates sum to 3,
    which misses the origin, so they are affinely independent exactly
    when they are linearly independent.  If their 0/1 vectors are
    independent mod 2, some maximal minor is odd, hence nonzero, and the
    cell is a simplex.  Two tables built at import decide that, one per
    half of the mask (:func:`_span_table`): ``_SPAN_LO`` for the vertices
    0-9 and ``_SPAN_HI`` for 10-19.  Say each half is independent, with
    span U and V.  Then the whole set is independent exactly when
    dim(U + V) = dim U + dim V.  As dim(U + V) = dim U + dim V minus the
    dimension of their intersection, that is exactly when U and V share
    only the zero vector: when ``lo & hi == 1``.  A dependent half reads
    0, which never gives 1.
    That test only certifies: a set that is dependent mod 2 may still be
    independent (the 5-simplex {123, 124, 125, 136, 236, 345} has
    determinant 6), so its dimension is read exactly, by :func:`_span_dim`:
    off its exchange classes when it is a matroid, and otherwise by a
    rank.  Every "not a simplex" comes from that dimension.
    """
    n = mask.bit_count()
    if 0 < n <= 6 and (_SPAN_LO[mask & 1023] & _SPAN_HI[mask >> 10] == 1
                       or _span_dim(mask) == n - 1):
        return _SIMPLEX_INVARIANTS[n]
    return _orbit_invariant(_orbit_key(mask)), False


@lru_cache(maxsize=None)
def _orbit_invariant(key):
    """Vertex count and f-vector of the cell whose vertices are ``key``,
    an orbit's key (:func:`_orbit_key`), counted once per orbit."""
    verts = hypersimplex_vertices()
    return key.bit_count(), polytope_f_vector(
        [verts[i] for i in _vertex_indices(key)])


# one vertex map per order of 1..6, so at most 720 are kept
@lru_cache(maxsize=None)
def _relabelling(order):
    """Vertex map of the relabelling that gives element ``order[p]`` the
    label ``p + 1``: entry i is the bit of the image of vertex i."""
    label = [0] * 7  # each element's new label as a 6-bit mask
    for p, e in enumerate(order):
        label[e] = 1 << p
    return tuple(_VERTEX_BIT[label[a] | label[b] | label[c]]
                 for a, b, c in PLUECKER_TRIPLES)


def _orbit_key(mask):
    """The least image of the cell ``mask`` under the relabellings of
    1..6 that list the elements by ascending degree, the degree of an
    element being the number of the cell's triples that contain it.  Each
    order of the elements within a tie is tried.  The empty cell, its own
    only image, is its key, and no relabelling is tried.

    The key is sound: a permutation of the coordinates is a linear
    automorphism of R^6 that maps the vertices of Delta(3,6) onto
    themselves, so conv(key) has the vertex count and f-vector of
    conv(cell), whichever relabellings are tried.  It is canonical: for
    D = tau(C), an element tau(e) has in D the degree of e in C, so the
    degree-sorting relabellings of D are sigma o tau^-1 for those sigma of
    C, and they give the same images.  Every cell of one orbit under the
    permutations of 1..6 has one key.
    """
    if not mask:
        return mask
    indices = _vertex_indices(mask)
    degree = Counter(e for i in indices for e in PLUECKER_TRIPLES[i])
    ties = [tuple(group) for _, group in groupby(
        sorted(range(1, 7), key=degree.__getitem__), key=degree.__getitem__)]
    return min(sum(map(_relabelling(sum(orders, ())).__getitem__, indices))
               for orders in product(*map(permutations, ties)))


# The vertex maps of three symmetries of the positive fan: the cyclic shift
# of the columns, their reversal, and the alternating-sign duality, which
# takes each triple to its complement, vertex i to 19 - i in lex order
# (Postnikov, "Total positivity, Grassmannians, and networks",
# arXiv:math/0609764, 2006).
_FAN_SYMMETRIES = (_relabelling((6, 1, 2, 3, 4, 5)),
                   _relabelling((6, 5, 4, 3, 2, 1)),
                   tuple(1 << 19 - i for i in range(20)))


# Both pairings of each 3-term Plücker relation: for an element s and
# i < j < k < l apart from it, sik + sjl - sij - skl and sik + sjl - sil - sjk,
# as the vertex indices (a, b, c, d) of w_a + w_b - w_c - w_d.  These 60
# forms vanish exactly on the lineality space of heights x_i + x_j + x_k.
_PAIRINGS = tuple(
    tuple(_VERTEX_BIT[1 << s - 1 | 1 << a - 1 | 1 << b - 1].bit_length() - 1
          for a, b in ((i, k), (j, l), c, d))
    for s in range(1, 7)
    for i, j, k, l in combinations([e for e in range(1, 7) if e != s], 4)
    for c, d in (((i, j), (k, l)), ((i, l), (j, k))))


def _lineality_key(w):
    """The heights ``w`` modulo lineality and positive scale: the values of
    the forms of ``_PAIRINGS`` at w, divided by their gcd.  Two heights
    share a key exactly when one is a positive multiple of the other plus
    a lineality vector."""
    values = [w[a] + w[b] - w[c] - w[d] for a, b, c, d in _PAIRINGS]
    g = gcd(*values) or 1
    return tuple(v // g for v in values)


@lru_cache(maxsize=1)
def _fan_orbits():
    """Per ray and per canonical point of a maximal cone of the fan that is
    not its orbit's representative, under the group generated by
    ``_FAN_SYMMETRIES``: the representative's point, and the vertex map
    that carries the representative's cells onto its own.

    A vertex map g moves heights w to g.w, which has w_i at the image of
    vertex i, and the cells that g.w induces are those of w moved by g.
    A generator takes a ray r to the ray whose heights equal g.h(r) modulo
    lineality and positive scale (:func:`_lineality_key`), and a cone to
    the cone of its rays' images; ``ValueError`` is raised when there is
    none.  Each orbit is walked from its first ray or cone in fan order,
    its representative, composing the generators' maps.
    """
    fan = compute_fan_f36()
    heights = {r: integer_heights(r) for r in fan.rays}
    ray_of = {_lineality_key(w): r for r, w in heights.items()}
    cone_of = {frozenset(c.rays): c.rays for c in fan.maximal_cones}
    points = {**{r: r for r in fan.rays},
              **{c: canonical_point(c) for c in cone_of.values()}}
    moves = []  # per generator, its vertex map and its image of each key
    for g in _FAN_SYMMETRIES:
        source = sorted(range(len(g)), key=g.__getitem__)  # preimages
        move = {r: ray_of.get(_lineality_key([w[i] for i in source]))
                for r, w in heights.items()}
        move.update((c, cone_of.get(frozenset(map(move.get, c))))
                    for c in cone_of.values())
        if None in move.values():
            raise ValueError("a symmetry maps a ray or cone of the fan to "
                             "no ray or cone")
        moves.append((g, move))
    maps, orbits = {}, {}
    for first in points:
        if first in maps:
            continue
        maps[first] = tuple(1 << i for i in range(20))
        todo = [first]
        while todo:
            x = todo.pop()
            for g, move in moves:
                y = move[x]
                if y not in maps:
                    maps[y] = tuple(g[b.bit_length() - 1] for b in maps[x])
                    orbits[points[y]] = points[first], maps[y]
                    todo.append(y)
    return orbits


@lru_cache(maxsize=None)
def _cell_forms(mask):
    """Equality and strict forms of the full-dimensional cell ``mask``.

    The first six affinely independent vertices of the cell are a basis,
    and one elimination (:func:`basis_relations`) writes each other
    vertex p of Delta(3,6) in it.  As the vertices' sum is always 3, the
    relation is affine; read as a linear form in the heights w it is
    ``D * (w_p - l(p))``, with ``D > 0`` and l the affine function that
    agrees with w on the basis.  Returns the forms of the vertices in the
    cell, then of those outside, as 20-entry tuples.
    """
    inside, verts = _vertex_indices(mask), hypersimplex_vertices()
    order = sorted(range(len(verts)), key=lambda i: not mask >> i & 1)
    pivots, relations = basis_relations([verts[i] for i in order])
    if len(pivots) != 6 or pivots[-1] >= len(inside):
        raise ValueError(f"cell {inside} is not full-dimensional")
    where = sorted(range(len(order)), key=order.__getitem__)
    forms = [tuple(map(c.__getitem__, where)) for c in relations.values()]
    split = len(inside) - len(pivots)
    return tuple(forms[:split]), tuple(forms[split:])


def subdivision_forms(cells):
    """The secondary-cone certificate of a subdivision of Delta(3,6) into
    full-dimensional ``cells``: its equality and strict forms, as two
    plain tuples of 20-entry tuples.

    The heights w induce exactly these cells when every cell has an affine
    function that agrees with w on the cell and lies strictly below w at
    every other vertex (De Loera, Rambau & Santos, *Triangulations*, 2010,
    ch. 2 and 5): each cell is then a lower facet of the lifted hull, and
    as the cells cover Delta(3,6) there is no other.  Per cell, that is
    each equality form vanishing at w and each strict form positive at w.
    The forms depend only on the cell, so they are built once per cell.
    """
    equalities, stricts = [], []
    for eq, strict in map(_cell_forms, map(_vertex_mask, cells)):
        equalities += eq
        stricts += strict
    return tuple(equalities), tuple(stricts)


def certified(forms, heights):
    """``(width, weak, ok)`` of the certificate ``forms`` of
    :func:`subdivision_forms` at a batch of ``heights``, bit ``p * width``
    of each standing for ``heights[p]``.  It is set in ``weak`` when every
    equality form vanishes there and every strict form is ``>= 0``, and in
    ``ok`` when, besides, every strict form is positive: then the heights
    satisfy the certificate, and so induce exactly its cells.

    The heights are ints, as :func:`integer_heights` gives them at integer
    points; :func:`point_signs` rejects anything else.  A certificate is
    met at a few heights a call, by both certificate checks of
    ``verify``, so it packs the forms, not the heights: once per
    certificate, one field per form, and each height vector's signs on
    all of them are read off one word, the equality forms' top bits
    ``eq`` and the strict forms' ``strict``.
    """
    equalities, stricts = forms
    width, high, signs = point_signs((*equalities, *stricts), heights)
    eq = high & (1 << len(equalities) * width) - 1
    strict = high ^ eq
    weak = ok = 0
    for p, (nonnegative, zero) in enumerate(signs):
        if zero & eq == eq and nonnegative & strict == strict:
            weak |= 1 << p * width
            if not zero & strict:
                ok |= 1 << p * width
    return width, weak, ok


def subdivision_signature(cells):
    """Order-insensitive signature of a subdivision.

    First component: sorted multiset of per-cell invariants (vertex count,
    f-vector).  Second: sorted multiset of pairwise intersection records,
    each the two cells' invariants together with the dimension of their
    common face (-1 when the cells do not meet).  Tagging the dimensions
    with the cell invariants is needed to tell all six plane types apart.

    A cell not seen before costs a parity test if it has at most six
    vertices, a dimension (:func:`_span_dim`) only if that test does not
    certify a simplex, and a count of its faces only if it is not a
    simplex and no cell of its orbit under the permutations of 1..6 was
    counted before (see :func:`_cell_invariant`).  The vertices a simplex
    shares with any cell are affinely independent, so a pair that touches
    a simplex meets in dimension one less than its number of shared
    vertices.  Only a pair of two non-simplices reads the dimension of its
    shared vertex set, once per distinct set.  Two cells of a matroid
    subdivision share a face, itself a matroid polytope, whose dimension
    is read off its exchange classes; only a shared set that is no
    matroid is ranked.  Cells are vertex sets of ``PLUECKER_TRIPLES``; an
    empty cell or a triple outside Delta(3,6) raises ``ValueError``.

    The records are counted, not sorted.  The cells are sorted by
    invariant and grouped into runs of equal invariant; for each pair of
    runs a <= b, in order, the dimensions are counted and written out in
    ascending order.  A cell of run a meets every cell of run b when
    a < b, and only the cells after it when a = b.  That is the order of
    the sorted records, as each pair's invariants are in order.
    """
    graded = sorted((*_cell_invariant(m), m) for m in map(_vertex_mask, cells))
    runs = [(inv, simplex, [m for _, _, m in group]) for (inv, simplex), group
            in groupby(graded, key=lambda g: g[:2])]
    records = []
    for a, (ia, sa, cells_a) in enumerate(runs):
        for b, (ib, sb, cells_b) in enumerate(runs[a:]):
            shared = starmap(and_, product(cells_a, cells_b) if b
                             else combinations(cells_a, 2))
            dims = Counter(map(int.bit_count, shared) if sa or sb
                           else map(_span_dim, shared))
            shift = 1 if sa or sb else 0
            for d in sorted(dims):
                records += [((ia, ib), d - shift)] * dims[d]
    return tuple(inv for inv, _, _ in graded), tuple(records)


def signature_intersection_dims(sig):
    """The bare multiset of pairwise intersection dimensions of a signature."""
    return tuple(sorted(d for _, d in sig[1]))


def canonical_point(rays):
    """A cone's canonical point, the sum of its ``rays``: interior to the
    cone when the rays span it."""
    return tuple(sum(c) for c in zip(*rays))


def canonical_subdivision(rays):
    """Subdivision induced at the canonical point of a cone's ``rays``, by
    :func:`_subdivision_at`: for a maximal cone of the fan, its orbit
    representative's cells moved by the vertex map of :func:`_fan_orbits`
    unless it is the representative."""
    return _subdivision_at(canonical_point(rays))


# room for the 16 rays and the canonical points of the 48 maximal cones:
# 3 and 7 orbit representatives, the rest moved from them
@lru_cache(maxsize=64)
def _subdivision_at(point):
    """Subdivision induced at an integer point of the fan by its heights.

    At a ray or canonical point that :func:`_fan_orbits` reaches from its
    orbit's representative, it is the representative's subdivision moved
    by the vertex map, with the cells built as :func:`induced_subdivision`
    builds them; at any other point, the lower envelope of its heights.
    """
    rep, g = _fan_orbits().get(point, (point, None))
    if g is None:
        return induced_subdivision(integer_heights(point))
    return _cells(sum(map(g.__getitem__, _vertex_indices(cell.mask)))
                  for cell in _subdivision_at(rep))


@lru_cache(maxsize=1)
def reference_signatures():
    """Signature of the canonical subdivision of the first maximal cone of
    each plane type, in fan order, keyed by the type."""
    sigs = {}
    for c in compute_fan_f36().maximal_cones:
        plane_type = classify_plane_type(c.rays)
        if plane_type not in sigs:
            sigs[plane_type] = subdivision_signature(
                canonical_subdivision(c.rays))
    return sigs


# A ray's letter by the sorted vertex counts of the cells at the ray.
_LETTERS = {(10, 19): "E", (16, 16): "F", (14, 14, 14): "G"}


# room for the 16 rays of the fan
@lru_cache(maxsize=16)
def _ray_letter(ray):
    """Letter of ``ray``, and for an E its triple T, from the subdivision
    at the ray, read from :func:`_subdivision_at`: for a ray of the fan,
    its orbit representative's cells moved by the vertex map of
    :func:`_fan_orbits` unless it is the representative.

    An E ray splits Delta(3,6) into a cell of 10 vertices and one of 19,
    an F ray into two of 16, and a G ray into three of 14.  The small cell
    of an E ray is {S : |S & T| >= 2} for a triple T, so an element of T
    lies in 7 of its 10 triples and any other element in 3; T is read off
    as the elements in more than 5.  Raises ``ValueError`` when the cells
    match no letter.
    """
    cells = sorted(_subdivision_at(ray), key=len)
    letter = _LETTERS.get(tuple(map(len, cells)))
    if letter is None:
        raise ValueError(f"cells at {ray} match no ray type")
    if letter != "E":
        return letter, None
    counts = Counter(e for triple in cells[0] for e in triple)
    return letter, frozenset(e for e, n in counts.items() if n > 5)


def classify_plane_type(rays) -> str:
    """Plane type of a maximal cone, read off the subdivisions at its
    ``rays``.

    A type is named by the letters of its cone's rays: an EEFG cone has
    rays of types E, E, F and G (Speyer & Sturmfels, "The tropical
    Grassmannian", *Adv. Geom.* 4, 2004).  The sorted letters give the
    type, except that an EEFF cone is EEFFa when the triples of its two E
    rays are disjoint and EEFFb when they share one element.  That rule is
    observed on the 18 EEFF cones of the fan, not taken from the paper.
    Raises ``ValueError`` when the rays name no plane type.
    """
    kinds = [_ray_letter(tuple(r)) for r in rays]
    word = "".join(sorted(letter for letter, _ in kinds))
    if word == "EEFF":
        a, b = (triple for _, triple in kinds if triple)
        word += {0: "a", 1: "b"}.get(len(a & b), "")
    if word not in reference.PLANE_TYPES:
        raise ValueError(f"rays {list(rays)} name no plane type: {word}")
    return word


def subdivision_to_json(cells):
    """JSON-ready subdivision: sorted cells and the nested signature."""
    sig = subdivision_signature(cells)
    per_cell, records = sig
    return {
        "cells": sorted([sorted(list(t) for t in sorted(c)) for c in cells]),
        "signature": {
            "cells": [[n, list(f)] for n, f in per_cell],
            "intersections": [[[ [a[0], list(a[1])], [b[0], list(b[1])] ], d]
                              for (a, b), d in records],
            "intersection_dims": list(signature_intersection_dims(sig)),
        },
    }
