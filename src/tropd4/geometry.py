"""Exact rational polyhedral geometry in small dimension.

Cones are given by integer inequality normals (``<h, x> >= 0``), rays are
primitive integer vectors, and regular subdivisions are read off exact lower
envelopes.  All arithmetic is over the integers / rationals; no floats.

The workhorse is a double-description sweep (:func:`_double_description`)
that inserts halfspaces one at a time while maintaining a line basis and the
extreme rays of the pointed part.  Everything else is phrased as a ray
enumeration of a suitable cone, by four callers: :class:`Cone`,
:func:`cone_from_rays`, :func:`lower_cell_masks` and
:func:`_polytope_facets`.  A :class:`Cone` keeps the tight mask of each
facet, and :func:`_faces` reads face lattices off them and sweeps nothing.

The sweep takes integer rows and returns primitive integer lines and
primitive rays, each ray paired with the bitmask of the rows it is tight
on (bit i for input row i).  Public entries, ``fan`` and ``hypersimplex``
scale rational input to integer rows once, with :func:`integer_rows`;
callers read incidences off the masks and never canonicalize sweep output
again.  Given ``bits``, as only :func:`lower_cell_masks` gives them, the
sweep holds each ray as its values on the rows still to come, not its
coordinates, and returns the masks alone.

Beside the sweep sits one evaluation kernel of integer linear forms in
packed words, with one packer, one sign rule and one width rule, read
from either side.  :func:`form_signs` packs a batch of points, one field
per point, so that one sum of products per form gives that form's signs
at every point: it locates fresh batches of points in a :class:`Fan`,
which hands its callers cones, not words (:meth:`Fan.odd_points`).
:func:`point_signs` packs the forms, one field per form, once per tuple
of forms, so that one sum of products per point gives its signs on every
form: it tests the certificates of ``hypersimplex.certified``, each met
again and again at a few heights at a time.
"""

from __future__ import annotations

import functools
import itertools
import operator
import struct
from fractions import Fraction
from math import gcd, lcm


class NotPointedError(ValueError):
    """A cone expected to be pointed contains a line."""

    def __init__(self, direction):
        self.direction = tuple(direction)
        super().__init__(f"cone contains the line through {self.direction}")


def _reduce(v):
    g = gcd(*v)
    if g > 1:
        return tuple(x // g for x in v)
    return tuple(v)


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _minus(p, q):
    return tuple(x - y for x, y in zip(p, q))


def integer_rows(rows):
    """Rational ``rows`` scaled to integers by the lcm of all denominators.

    Ints and Fractions both carry ``denominator``, so integer input is
    scaled by 1 without building Fractions.  Returns ``(rows, scale)``.
    """
    rows = list(rows)  # read twice below; callers may pass an iterator
    try:
        scale = lcm(*(x.denominator for row in rows for x in row))
        return [tuple(x.numerator * (scale // x.denominator) for x in row)
                for row in rows], scale
    except AttributeError:
        raise ValueError("coordinates must be ints or Fractions") from None


def _point_tuple(points):
    """``points`` as a tuple of tuples, which must be nonempty and of one
    length."""
    points = tuple(map(tuple, points))
    if not points:
        raise ValueError("need at least one point")
    if len(set(map(len, points))) > 1:
        raise ValueError("points must all have the same length")
    return points


def _distinct_points(points):
    """:func:`_point_tuple` of distinct points with int or Fraction
    coordinates: a float would hit the cache entry of an equal rational."""
    points = _point_tuple(points)
    if not all(isinstance(x, (int, Fraction)) for p in points for x in p):
        raise ValueError("coordinates must be ints or Fractions")
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    return points


def _pivot_columns(vectors):
    """Pivot columns and reduced rows of integer ``vectors`` under
    fraction-free Gauss-Jordan elimination.

    Each pivot step updates every other row, above the pivot as well as
    below, by ``(p * x - g * y) // prev``, which divides exactly (Bareiss,
    Math. Comp. 22, 1968; Nakos, Turner & Williams, ACM SIGSAM Bull.
    31(3), 1997), so all entries stay integers.  The number of pivots is
    the rank.  Row k is zero in every pivot column but ``pivots[k]``, and
    its entry there is D, the same for every k: +-det of the pivot columns
    on the rows taken as pivot rows.  So the rows up to the rank are D
    times the reduced row echelon form; the rows past the rank are zero.
    """
    rows = [list(v) for v in vectors]
    pivots, prev = [], 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        head = rows[r]
        p = head[c]
        for i in itertools.chain(range(r), range(r + 1, len(rows))):
            g = rows[i][c]
            rows[i] = [(p * x - g * y) // prev for x, y in zip(rows[i], head)]
        prev = p
        pivots.append(c)
        if r + 1 == len(rows):
            break
    return pivots, rows


def basis_relations(vectors):
    """The first basis among integer ``vectors``, and the relation that
    writes each other vector in it.

    Returns ``(pivots, relations)``: ``pivots`` are the indices of the
    first vectors that span all of them, and ``relations[q]``, for each
    other index q, in ascending order, is the primitive integer vector c
    with ``sum(c[i] * vectors[i]) == 0`` that is positive at q and zero
    off q and the pivots.  The vectors are the columns of the eliminated
    matrix, so its pivot columns are the basis, and reduced column q holds
    D times the basis coordinates of ``vectors[q]``, D the common pivot
    entry: c is read off it, ``D`` at q and ``-rows[k][q]`` at
    ``pivots[k]``, turned positive at q and divided by its gcd.
    """
    pivots, rows = _pivot_columns(list(zip(*vectors)))
    det = rows[0][pivots[0]] if pivots else 1
    relations = {}
    for q in sorted(set(range(len(vectors))) - set(pivots)):
        c = [0] * len(vectors)
        c[q] = det
        for p, row in zip(pivots, rows):
            c[p] = -row[q]
        relations[q] = _reduce(c if det > 0 else [-x for x in c])
    return pivots, relations


def _combine(s, x, t, y, n):
    """The primitive integer vector ``s * x - t * y``, cut to its first
    ``n`` entries."""
    return _reduce([s * a - t * b for a, b in zip(x[:n], y)])


def _combine_unreduced(s, x, t, y, n):
    """``s * x - t * y``, cut to its first ``n`` entries."""
    return [s * a - t * b for a, b in zip(x[:n], y)]


def _double_description(rows, dim, bits=None):
    """Lines and extreme rays of ``{x : <h, x> >= 0 for h in rows}``.

    ``rows`` are integer vectors.  Without ``bits`` it returns ``(lines,
    rays)``: ``lines`` is a basis of the lineality space of primitive
    integer vectors, and ``rays`` pairs each primitive extreme ray of the
    pointed part (taken modulo the lineality space) with its tight mask,
    whose bit i is set exactly when ``<rows[i], ray> == 0``.  A zero row
    is tight on every ray.

    The rays are held as two parallel lists, the vectors and the tight
    masks.  After each row come the zero rays, then the plus rays, each in
    their earlier order, then one ray per adjacent plus and minus pair, by
    plus ray and then minus ray; the pairs are found from the minus side,
    usually the shorter, and sorted.  This is the order the sweep has always
    returned, and callers may rely on it.

    Adjacency is decided combinatorially (Fukuda & Prodon, "Double
    description method revisited", LNCS 1120, 1996).  Before a row is
    inserted, let the pointed part have dimension ``d = dim - len(lines)``,
    the rank of the rows so far.  A face of the cone tight on exactly the
    rows I has dimension ``dim - rank(I)``, so an extreme ray is tight on
    rows of rank ``d - 1`` and a 2-face on rows of rank ``d - 2``.  Two
    extreme rays are adjacent when they span a 2-face: then they share at
    least ``d - 2`` tight rows, and, as extreme rays have distinct tight
    sets, no third ray is tight on all the rows they share.  A pair that
    shares fewer rows is never adjacent; otherwise the third-ray test scans
    every ray's mask m and counts those that hold all the shared rows,
    ``m & common == common``; the pair's own two masks always do, so a
    third makes more than two.  The scan is skipped when one ray of the
    pair is *simple*, tight on exactly ``d - 1`` rows.  Those rows have
    rank ``d - 1``, so they are independent: none is zero and none repeats
    another.  The other ray is not tight on all of them, or it would lie
    on the same extreme ray, so the pair shares exactly ``d - 2`` of these
    independent rows.  They cut out a face of dimension at most
    ``dim - (d - 2)``; it holds both rays, so it is a 2-face of the pointed
    part, and a pointed 2-dimensional cone has exactly two extreme rays.
    So the pair is adjacent with no scan; only pairs of two non-simple
    rays are scanned.

    Given ``bits``, the sweep is the mask sweep: it returns the tight masks
    of the rays alone, in the same order, and no lines or vectors.  A
    ray's coordinates enter the sweep only through its values on the rows
    inserted after it is made.  So each line and ray is held as its values
    on the rows not yet inserted, last row first: the value on row ``idx``
    is read from slot ``len(rows) - 1 - idx`` with no dot product, and a
    ray made at row ``idx`` keeps only the slots before that one, its
    values on later rows.  The rows are linear forms, so the held values
    of ``s * x - t * y`` are those of x and y combined the same way, and
    by induction from the unit lines, which hold the columns of the rows,
    every line and ray holds a positive multiple of the values of the
    vector the coordinate sweep holds; as only signs are read, no gcd is
    divided out.  Every value read has the sign of the true one, so the
    zero, plus and minus split, the adjacency test, the masks and their
    order are exactly those of the coordinate sweep.  Only
    :func:`lower_cell_masks` takes this mode, as it reads nothing but
    masks, from 21 rows on Delta(3,6), of a cone it knows is pointed.  The
    other callers need the vectors.

    ``bits`` gives each row's bit in the masks, distinct single bits.  The
    sweep never reads where a bit is, only which masks hold it, so the
    mask sweep returns the coordinate sweep's masks relabelled, in order.
    A line consumed at a row survives as a ray tight on exactly the rows
    inserted before it, so its mask is the OR of their bits.
    """
    coordinates = bits is None
    if coordinates:
        bits = [1 << i for i in range(len(rows))]
        combine = _combine
        lines = [tuple(1 if j == i else 0 for j in range(dim))
                 for i in range(dim)]
    else:
        combine = _combine_unreduced
        lines = [[row[i] for row in reversed(rows)] for i in range(dim)]
    vecs, masks = [], []  # the rays and their tight masks

    for idx, (a, bit) in enumerate(zip(rows, bits)):
        if coordinates:
            keep = dim  # a new ray keeps all its coordinates
            line_vals = [sum(map(operator.mul, a, l)) for l in lines]
            vals = [sum(map(operator.mul, a, r)) for r in vecs]
        else:
            # the slot of row idx, and the number of later rows
            keep = len(rows) - 1 - idx
            line_vals = [l[keep] for l in lines]
            vals = list(map(operator.itemgetter(keep), vecs))
        if any(line_vals):
            k = next(i for i, v in enumerate(line_vals) if v)
            l0, v0 = lines[k], line_vals[k]
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0
            lines = [l if v == 0 else combine(v0, l, v, l0, keep)
                     for i, (l, v) in enumerate(zip(lines, line_vals))
                     if i != k]
            vecs = [r if v == 0 else combine(v0, r, v, l0, keep)
                    for r, v in zip(vecs, vals)]
            # The consumed line survives as a ray.  It lies in the lineality
            # space of the earlier rows, so it is tight on all of them.
            vecs.append(l0)
            masks = [m | bit for m in masks]
            masks.append(functools.reduce(operator.or_, bits[:idx], 0))
            continue

        zero, plus, minus = [], [], []
        for i, v in enumerate(vals):
            if v > 0:
                plus.append(i)
            elif v:
                minus.append(i)
            else:
                zero.append(i)
        new_vecs = [vecs[i] for i in zero] + [vecs[i] for i in plus]
        new_masks = [masks[i] | bit for i in zero] + [masks[i] for i in plus]
        if minus:
            simple = dim - len(lines) - 1
            min_common = simple - 1
            plus_masks = [masks[i] for i in plus]
            adjacent = []
            for j in minus:
                mm = masks[j]
                shares_enough = map(min_common.__le__, map(
                    int.bit_count, map(mm.__and__, plus_masks)))
                if mm.bit_count() == simple:
                    adjacent += [(i, j, mm & masks[i]) for i in
                                 itertools.compress(plus, shares_enough)]
                    continue
                for i in itertools.compress(plus, shares_enough):
                    common = mm & masks[i]
                    if masks[i].bit_count() != simple and operator.countOf(
                            map(common.__and__, masks), common) > 2:
                        continue
                    adjacent.append((i, j, common))
            adjacent.sort()
            for i, j, common in adjacent:
                new_vecs.append(
                    combine(vals[i], vecs[j], vals[j], vecs[i], keep))
                new_masks.append(common | bit)
        vecs, masks = new_vecs, new_masks

    if not coordinates:
        return masks
    return lines, list(zip(vecs, masks))


def cone_rays(halfspaces, dim):
    """Extreme rays of a pointed cone, as sorted primitive integer vectors."""
    cone = Cone(dim, tuple(halfspaces))
    if cone.lines:
        raise NotPointedError(cone.lines[0])
    return list(cone.rays)


class Cone:
    """Polyhedral cone ``{x : <h, x> >= 0}`` with cached ray description.

    ``halfspaces`` are the nonzero rows as primitive integer vectors, and
    ``tight[k]`` masks the sorted ``rays`` that ``halfspaces[k]`` vanishes
    on, bit j for ray j, all read off one sweep.  A pointed cone with no
    row tight on every ray, so full-dimensional, keeps only its facets,
    sorted and unrepeated: the rows whose mask no other row's strictly
    contains, as each face lies in a facet.

    Two cones are equal when their dimensions, halfspaces, rays and lines
    are; being mutable, a cone is not hashable."""

    __hash__ = None

    def __init__(self, ambient_dim, halfspaces):
        if {len(h) for h in halfspaces} - {ambient_dim}:
            raise ValueError(f"halfspaces must have {ambient_dim} "
                             f"entries: {halfspaces}")
        self.ambient_dim = ambient_dim
        rows, _ = integer_rows([h for h in halfspaces if any(h)])
        rows = tuple(map(_reduce, rows))
        lines, rays = _double_description(rows, ambient_dim)
        rays.sort()
        self.rays = tuple(r for r, _ in rays)
        self.lines = tuple(sorted(lines))
        tight = [sum(1 << j for j, (_, m) in enumerate(rays) if m >> k & 1)
                 for k in range(len(rows))]
        if not lines and (1 << len(rays)) - 1 not in tight:
            kept = dict(sorted((h, m) for h, m in zip(rows, tight) if not any(
                m != o and m & o == m for o in tight)))
            rows, tight = tuple(kept), kept.values()
        self.halfspaces, self.tight = rows, tuple(tight)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ambient_dim, self.halfspaces, self.rays, self.lines) \
            == (other.ambient_dim, other.halfspaces, other.rays, other.lines)

    def __repr__(self):
        return (f"Cone(ambient_dim={self.ambient_dim!r}, halfspaces="
                f"{self.halfspaces!r}, rays={self.rays!r}, "
                f"lines={self.lines!r})")

    @property
    def is_pointed(self):
        return not self.lines

    def face_containing(self, x):
        """The rays of the smallest face holding ``x``, those on every
        halfspace tight at ``x`` (Ziegler, *Lectures on Polytopes*,
        Lecture 2), as a frozenset; None when ``x`` violates a halfspace.
        A point of another length raises ``ValueError``."""
        if len(x) != self.ambient_dim:
            raise ValueError(f"points must have {self.ambient_dim} "
                             f"entries: {x}")
        values = [_dot(h, x) for h in self.halfspaces]
        if any(v < 0 for v in values):
            return None
        return _members(functools.reduce(
            operator.and_, (m for m, v in zip(self.tight, values) if not v),
            (1 << len(self.rays)) - 1), self.rays)


def cone_from_rays(rays, dim):
    """Cone spanned by ``rays``, cut out by the sorted extreme rays of its
    dual cone and by both signs of each dual line."""
    rows, _ = integer_rows(rays)
    if {len(r) for r in rows} - {dim}:
        raise ValueError(f"rays must have {dim} entries: {rays}")
    lines, normals = _double_description(rows, dim)
    normals = sorted(r for r, _ in normals)
    for l in lines:
        normals += [l, tuple(-x for x in l)]
    return Cone(dim, tuple(normals))


def set_bits(mask):
    """The set bits of ``mask``, lowest first, each as a one-bit mask;
    ``mask & -mask`` is the lowest set bit."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _members(mask, items):
    """The items whose positions are set bits of ``mask``, as a frozenset."""
    return frozenset(items[b.bit_length() - 1] for b in set_bits(mask))


def _faces(facets, n):
    """Nonzero faces of a pointed cone spanned by ``n`` pairwise
    non-parallel vectors, from the tight masks ``facets`` of its facets
    (bit i for vector i).

    Returns ``{dimension: set of masks}``, each face the mask of its
    vectors, so a caller that only counts faces builds no vector sets.
    Its proper faces are intersections of facets (Ziegler, *Lectures on
    Polytopes*, Lecture 2).  For a face G, each ``G & F`` over the facets
    F not containing G is a proper face of G, and each facet H of G is one
    of them: H is the intersection of the facets containing it, one of
    which, F, does not contain G, and ``G & F`` is then a proper face of G
    containing H, so H.  So ``dim G = 1 + max dim(G & F)``, the zero face
    (mask 0) having dimension 0; counted in order of size, each proper
    ``G & F`` has its dimension before G, and G itself reads -1.  A face
    of one or two vectors is spanned by them, so its dimension is their
    number.  Counting takes O(faces * facets) steps.  A mask of a face
    that is not a facet may be among ``facets``: it adds no face, and
    ``G & F`` is still a proper face of G, so no maximum grows.
    """
    masks = {(1 << n) - 1, *facets}
    frontier = set(facets)
    while frontier:
        frontier = {f & g for f in frontier for g in facets} - masks
        masks |= frontier
    masks.discard(0)
    dims = {0: 0}
    get = dims.get
    result = {}
    for mask in sorted(masks, key=int.bit_count):
        d = mask.bit_count()
        if d > 2:
            d = 1 + max(get(mask & f, -1) for f in facets)
        dims[mask] = d
        result.setdefault(d, set()).add(mask)
    return result


def _pack(vectors, width):
    """``(columns, high)`` of integer ``vectors``, each entry in a signed
    field of ``width`` bits: column k is ``sum(v_j[k] << j*width)`` and
    ``high`` holds each field's top bit.  A column is read as one word of
    two's complement fields (``struct`` at 16, 32 or 64 bits, ``to_bytes``
    wider), in which a negative entry reads ``2**width`` more."""
    high = ((1 << width * len(vectors)) - 1) // ((1 << width) - 1) << width - 1
    code = {16: "h", 32: "i", 64: "q"}.get(width)
    fields = code and struct.Struct(f"<{len(vectors)}{code}")
    columns = []
    for column in zip(*vectors):
        word = int.from_bytes(
            fields.pack(*column) if fields
            else b"".join(v.to_bytes(width // 8, "little", signed=True)
                          for v in column), "little")
        columns.append(word - ((word & high) << 1))
    return tuple(columns), high


def _signs(vectors, columns, high, width):
    """For each of ``vectors`` v, the top bits of the fields of
    ``high + sum(v[k] * columns[k])`` that hold a value ``>= 0``, and of
    those that hold 0 (see :func:`form_signs`)."""
    every = high >> width - 1
    for v in vectors:
        word = high + sum(map(operator.mul, v, columns))
        yield word & high, (word ^ word - every) & high


def _width(bound, least):
    """The least power of two w from ``least`` with ``2**(w-1) > bound``."""
    return max(least, 1 << bound.bit_length().bit_length())


def _forms_and_points(forms, points):
    """``forms`` and ``points`` as tuples of tuples: forms of one length
    and a batch of one point or more, with as many int coordinates."""
    forms = tuple(map(tuple, forms))
    if len(set(map(len, forms))) > 1:
        raise ValueError("forms must all have the same length")
    points = _point_tuple(points)
    if forms and len(points[0]) != len(forms[0]):
        raise ValueError(f"point has {len(points[0])} coordinates, the "
                         f"forms have {len(forms[0])}")
    if not all(map(isinstance, itertools.chain.from_iterable(points),
                   itertools.repeat(int))):
        raise ValueError(f"coordinates must be ints, got {points!r}")
    return forms, points


def form_signs(forms, points):
    """Signs of integer linear ``forms`` at a batch of integer ``points``,
    for all the forms and points at once: ``(width, every, nonnegative,
    zero)``, bitsets in which bit ``p * width`` stands for ``points[p]``.
    ``every`` holds them all, ``nonnegative[j]`` those where form j is
    ``>= 0`` and ``zero[j]`` those where it vanishes.

    Many small fields packed into one word are added and compared with
    full-word instructions (Lamport, "Multiple byte processing with
    full-word instructions", *CACM* 18(8), 1975); Python's exact integers
    serve as words of any length.  The points are packed by :func:`_pack`,
    one field of width w per point, and field p of the word
    ``high + sum(f[k] * column[k])`` is ``c_p = f(x_p) + 2**(w-1)``.  The
    width is the smallest power of two from 16 with
    ``2**(w-1) > max(1, max_j ||f_j||_1) * max(1, max_p,k |x_p[k]|)``.  As
    ``|f(x_p)| <= ||f||_1 * max_k |x_p[k]|``, every ``c_p`` lies in
    ``[1, 2**w)``, so the ``c_p`` are the base-``2**w`` digits of the
    word: no field carries into the next, and the top bit of field p is
    set exactly when ``f(x_p) >= 0``.  Every ``c_p - 1`` is a digit too,
    and its top bit differs from that of ``c_p`` exactly when
    ``f(x_p) == 0``.  The bound is at least every coordinate, so each
    packed entry fits its field.  Packing the points pays for fresh
    batches of many points, as :meth:`Fan.locate` evaluates the fan's 24
    normals at 512 points a batch; forms met again and again at a few
    points are packed once instead (:func:`point_signs`).
    """
    forms, points = _forms_and_points(forms, points)
    bound = max([1] + [sum(map(abs, f)) for f in forms]) \
        * max(1, max(map(abs, itertools.chain.from_iterable(points)),
                     default=0))
    width = _width(bound, 16)
    columns, high = _pack(points, width)
    nonnegative, zero = [], []
    for n, z in _signs(forms, columns, high, width):
        nonnegative.append(n >> width - 1)
        zero.append(z >> width - 1)
    return width, high >> width - 1, nonnegative, zero


@functools.lru_cache(maxsize=128)
def _packed_forms(forms):
    """``(top, width, columns, high)``: the largest ``|coefficient|`` of
    ``forms`` and their :func:`_pack` at ``width = _width(top, 32)``.
    Kept for at most 128 form tuples; the fan's 48 certificates fit."""
    top = max(map(abs, set().union(*forms)), default=0)
    width = _width(top, 32)
    return top, width, *_pack(forms, width)


def point_signs(forms, points):
    """Signs of integer linear ``forms`` at each of a batch of integer
    ``points``: ``(width, high, signs)``, where ``signs[p]`` is
    ``(nonnegative, zero)`` at ``points[p]``, bitsets in which the top bit
    of field j, bit ``(j + 1) * width - 1`` of ``high``, stands for
    ``forms[j]``.

    :func:`form_signs` with the roles swapped, as ``f(x) = x(f)``: the
    forms are packed, one field per form, and each point is one sum of
    products.  So the width is the smallest power of two from 32 with
    ``2**(w-1) > max(1, max_j,k |f_j[k]|) * max(1, max_p ||x_p||_1)``.
    The packing depends on the forms alone, so it is kept per tuple of
    forms (:func:`_packed_forms`); a batch that needs wider fields than it
    has is packed for itself.  A certificate of
    ``hypersimplex.certified`` is thus packed once for both of its checks:
    its cone proof would fit 16 bits, its interior samples need 32, and a
    packing per width would pack it twice.
    """
    forms, points = _forms_and_points(forms, points)
    top, width, columns, high = _packed_forms(forms)
    needed = _width(max(1, top) * max(sum(map(abs, x)) for x in points),
                    width)
    if needed > width:
        width = needed
        columns, high = _pack(forms, width)
    return width, high, list(_signs(points, columns, high, width))


class Fan:
    """A collection of full-dimensional cones with common-face intersections.

    Two fans are equal when their dimensions and maximal cones are; being
    mutable, a fan is not hashable."""

    __hash__ = None

    def __init__(self, ambient_dim, maximal_cones):
        dims = {c.ambient_dim for c in maximal_cones}
        if dims - {ambient_dim}:
            raise ValueError(f"cones must have ambient dimension "
                             f"{ambient_dim}: got {sorted(dims)}")
        self.ambient_dim = ambient_dim
        self.maximal_cones = tuple(sorted(maximal_cones,
                                          key=lambda c: c.rays))
        # Cones share most of their facets, so point location evaluates
        # each distinct normal once; a cone lists its normals' positions.
        index = {}
        for c in self.maximal_cones:
            for h in c.halfspaces:
                index.setdefault(h, len(index))
        self._normals = tuple(index)
        self._cone_normals = tuple(tuple(map(index.__getitem__, c.halfspaces))
                                   for c in self.maximal_cones)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ambient_dim, self.maximal_cones) \
            == (other.ambient_dim, other.maximal_cones)

    def __repr__(self):
        return (f"Fan(ambient_dim={self.ambient_dim!r}, "
                f"maximal_cones={self.maximal_cones!r})")

    @property
    def rays(self):
        return sorted({r for c in self.maximal_cones for r in c.rays})

    @functools.cached_property
    def _faces_by_dim(self):
        """Faces of the maximal cones by dimension, graded on first use
        from their tight masks."""
        faces = {}
        for c in self.maximal_cones:
            if not c.is_pointed:
                raise NotPointedError(c.lines[0])
            for d, fs in _faces(c.tight, len(c.rays)).items():
                faces.setdefault(d, set()).update(
                    _members(m, c.rays) for m in fs)
        return faces

    def face_ray_sets(self):
        return set().union(*self._faces_by_dim.values())

    def f_vector(self):
        return tuple(len(self._faces_by_dim.get(d, ()))
                     for d in range(1, self.ambient_dim + 1))

    def locate(self, points):
        """``(width, every, held, zero)``, bitsets in which bit
        ``p * width`` stands for ``points[p]``: ``every`` holds them all,
        ``held[i]`` those in cone i, and ``zero[j]`` those where
        ``_normals[j]`` vanishes, as :func:`form_signs` gives."""
        points = _point_tuple(points)
        if len(points[0]) != self.ambient_dim:
            raise ValueError(f"points must have {self.ambient_dim} "
                             f"coordinates, got {points!r}")
        width, every, nonnegative, zero = form_signs(self._normals, points)
        held = [functools.reduce(operator.and_,
                                 map(nonnegative.__getitem__, normals), every)
                for normals in self._cone_normals]
        return width, every, held, zero

    def odd_points(self, points):
        """Yield ``(p, cones, zero)`` for each integer point ``points[p]``
        in no cone or in two or more, in order: bit i of ``cones`` is set
        when cone i holds it, and bit j of ``zero`` when ``_normals[j]``
        vanishes there."""
        width, every, held, zero = self.locate(points)
        once = twice = 0  # the points in one or more cones, two or more
        for h in held:
            twice |= once & h
            once |= h
        # Bit i of a point's pattern is whether bitset i of held + zero
        # holds it.  Patterns are keyed, in point order, by the length of
        # the point's bit, a small int that hashes faster than the bit.
        odd = every ^ once | twice
        patterns = dict.fromkeys(map(int.bit_length, set_bits(odd)), 0)
        for i, flags in enumerate(held + zero):
            for end in map(int.bit_length, set_bits(flags & odd)):
                patterns[end] |= 1 << i
        cone_bits = (1 << len(held)) - 1
        for end, pattern in patterns.items():
            yield (end - 1) // width, pattern & cone_bits, pattern >> len(held)


@functools.lru_cache(maxsize=256)
def _affine_frame(points):
    """Integer coordinates of ``points`` on their affine span, and its
    dimension: the differences from the first point, scaled to integers and
    projected onto the pivot columns of their elimination, an affine
    bijection of the span onto ``R^dim`` that keeps lower envelopes.  Kept
    for at most 256 point tuples."""
    diffs, _ = integer_rows(_minus(p, points[0]) for p in points)
    pivots, _ = _pivot_columns(diffs)
    return tuple(tuple(d[c] for c in pivots) for d in diffs), len(pivots)


def regular_subdivision(points, heights):
    """Maximal cells of the lower-envelope subdivision (min convention).

    Each lifted point is ``(p_i, h_i)``; a cell is the frozenset of indices
    of the points lying on one lower facet of the lifted convex hull.  Cells
    are returned sorted, as frozensets of point indices, read off the masks
    of :func:`lower_cell_masks`.  The points must be distinct: a cell could
    not tell a repeated point from its copy.
    """
    points = _distinct_points(points)
    items = range(len(points))
    return sorted((_members(mask, items)
                   for mask in lower_cell_masks(points, heights)), key=sorted)


def lower_cell_masks(points, heights):
    """The maximal cells of :func:`regular_subdivision`, each as a bitmask
    over the points: bit i stands for point i.  The masks come in the
    sweep's order, with no repeat.

    The sweep inserts ``t >= 0`` first, so it never builds the upper half of
    the lifted hull, and then the points from the lowest height up, so the
    intermediate cones stay close to the lower envelope (ties keep index
    order).  The cells do not depend on this order: they are the tight masks
    of the final extreme rays.  Each row carries the bit of its point, and
    ``t >= 0`` the bit above them all, so a mask needs no mapping back to
    the original indices.  Distinct extreme rays have distinct tight sets,
    so no cell comes twice.
    """
    points = _distinct_points(points)
    if len(points) != len(heights):
        raise ValueError("points and heights must have equal length")
    reduced, d = _affine_frame(points)
    if d < 1:
        raise ValueError("points must affinely span dimension >= 1")
    [h_ints], _ = integer_rows([heights])

    # Affine supports (c, c0, t):  t >= 0,  <u_i, c> + c0 <= t * h_i.
    # Row 0 is t >= 0; row j + 1 is the point order[j].
    order = sorted(range(len(h_ints)), key=h_ints.__getitem__)
    halfspaces = [tuple(0 for _ in range(d + 1)) + (1,)]
    halfspaces += [tuple(-x for x in reduced[i]) + (-1, h_ints[i])
                   for i in order]
    # The cone is pointed: if (c, c0, t) is tight on every row, t = 0 and
    # <u_i, c> + c0 = 0 on the u_i, which affinely span R^d: c = 0, c0 = 0.
    vertical = 1 << len(points)
    masks = _double_description(halfspaces, d + 2,
                                bits=[vertical] + [1 << i for i in order])
    # Rays tight on t >= 0 are vertical and bound no lower facet.
    return [mask for mask in masks if not mask & vertical]


def intersection_dim(points, cell_a, cell_b):
    """Dimension of the common face spanned by shared cell vertices (-1 if
    none).  Cells are sets of indices into ``points``."""
    for i in itertools.chain(cell_a, cell_b):
        if not isinstance(i, int) or not 0 <= i < len(points):
            raise ValueError(f"cell index {i!r} is not an int in "
                             f"range({len(points)})")
    shared = sorted(set(cell_a) & set(cell_b))
    if not shared:
        return -1
    base = points[shared[0]]
    diffs, _ = integer_rows(_minus(points[i], base) for i in shared[1:])
    return len(_pivot_columns(diffs)[0])


def polytope_f_vector(vertices):
    """Counts of proper faces by dimension: ``(f_0, ..., f_{dim-1})``, or
    ``(1,)`` for a single point, from the tight masks of
    :func:`_polytope_facets`: the faces of the cone over the rows
    ``(v, 1)``, one dimension lower.  The vertices must be distinct.
    """
    vertices = _distinct_points(vertices)
    _, _, masks = _polytope_facets(vertices)
    faces = _faces(masks, len(vertices))
    top = max(faces)  # the polytope itself, counted only if it is a point
    return tuple(len(faces[d]) for d in range(1, top)) or (1,)


def point_in_hull(y, vertices):
    """Exact membership test ``y in conv(vertices)``.

    By Farkas' lemma, the hull is the set of points at which every affine
    functional that is nonnegative on the vertices is nonnegative
    (Ziegler, *Lectures on Polytopes*, ch. 1), which
    :func:`_polytope_facets` gives as the equations of the affine span and
    the facet functionals.  Its cache makes a repeated list cost one
    evaluation of each functional at ``y``.  Repeated vertices are allowed:
    they leave the hull as it is.  Coordinates must be ints or Fractions,
    yet a list equal to a cached rational list, floats included, is
    answered exactly from the cache.
    """
    key = _point_tuple(vertices)
    if len(y) != len(key[0]):
        raise ValueError(f"query has {len(y)} coordinates, the vertices "
                         f"have {len(key[0])}")
    lines, functionals, _ = _polytope_facets(key)
    [u], _ = integer_rows([tuple(y) + (1,)])
    return not any(_dot(l, u) for l in lines) and \
        all(_dot(a, u) >= 0 for a in functionals)


@functools.lru_cache(maxsize=256)
def _polytope_facets(vertices):
    """Lines and rays of the cone of affine functionals ``(a, a_0)`` with
    ``<v, a> + a_0 >= 0`` on every vertex: the equations of the affine
    span, and the facet functionals as integer vectors, each with the mask
    of the vertices it is tight on (bit i for vertex i)."""
    rows, _ = integer_rows(v + (1,) for v in vertices)
    lines, rays = _double_description(rows, len(vertices[0]) + 1)
    return (tuple(lines), tuple(r for r, _ in rays),
            tuple(m for _, m in rays))
