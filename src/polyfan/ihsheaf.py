"""Combinatorial intersection cohomology via minimal extension sheaves.

For a fan the sheaf is built cone by cone over the skeleton: sections
over a boundary fan are the equalizer of the facet restriction maps,
their quotient modulo the degree-two maximal ideal picks the generator
degrees of the next free module, and chosen homogeneous lifts define the
new restriction maps.  The minimal extension sheaf is unique up to
isomorphism, so it commutes with the fan's linear automorphisms
(Barthel-Brasselet-Fieseler-Kaup 2002, :attr:`Fan.symmetries`), and a
cone need not be constructed when a cone of its orbit is built.  Of each
antipodal pair the second cone is transported from the first through
the point reflection, a substitution by -I, which keeps every module.
The first is transported from the least cone of its orbit through a
group element g when each proper face of both has one generator, in
degree 0, with every image 1: such a face module is the same coordinate
data under any linear map, so the images, taken from each face's
cone-basis coordinates to its image's, define the module of the image
cone.  Each cone transported through g is checked: its generator
degrees against its own g-polynomial and its images for gluing across
each ridge of its boundary.  Any other cone is constructed.

The global sections are split by parity.  The reflection sends the
block of a maximal cone sigma to the block of -sigma in the same
coordinates, with sign (-1)^m on coefficients of ordinary degree m, so
E = E+ (+) E- for its +1 and -1 eigenspaces.  A section in the half
E^eps is fixed by its blocks on the representatives, one maximal cone
per antipodal pair: the block of -sigma is eps times the reflected block
of sigma.  So :meth:`MinimalExtensionSheaf.section_space` folds every
wall equation onto the representatives' columns, and E^eps is a kernel
with half the columns; no kernel over all maximal cones and no matrix of
the reflection is built.  The coordinate functions are odd, so
(E/mE)^eps = E^eps / m E^-eps, the quotient of one half by the products
of the other, and the support function is even, so its Lefschetz maps
send each half to itself.  A fan that is not centrally symmetric takes
the same path with no fold and a single half.

All objects are truncated at an even degree cap; linear forms sit in
degree 2, so degree q holds polynomials of ordinary degree q/2.  The
variables of a cone are the coordinates y of its span in the stored rows
R_p of :meth:`Fan.cone_basis`, x = sum_p y_p R_p, so a linear function
is read off the integral rows: the ambient coordinate x_j is sum_p
R_p[j] y_p.  Every
matrix is sparse rows or columns of :mod:`polyfan.linalg`, kept in its
integral form from the moment it is built: ints over Q, integer pairs
over Q(sqrt d), with the arithmetic of the fan's field chosen once as a
:class:`linalg.Ring`.  A restriction matrix is integral rows with one
positive integer scale, the matrix being rows / scale.  Generator
images are integral: a generator may carry any nonzero constant, so
each lift is scaled to clear its images' denominators.  Section spaces
are :class:`linalg.Kernel` objects of the integral wall rows.  The one
quotient modulo the maximal ideal (``MinimalExtensionSheaf.quotient``,
for boundary fans and the halves of the global sections) forms its
products of sections with integral linear forms by
:func:`linalg.products_rref` and keeps the stored rows of their
elimination, and so do the Lefschetz maps, over the same tables, whose
products are reduced modulo those rows fraction-free: a rank does not
depend on the scale of a row.  Every basis extraction and every product
is verified exactly by the membership test of the kernel, so a product
outside its half raises instead of silently producing wrong dimensions.

This module computes the sheaf's invariants: Poincare series, refined
series and Lefschetz rank tables.  Its only predicates verify the
sheaf's own construction (the minimal-extension axioms, flabbiness, and
each constructed cone's generator degrees against its g-polynomial);
the identities a report checks are decided in :mod:`polyfan.checks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

from . import hvector, linalg
from .fans import ConewiseLinear, Fan, FanError
from .polynomials import IntPoly, RefinedSeries, coeff, trim
from .polytopes import mask_bits


class DegreeCapError(RuntimeError):
    """The degree cap is too small to certify the graded bookkeeping."""


class SheafError(RuntimeError):
    """An exact internal consistency check failed."""


# ---------------------------------------------------------------------------
# Monomial calculus


@lru_cache(maxsize=None)
def monomials(nvars: int, deg: int) -> tuple:
    """Exponent tuples of total degree ``deg`` in ``nvars`` variables,
    in a fixed (lexicographically descending) order."""
    if deg < 0:
        return ()
    if nvars == 0:
        return ((),) if deg == 0 else ()
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), deg, nvars)
    return tuple(out)


@lru_cache(maxsize=None)
def _monomial_index(nvars: int, deg: int) -> dict:
    return {m: i for i, m in enumerate(monomials(nvars, deg))}


def _substituted(memo: dict, forms: tuple, alpha: tuple, ring: linalg.Ring) -> tuple:
    """The monomial x^alpha with source variable i replaced by the linear
    form ``forms[i]``, given as its nonzero (target variable, integral
    coefficient) pairs: (target exponent, coefficient) pairs, nonzero
    only.  ``memo`` maps exponents to results and starts holding x^0 ->
    1; each new exponent costs one product of a known result with a
    form."""
    out = memo.get(alpha)
    if out is None:
        i = next(i for i, e in enumerate(alpha) if e)
        lower = _substituted(memo, forms, alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :], ring)
        plus, times, zero = ring.add, ring.mul, ring.zero
        acc: dict = {}
        for mono, c in lower:
            for j, fj in forms[i]:
                key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                acc[key] = plus(acc.get(key, zero), times(c, fj))
        out = tuple((m, c) for m, c in acc.items() if c != zero)
        memo[alpha] = out
    return out


# ---------------------------------------------------------------------------
# The sheaf


@dataclass
class ConeModule:
    """Free module data of one cone: generator degrees and, per proper
    face, the image of each generator as an integral coordinate vector
    there (ints, or pairs over Q(sqrt d))."""

    cone_id: int
    gen_degrees: tuple
    images: dict  # face_id -> tuple(per generator sparse coefficient vector)


class MinimalExtensionSheaf:
    """Minimal extension sheaf of a fan, truncated at ``cap``."""

    def __init__(self, fan: Fan, cap: int):
        self.fan = fan
        self.cap = cap
        # The arithmetic of every integral row and vector of the sheaf.
        self.ring = linalg.ring(fan.radicand)
        self.modules: dict = {}
        # On a centrally symmetric fan: the cone involution, the halves of
        # the global sections by the reflection's eigenvalue, and one
        # maximal cone per antipodal pair for their columns.  Otherwise
        # one half, None, over every maximal cone.
        self.antipode = fan.antipode_map() if fan.is_centrally_symmetric() else None
        self.parities = (None,) if self.antipode is None else (1, -1)
        self.representatives = tuple(
            c for c in fan.maximal_ids if self.antipode is None or c <= self.antipode[c]
        )
        self._layout: dict = {}
        self._restr: dict = {}
        self._substitutions: dict = {}
        self._memos: dict = {}
        self._global: dict = {}
        self._tables: dict = {}

    # -- coordinates ------------------------------------------------------

    def nvars(self, cone_id: int) -> int:
        return self.fan.cones[cone_id].dim

    def gen_blocks(self, cone_id: int, q: int):
        """Coordinate layout of E_cone^q: (gen index, gen degree, offset,
        monomial count) per generator, plus the total dimension."""
        key = (cone_id, q)
        cached = self._layout.get(key)
        if cached is None:
            blocks = []
            offset = 0
            nv = self.nvars(cone_id)
            for i, d in enumerate(self.modules[cone_id].gen_degrees):
                if d <= q:
                    count = len(monomials(nv, (q - d) // 2))
                    blocks.append((i, d, offset, count))
                    offset += count
            cached = (tuple(blocks), offset)
            self._layout[key] = cached
        return cached

    def module_dim(self, cone_id: int, q: int) -> int:
        return self.gen_blocks(cone_id, q)[1]

    def odd_coordinates(self, cone_id: int, q: int) -> tuple:
        """Per coordinate of E_cone^q, whether its ordinary polynomial
        degree is odd: the point reflection to the antipodal cone, in the
        same coordinates, negates exactly those."""
        blocks = self.gen_blocks(cone_id, q)[0]
        return tuple((q - d) // 2 % 2 == 1 for _, d, _, count in blocks for _ in range(count))

    def span_substitution_forms(self, src_id: int, tgt_id: int, linear=None) -> tuple:
        """(forms, D): per source variable, the linear form it restricts to
        in the target cone's coordinates (the target must span a subspace
        of the source's span) is forms[i] / D, for integral sparse forms
        over the target variables and the least positive integer D.  The
        source variable of pivot p is x_p / d_p, and on the target x_p is
        sum_t y_t R_t[p].  With ``linear``, the matrix (rows, n) of a
        linear map that sends the target's span into the source's, each
        form is the source variable composed with that map: x_p is then
        sum_t y_t (rows R_t)[p] / n."""
        src_rows, src_pivots = self.fan.cone_basis(src_id)
        tgt_rows, _ = self.fan.cone_basis(tgt_id)
        d, zero = self.ring.d, self.ring.zero
        n = 1
        if linear is not None:
            matrix, n = linear
            dot = self.ring.dot
            tgt_rows = [{p: dot(matrix[p], row) for p in src_pivots} for row in tgt_rows]
        pieces = []
        for src, p in zip(src_rows, src_pivots):
            form = {t: row[p] for t, row in enumerate(tgt_rows) if row[p] != zero}
            pieces.append((form, n * (src[p] if d is None else src[p][0])))
        return linalg.common_scale(pieces, d)

    def coordinate_forms(self, cones: tuple, coordinates) -> list:
        """The coordinate functions x_j, j in ``coordinates``, on the given
        nonzero cones, as the forms of a :meth:`quotient`: per j, the
        integral covectors of the cones in their coordinates laid end to
        end, x_j being sum_t y_t R_t[j] on a cone."""
        bases = [self.fan.cone_basis(c)[0] for c in cones]
        return [[row[j] for rows in bases for row in rows] for j in coordinates]

    # -- restriction matrices ----------------------------------------------

    def restriction_matrix(self, src_id: int, tgt_id: int, q: int):
        """Degree-q restriction E_src^q -> E_tgt^q as (rows, scale): integral
        sparse rows, one per target coordinate, and a positive integer
        scale, the matrix being rows / scale.  The column of source
        monomial x^a times generator g holds x^a, substituted into the
        target variables, times each nonzero block of the image of g.
        The forms substituted are integral with common denominator D, so
        x^a comes out D^|a| times too large; the block of g is multiplied
        by D^(k - |a|) for k the largest |a|, and the scale is D^k."""
        key = (src_id, tgt_id, q)
        cached = self._restr.get(key)
        if cached is not None:
            return cached
        src_blocks, _ = self.gen_blocks(src_id, q)
        tgt_blocks, tgt_dim = self.gen_blocks(tgt_id, q)
        rows = [{} for _ in range(tgt_dim)]
        scale = 1
        ring = self.ring
        plus, times, zero, one = ring.add, ring.mul, ring.zero, ring.one
        if tgt_dim:
            forms, den, memo = self._substitution(src_id, tgt_id)
            top = max((q - d_i) // 2 for _, d_i, _, _ in src_blocks)
            scale = den**top
            tgt_nv = self.nvars(tgt_id)
            tgt_offset = {g: off for g, _, off, _ in tgt_blocks}
            images = self.modules[src_id].images[tgt_id]
            for gi, d_i, src_off, _ in src_blocks:
                k = (q - d_i) // 2
                factor = den ** (top - k)
                # Nonzero image terms: (row offset of the target generator
                # block, its monomial index, exponent shift or None, coeff
                # times factor, or None for 1).
                pieces = []
                for gj, d_j, img_off, img_cnt in self.gen_blocks(tgt_id, d_i)[0]:
                    monos = monomials(tgt_nv, (d_i - d_j) // 2)
                    index = _monomial_index(tgt_nv, (q - d_j) // 2)
                    for c, v in images[gi].items():
                        if img_off <= c < img_off + img_cnt:
                            shift = monos[c - img_off]
                            if factor != 1:
                                v = ring.scale(factor, v)
                            shift = shift if any(shift) else None
                            pieces.append((tgt_offset[gj], index, shift, None if v == one else v))
                src_monos = monomials(self.nvars(src_id), k)
                for col, alpha in enumerate(src_monos, src_off):
                    terms = _substituted(memo, forms, alpha, ring)
                    for off, index, shift, v in pieces:
                        for mono, c in terms:
                            row = rows[off + index[tuple(map(add, mono, shift)) if shift else mono]]
                            row[col] = plus(row.get(col, zero), c if v is None else times(c, v))
        cached = (tuple({c: v for c, v in row.items() if v != zero} for row in rows), scale)
        self._restr[key] = cached
        return cached

    def _substitution(self, src_id: int, tgt_id: int, linear=None) -> tuple:
        """The :meth:`span_substitution_forms`, each form as its nonzero
        (target variable, coefficient) pairs, their denominator D, and
        the memo of :func:`_substituted`.  Without ``linear`` they are
        kept per target cone and source pivots and pivot values, which
        fix the forms."""
        rows, pivots = self.fan.cone_basis(src_id)
        key = (tgt_id, pivots, tuple(row[p] for row, p in zip(rows, pivots)))
        cached = None if linear else self._substitutions.get(key)
        if cached is None:
            sparse, den = self.span_substitution_forms(src_id, tgt_id, linear)
            forms = tuple(tuple(form.items()) for form in sparse)
            width = self.nvars(tgt_id)
            # Equal forms share one memo: many pairs of cones restrict by
            # the same coordinate forms.
            memo = self._memos.get(forms)
            if memo is None:
                memo = self._memos[forms] = {(0,) * len(forms): (((0,) * width, self.ring.one),)}
            cached = (forms, den, memo)
            if not linear:
                self._substitutions[key] = cached
        return cached

    # -- section spaces -----------------------------------------------------

    def section_layout(self, max_ids: tuple, q: int):
        offsets = []
        total = 0
        for cid in max_ids:
            offsets.append(total)
            total += self.module_dim(cid, q)
        return tuple(offsets), total

    def section_space(self, max_ids: tuple, q: int, parity: int | None = None) -> linalg.Kernel:
        """The :class:`linalg.Kernel` of the :meth:`wall_rows`: the basis of
        compatible tuples over the given maximal cones, as sparse
        vectors, with the rows that verify membership in it."""
        return linalg.integral_kernel(*self.wall_rows(max_ids, q, parity), self.ring.d)

    def wall_rows(self, max_ids: tuple, q: int, parity: int | None = None) -> tuple:
        """(rows, columns): the wall equations at degree q on tuples over
        the given maximal cones, laid out by :meth:`section_layout`, as
        integral sparse rows (per wall and target coordinate, the
        restriction from one side minus the restriction from the other),
        and the number of columns.

        Only codimension-one contacts are imposed.  That is complete for
        global sections of a complete fan and for boundary fans, where
        every wall separates exactly two maximal cones and the
        wall-crossing graph of any star is connected.

        A ``parity`` eps of 1 or -1 (``max_ids`` the
        ``representatives``) gives the half E^eps of the global sections:
        the block of -sigma is eps times the reflected block of sigma, so
        each wall row of the fan is folded onto the representatives'
        columns, and of each antipodal pair of walls one is kept.
        """
        fan = self.fan
        offsets, total = self.section_layout(max_ids, q)
        # Per cone: its column offset and, for a folded antipode, which
        # of its coordinates change sign.
        place = {cid: (off, None) for cid, off in zip(max_ids, offsets)}
        cones = max_ids
        if parity is not None:
            cones = fan.maximal_ids
            for cid, off in zip(max_ids, offsets):
                flip = tuple(odd != (parity < 0) for odd in self.odd_coordinates(cid, q))
                place[self.antipode[cid]] = (off, flip)
        if len({fan.cones[cid].dim for cid in cones}) > 1:
            raise SheafError("wall equations need equidimensional cones")
        pairs = []
        for f, incident in sorted(fan.walls(cones).items()):
            if len(incident) == 2:
                if parity is None or f <= self.antipode[f]:
                    pairs.append((incident[0], incident[1], f))
            elif len(incident) > 2:
                raise SheafError("wall shared by more than two cones")
        ring = self.ring
        neg, plus, zero = ring.neg, ring.add, ring.zero
        rows = []
        for a, b, f in pairs:
            (oa, flip_a), (ob, flip_b) = place[a], place[b]
            # R_a / s_a = R_b / s_b is (s_b / g) R_a = (s_a / g) R_b.
            rows_a, scale_a = self.restriction_matrix(a, f, q)
            rows_b, scale_b = self.restriction_matrix(b, f, q)
            factor_a, factor_b = linalg.cofactors(scale_a, scale_b)
            for row_a, row_b in zip(rows_a, rows_b):
                if factor_a != 1:
                    row_a = {c: ring.scale(factor_a, v) for c, v in row_a.items()}
                if factor_b != 1:
                    row_b = {c: ring.scale(factor_b, v) for c, v in row_b.items()}
                row = {oa + c: neg(v) if flip_a and flip_a[c] else v for c, v in row_a.items()}
                for c, v in row_b.items():
                    if not (flip_b and flip_b[c]):
                        v = neg(v)
                    c += ob
                    # Columns meet only across a wall that is its own antipode.
                    if c in row:
                        v = plus(row[c], v)
                        if v == zero:
                            del row[c]
                            continue
                    row[c] = v
                rows.append(row)
        return rows, total

    # -- quotients modulo the maximal ideal -----------------------------------

    @staticmethod
    def _cone_set(parity: int | None, cone: int | None = None) -> str:
        """The sections of a :meth:`quotient` for an error message: a half
        of the global sections, the boundary of the cone being built, or
        the global sections."""
        if parity is not None:
            return f"global half {parity:+d}"
        return "global sections" if cone is None else f"cone {cone}"

    def quotient(self, max_ids: tuple, q: int, forms, below, parity: int | None = None, cone: int | None = None) -> dict:
        """Sections over the given maximal cones at degree q modulo the
        ideal generated by ``forms`` (per linear form, the integral
        covectors of the cones of ``max_ids`` in their coordinates, laid
        end to end, as :meth:`coordinate_forms` gives them): the
        :class:`linalg.Kernel` of :meth:`section_space` as ``sections``,
        the products of ``below``, the section space at degree q - 2
        (None at degree 0), with the forms as ``m_rows``, the stored rows
        of their elimination in basis coordinates (pivot basis index ->
        integral row with a positive integer there and 0 at the other
        pivots), and ``complement`` (basis index -> quotient coordinate,
        ascending) for the basis vectors that represent the quotient.
        With a ``parity`` the sections are that half and ``below`` is the
        other half, for odd forms; ``cone`` names the cone whose boundary
        the sections are in an error.  Nothing is kept: the construction
        carries each degree's sections to the next, and
        :meth:`global_data` keeps the global quotients."""
        sections = self.section_space(max_ids, q, parity)
        m_rows = {}
        if q >= 2:
            m_rows = linalg.products_rref(below, sections, self._product_table(max_ids, q - 2), forms)
            if m_rows is None:
                where = f"{self._cone_set(parity, cone)}, degree {q}"
                raise SheafError(f"{where}: a product is not a section (failed exact membership check)")
        complement = (i for i in range(len(sections.free_cols)) if i not in m_rows)
        return {
            "sections": sections,
            "m_rows": m_rows,
            "complement": {i: k for k, i in enumerate(complement)},
        }

    def global_data(self, q: int) -> dict:
        """Per parity, the :meth:`quotient` of that half of the global
        sections at degree q, over the representatives, by the ambient
        maximal ideal, whose coordinate functions are odd: its products
        come from the other half at q - 2.  Kept per degree."""
        cached = self._global.get(q)
        if cached is None:
            reps = self.representatives
            forms = self.coordinate_forms(reps, range(self.fan.ambient_dim))
            below = self.global_data(q - 2) if q >= 2 else {}
            other = {p: below[None if p is None else -p]["sections"] if below else None for p in self.parities}
            cached = self._global[q] = {p: self.quotient(reps, q, forms, other[p], p) for p in self.parities}
        return cached

    def _product_table(self, max_ids: tuple, q: int) -> dict:
        """The product of a degree-q section over the given maximal cones
        with one linear form per cone, as a table for
        :func:`linalg.products_rref`: section coordinate c -> (t, k) per
        variable x_j of its cone, for the coordinate t of x_j times its
        monomial and the index k of the form's coefficient of x_j among
        the covectors laid end to end.  Only the tables over the
        representatives are kept: both halves' quotients at q + 2 and the
        Lefschetz maps at q read the same one."""
        shared = max_ids == self.representatives
        if shared and q in self._tables:
            return self._tables[q]
        offsets, _ = self.section_layout(max_ids, q)
        out_offsets, _ = self.section_layout(max_ids, q + 2)
        table = {}
        first = 0  # index k of the cone's x_0
        for cid, off, out_off in zip(max_ids, offsets, out_offsets):
            nv = self.nvars(cid)
            out_index = {g: o for g, _, o, _ in self.gen_blocks(cid, q + 2)[0]}
            for gi, d, boff, _ in self.gen_blocks(cid, q)[0]:
                k = (q - d) // 2
                target = _monomial_index(nv, k + 1)
                base = out_off + out_index[gi]
                for c, alpha in enumerate(monomials(nv, k), off + boff):
                    table[c] = tuple(
                        (base + target[alpha[:j] + (alpha[j] + 1,) + alpha[j + 1 :]], first + j)
                        for j in range(nv)
                    )
            first += nv
        if shared:
            self._tables[q] = table
        return table

    def reduce_mod_m(self, q: int, coords: dict, parity: int | None = None) -> dict:
        """Reduce integral sparse coordinates in the half of the given
        parity of the global sections at degree q modulo m*E; returns the
        sparse quotient coordinates of a nonzero multiple of the class."""
        data = self.global_data(q)[parity]
        m_rows = data["m_rows"]
        res = dict(coords)
        eliminate = self.ring.eliminate
        # The rows are fully reduced, so each pivot of the input is
        # cleared by its own row and no other pivot is touched.  The
        # elimination is fraction-free: it scales the vector, which
        # changes no rank.
        for p in [c for c in res if c in m_rows]:
            eliminate(res, m_rows[p], p)
        if any(c in m_rows for c in res):
            where = self._cone_set(parity)
            raise SheafError(f"{where}, degree {q}: reduction modulo m failed to clear pivots")
        complement = data["complement"]
        return {complement[i]: x for i, x in res.items()}


def _rank(mes: MinimalExtensionSheaf, vectors) -> int:
    """Rank of integral sparse rows or columns of the sheaf."""
    return linalg.integral_rank(vectors, mes.ring.d)


# ---------------------------------------------------------------------------
# Construction


def build_mes(fan: Fan, cap: int | None = None) -> MinimalExtensionSheaf:
    """Build the minimal extension sheaf of a fan up to an even degree cap
    (default 2*(dim+1), at most twice that: the work grows about fourfold
    per doubling of the cap).

    Cones are processed by increasing dimension with deterministic lift
    choices.  The second cone of an antipodal pair is transported from the
    first through the point reflection, and the first from the least cone
    of its orbit under the fan's :attr:`Fan.symmetries` when the faces of
    both are canonical (see the module docstring); any other cone is
    constructed.  The construction's restriction matrices are dropped on
    return: the global sections read only those of maximal cones to walls.
    """
    if cap is None:
        cap = 2 * (fan.dim + 1)
    if cap % 2 != 0:
        raise DegreeCapError("degree cap must be even")
    if cap < 2 * fan.dim:
        raise DegreeCapError(
            f"degree cap {cap} cannot certify a fan of dimension {fan.dim}"
        )
    if cap > 4 * (fan.dim + 1):
        raise DegreeCapError(f"degree cap {cap} exceeds {4 * (fan.dim + 1)}, twice the default")
    mes = MinimalExtensionSheaf(fan, cap)
    ring, n = mes.ring, fan.ambient_dim
    # The point reflection, as the matrix of its own inverse: -I over 1.
    reflection = (tuple(tuple(ring.neg(ring.one) if i == j else ring.zero for j in range(n)) for i in range(n)), 1)
    symmetries = fan.symmetries
    one = ({0: ring.one},)
    canonical = 0  # bitset of the cones with one degree-0 generator whose images are all 1
    order = sorted(
        fan.cone_ids(), key=lambda cid: (fan.cones[cid].dim, cid)
    )
    for cid in order:
        if cid in mes.modules:
            continue
        partner = mes.antipode.get(cid) if mes.antipode else None
        if fan.cones[cid].dim == 0:
            module = ConeModule(cid, (0,), {})
        elif partner is not None and partner != cid and partner in mes.modules:
            # The reflection of a module that glues glues: no check.
            module = _transport_module(mes, partner, cid, mes.antipode, reflection)
        else:
            module = None
            if symmetries is not None:
                module = _transport_in_orbit(mes, cid, *symmetries.origin[cid], canonical)
            if module is None:
                module = _construct_module(mes, cid)
        mes.modules[cid] = module
        if symmetries is not None and module.gen_degrees == (0,) and all(v == one for v in module.images.values()):
            canonical |= 1 << cid
    mes._restr.clear()
    return mes


def _transport_in_orbit(mes: MinimalExtensionSheaf, sid: int, rep: int, element: dict, canonical: int):
    """The module of a cone transported from the least cone ``rep`` of its
    orbit through the group element g (a ray permutation) with g(rep) =
    the cone, checked by :func:`_check_transported`; or None when the
    cone is its orbit's least or when some proper face of the two cones
    is not in the bitset ``canonical`` (one degree-0 generator whose
    images are all 1)."""
    fan = mes.fan
    if rep == sid or (fan.down[rep] | fan.down[sid]) & ~canonical:
        return None
    # g^-1 is read only to substitute in images that are not constant,
    # which a generator of positive degree has.
    inverse = fan.linear_map({s: r for r, s in element.items()}) if any(mes.modules[rep].gen_degrees) else None
    faces = {tau: fan.cone_image(element, tau) for tau in mask_bits(fan.down[rep])}
    module = _transport_module(mes, rep, sid, faces, inverse)
    _check_transported(mes, module, rep)
    return module


def _construct_module(mes: MinimalExtensionSheaf, sid: int) -> ConeModule:
    fan = mes.fan
    facets = fan.facets_of(sid)
    gen_degrees = []
    lifts = []  # (degree, integral boundary section vector)
    # The cone's variables on its boundary: at pivot p, d_p times the
    # variable is the coordinate x_p.
    forms = mes.coordinate_forms(facets, fan.cone_basis(sid)[1])
    below = None
    for q in range(0, mes.cap + 1, 2):
        data = mes.quotient(facets, q, forms, below, cone=sid)
        if data["complement"] and q == mes.cap:
            raise DegreeCapError(
                f"cone {sid}: quotient of boundary sections is nonzero at the "
                f"degree cap {mes.cap}; raise the cap to certify generators"
            )
        below = sections = data["sections"]
        for f, i in sections.free_cols.items():
            if i in data["complement"]:
                gen_degrees.append(q)
                lifts.append((q, linalg.integral_vector(sections, f)))
    proper = sorted(mask_bits(fan.down[sid]), key=lambda c: (-fan.cones[c].dim, c))
    hosts = [
        tau if tau in facets else next(f for f in facets if fan.down[f] >> tau & 1) for tau in proper
    ]
    per_face = [[] for _ in proper]
    for d, section in lifts:
        # The image on a facet is the lift's block there, and on a smaller
        # face the block of a facet through it, restricted: rows / scale.
        # A generator may carry any nonzero constant, so each one is
        # scaled to make all of its images integral.
        offsets, _total = mes.section_layout(facets, d)
        pieces = []
        for tau, host in zip(proper, hosts):
            start = offsets[facets.index(host)]
            stop = start + mes.module_dim(host, d)
            block = {c - start: v for c, v in section.items() if start <= c < stop}
            if host == tau:
                pieces.append((block, 1))
            else:
                rows, scale = mes.restriction_matrix(host, tau, d)
                pieces.append((linalg.sparse_mat_vec(rows, block, mes.ring.d), scale))
        for images, image in zip(per_face, linalg.common_scale(pieces, mes.ring.d)[0]):
            images.append(image)
    _check_generator_degrees(fan, sid, gen_degrees)
    return ConeModule(sid, tuple(gen_degrees), {tau: tuple(v) for tau, v in zip(proper, per_face)})


def _check_generator_degrees(fan: Fan, sid: int, gen_degrees, origin: int | None = None) -> None:
    """The generators of E_sigma counted per degree 2k are the
    coefficients of g_sigma (Barthel-Brasselet-Fieseler-Kaup), so the
    sheaf must agree with the g/h recursion on every cone, constructed
    or transported from the cone ``origin``."""
    expected = hvector.g_polynomial(fan, sid)
    found = trim([gen_degrees.count(q) for q in range(0, max(gen_degrees) + 1, 2)])
    if found != expected:
        k = next(k for k in range(len(found) + len(expected))
                 if coeff(found, k) != coeff(expected, k))
        where = f"cone {sid}" if origin is None else f"cone {sid} (transported from cone {origin})"
        raise SheafError(
            f"{where}: {coeff(found, k)} generators in degree {2 * k}, but g "
            f"has coefficient {coeff(expected, k)} at x^{k} (g = {expected})"
        )


def _transport_module(mes: MinimalExtensionSheaf, rep_id: int, new_id: int, faces: dict, inverse) -> ConeModule:
    """The module of the cone g(rep) = ``new_id`` from the module of a
    built cone rep, for a linear automorphism g of the fan: the same
    generator degrees and, on each face g(tau), the image on tau with the
    variables of tau replaced by the forms they become on g(tau).
    ``faces`` maps each proper face tau of rep to g(tau), whose module
    must be the image of the module of tau under g; ``inverse`` is the
    matrix (integral rows, n) of g^-1, read only for images that are not
    constant.  A block of generator degree d_j in an image of degree q
    holds monomials of degree k = (q - d_j) / 2, which the forms, over D,
    make D^k times too large, so each block is scaled by D^(top - k) for
    the largest k, and each generator by the least constant that makes
    all of its images integral."""
    rep, ring = mes.modules[rep_id], mes.ring
    plus, times, zero = ring.add, ring.mul, ring.zero
    per_generator = [[] for _ in rep.gen_degrees]
    for tau, vecs in rep.images.items():
        nv, substitution = mes.nvars(tau), None
        for pieces, q, vec in zip(per_generator, rep.gen_degrees, vecs):
            blocks = [(off, count, (q - d) // 2) for _, d, off, count in mes.gen_blocks(tau, q)[0]] if q else ()
            top = max((k for _, _, k in blocks), default=0)
            if not top:
                pieces.append((vec, 1))
                continue
            if substitution is None:
                substitution = mes._substitution(tau, faces[tau], inverse)
            forms, den, memo = substitution
            out: dict = {}
            for c, v in vec.items():
                off, _, k = next(b for b in blocks if b[0] <= c < b[0] + b[1])
                if top != k:
                    v = ring.scale(den ** (top - k), v)
                index = _monomial_index(nv, k)
                for mono, x in _substituted(memo, forms, monomials(nv, k)[c - off], ring):
                    t = off + index[mono]
                    out[t] = plus(out.get(t, zero), times(x, v))
            pieces.append(({t: x for t, x in out.items() if x != zero}, den**top))
    scaled = [linalg.common_scale(pieces, ring.d)[0] for pieces in per_generator]
    return ConeModule(new_id, rep.gen_degrees, {faces[tau]: images for tau, images in zip(rep.images, zip(*scaled))})


def _check_transported(mes: MinimalExtensionSheaf, module: ConeModule, origin: int) -> None:
    """A module transported through a group element: its generator
    degrees follow the cone's own g; its degree-0 generator is the
    constant 1, with every image {0: 1}, which glues on faces whose
    modules are canonical; and the images on the facets of each other
    generator glue: the wall rows of the boundary at the generator's
    degree vanish on them.  No kernel is built."""
    fan, sid = mes.fan, module.cone_id
    _check_generator_degrees(fan, sid, module.gen_degrees, origin)
    where = f"cone {sid} (transported from cone {origin})"
    one = {0: mes.ring.one}
    if any(images[0] != one for images in module.images.values()):
        raise SheafError(f"{where}: the degree-0 generator is not the constant 1")
    facets = fan.facets_of(sid)
    for q in sorted(set(module.gen_degrees) - {0}):
        rows, _ = mes.wall_rows(facets, q)
        offsets, _ = mes.section_layout(facets, q)
        for i, d in enumerate(module.gen_degrees):
            if d != q:
                continue
            vec = {off + c: v for f, off in zip(facets, offsets) for c, v in module.images[f][i].items()}
            if linalg.sparse_mat_vec(rows, vec, mes.ring.d):
                raise SheafError(f"{where}: generator {i} does not glue across the ridges of its boundary in degree {q}")


# ---------------------------------------------------------------------------
# Graded dimensions and Poincare series


def _graded_dims(mes: MinimalExtensionSheaf, parities: tuple = ()) -> tuple:
    """Per even degree up to the cap, the dimensions of the quotient and
    of the sections summed over the halves of the given parities (all
    halves by default), as two polynomials."""
    if not mes.fan.is_complete():
        raise FanError("Poincare series require a complete fan")
    u, v = [0] * (mes.cap + 1), [0] * (mes.cap + 1)
    for q in range(0, mes.cap + 1, 2):
        halves = mes.global_data(q)
        for p in parities or halves:
            u[q] += len(halves[p]["complement"])
            v[q] += len(halves[p]["sections"].free_cols)
    return trim(u), trim(v)


def sections_poincare(mes: MinimalExtensionSheaf) -> IntPoly:
    """Graded dimensions of the global sections (a polynomial in t,
    truncated at the cap); the module-level Poincare series."""
    return _graded_dims(mes)[1]


def ih_poincare(mes: MinimalExtensionSheaf) -> IntPoly:
    """Graded dimensions of global sections modulo the maximal ideal: the
    Betti numbers of combinatorial intersection cohomology."""
    return _graded_dims(mes)[0]


# ---------------------------------------------------------------------------
# Local kernels and flabbiness


def kernel_dimensions(mes: MinimalExtensionSheaf) -> dict:
    """Per cone, graded dimensions of the kernel of restriction to its
    boundary fan; verifies surjectivity (flabbiness) along the way."""
    fan = mes.fan
    out = {}
    for cid in fan.cone_ids():
        facets = fan.facets_of(cid)
        dims = [0] * (mes.cap + 1)
        for q in range(0, mes.cap + 1, 2):
            dim_e = mes.module_dim(cid, q)
            if not facets:
                dims[q] = dim_e
                continue
            boundary_dim = len(mes.section_space(facets, q).free_cols)
            # Each matrix is rows / scale; a scale changes no rank.
            rk = _rank(mes, (row for f in facets for row in mes.restriction_matrix(cid, f, q)[0]))
            dims[q] = dim_e - rk
            if rk != boundary_dim:
                raise SheafError(
                    f"restriction of cone {cid} to its boundary is not "
                    f"surjective in degree {q}"
                )
        out[cid] = trim(dims)
    return out


# ---------------------------------------------------------------------------
# The point-reflection action


# Wrapped by name in perfbench/tracing.py; only the tests' oracle calls it.
def _involution_on_basis(mes: MinimalExtensionSheaf, q: int):
    """Matrix of the reflection on the basis of the unfolded kernel of
    all global sections at degree q, as sparse columns: the block of cone
    sigma goes to the block of -sigma with sign (-1)^m on ordinary
    polynomial degree m.  Column j is (column, n) for the integral
    coordinates of the image of the :func:`linalg.integral_vector` of
    basis vector j and its positive integer n at the basis vector's free
    column, the true column being column / n (exact; raises if the
    reflection fails to preserve the section space)."""
    if mes.antipode is None:
        raise FanError("the fan is not centrally symmetric")
    max_ids = mes.fan.maximal_ids
    offsets, _ = mes.section_layout(max_ids, q)
    offset_of = dict(zip(max_ids, offsets))
    target, odd = {}, {}
    for cid, off in zip(max_ids, offsets):
        partner = offset_of[mes.antipode[cid]]
        for c, flip in enumerate(mes.odd_coordinates(cid, q)):
            target[off + c], odd[off + c] = partner + c, flip
    sections, neg = mes.section_space(max_ids, q), mes.ring.neg
    columns = []
    for f in sections.free_cols:
        b = linalg.integral_vector(sections, f)
        image = {target[c]: neg(v) if odd[c] else v for c, v in b.items()}
        coords = linalg.integral_coords(sections, image)
        if coords is None:
            raise SheafError("vector is not a section (failed exact membership check)")
        columns.append((coords, b[f] if mes.ring.d is None else b[f][0]))
    return tuple(columns)


def refined_series(mes: MinimalExtensionSheaf):
    """Refined Poincare series (u_refined, v_refined) of the reflection:
    the dimensions of the plus half plus chi times those of the minus
    half, on the quotient and on the sections respectively."""
    if mes.antipode is None:
        raise FanError("the fan is not centrally symmetric")
    (u_plus, v_plus), (u_minus, v_minus) = _graded_dims(mes, (1,)), _graded_dims(mes, (-1,))
    return RefinedSeries(u_plus, u_minus), RefinedSeries(v_plus, v_minus)


# ---------------------------------------------------------------------------
# Hard Lefschetz maps and their ranks


def lefschetz_maps(mes: MinimalExtensionSheaf, s: ConewiseLinear) -> dict:
    """Ranks of multiplication by a strictly concave conewise linear
    function on the quotient, degree q -> q + 2 for even q < cap: per
    degree and per parity of :attr:`MinimalExtensionSheaf.parities`, the
    rank of the map on that half: the rank, modulo m at q + 2, of the
    :func:`linalg.products_rref` of the function with the lifts of the
    half's quotient basis.  The function must be even under the
    reflection, as the support function of a centrally symmetric
    polytope is, so that it maps each half to itself."""
    if s.fan is not mes.fan:
        raise FanError("support function belongs to a different fan")
    # The integral covectors U of s, for U / n with one n for all cones:
    # s is even iff those of sigma and -sigma are U and -U.
    ring, _, covectors = s._integral
    reps, anti = mes.representatives, mes.antipode
    if anti and any(tuple(map(ring.neg, covectors[c])) != covectors[anti[c]] for c in reps):
        raise FanError("the function is not even under the point reflection")
    # On a cone, U / n is sum_p y_p (U.R_p) / n, and a form may carry any
    # nonzero constant, so the form is the U.R_p of every cone.
    form = [ring.dot(covectors[cid], row) for cid in reps for row in mes.fan.cone_basis(cid)[0]]
    out = {}
    for q in range(0, mes.cap, 2):
        table, target = mes._product_table(reps, q), mes.global_data(q + 2)
        out[q] = {}
        for p, data in mes.global_data(q).items():
            stored = linalg.products_rref(
                data["sections"], target[p]["sections"], table, [form], data["complement"]
            )
            if stored is None:
                where = mes._cone_set(p)
                raise SheafError(f"{where}, degree {q}: a Lefschetz product is not a section of its half")
            out[q][p] = _rank(mes, [mes.reduce_mod_m(q + 2, row, p) for row in stored.values()])
    return out


def lefschetz_rank_table(mes: MinimalExtensionSheaf, maps: dict, parities: tuple = ()):
    """Per degree of the :func:`lefschetz_maps` result: (dim source, dim
    target, rank), summed over the halves of the given parities (all
    halves by default).  Each half is mapped to itself, so the rank of
    the whole map is the sum of the halves' ranks."""
    table = {}
    for q, blocks in sorted(maps.items()):
        source, target = mes.global_data(q), mes.global_data(q + 2)
        src = tgt = rank = 0
        for p in parities or blocks:
            src += len(source[p]["complement"])
            tgt += len(target[p]["complement"])
            rank += blocks[p]
        table[q] = (src, tgt, rank)
    return table


def minus_lefschetz_table(mes: MinimalExtensionSheaf, maps: dict):
    """The :func:`lefschetz_rank_table` of the minus half, the -1
    eigenspace of the reflection."""
    if mes.antipode is None:
        raise FanError("the fan is not centrally symmetric")
    return lefschetz_rank_table(mes, maps, (-1,))


# ---------------------------------------------------------------------------
# Axiom verification


def check_minimal_extension_axioms(mes: MinimalExtensionSheaf) -> bool:
    """Numerically verify the defining properties on every cone.

    The zero cone carries a single degree-zero generator; each module is
    free by construction; and for every other cone the generator images
    on the boundary reduce to a basis of the boundary sections modulo the
    maximal ideal (the reduction of the restriction map is a degreewise
    isomorphism).  Exact rank computations throughout.
    """
    fan = mes.fan
    if mes.modules[fan.zero_id].gen_degrees != (0,):
        return False
    for cid in fan.cone_ids():
        if cid == fan.zero_id:
            continue
        facets = fan.facets_of(cid)
        module = mes.modules[cid]
        forms = mes.coordinate_forms(facets, fan.cone_basis(cid)[1])
        below = None
        for q in range(0, mes.cap + 1, 2):
            data = mes.quotient(facets, q, forms, below, cone=cid)
            below = data["sections"]
            gen_ids = [i for i, d in enumerate(module.gen_degrees) if d == q]
            if len(gen_ids) != len(data["complement"]):
                return False
            if not gen_ids:
                continue
            offsets, _ = mes.section_layout(facets, q)
            image_coords = []
            for gi in gen_ids:
                vec = {}
                for f, off in zip(facets, offsets):
                    image = module.images[f][gi]
                    if any(c >= mes.module_dim(f, q) for c in image):
                        return False
                    vec.update((off + c, v) for c, v in image.items())
                coords = linalg.integral_coords(data["sections"], vec)
                if coords is None:
                    raise SheafError("vector is not a section (failed exact membership check)")
                image_coords.append(coords)
            m_rows = data["m_rows"]
            if _rank(mes, [*m_rows.values(), *image_coords]) != len(m_rows) + len(gen_ids):
                return False
    return True
