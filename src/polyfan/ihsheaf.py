"""Combinatorial intersection cohomology via minimal extension sheaves.

For a fan the sheaf is built cone by cone over the skeleton: sections
over a boundary fan are the equalizer of the facet restriction maps,
their quotient modulo the degree-two maximal ideal picks the generator
degrees of the next free module, and chosen homogeneous lifts define the
new restriction maps.  A module keeps each lift's blocks on its facets
only: E_sigma is fixed by its restriction to the boundary, and a
restriction to a smaller face is a composite of facet restrictions,
which nothing here needs.  The minimal extension sheaf is unique up to
isomorphism, so it commutes with the fan's linear automorphisms
(Barthel-Brasselet-Fieseler-Kaup 2002, :attr:`Fan.symmetries`), and a
cone need not be constructed when a cone of its orbit is built.  Of each
antipodal pair the second cone takes the first one's module on the
opposite facets: the point reflection keeps every variable.  The first
is transported from the least cone of its orbit through a group element
g when every facet of both is simplicial: g permutes such a facet's
variables, and its module is one generator, in degree 0, with every
image 1, since its g-polynomial is 1.  Each cone transported through g
is checked: its generator degrees against its own g-polynomial and its
images for gluing across each ridge of its boundary.  Any other cone is
constructed.

The variables of a cone are the coordinates dual to a basis of its span
(:meth:`Fan.cone_coordinates`), read in one basis of the rays' span that
a linear map of the fan keeps (Brion 1996): on a simplicial cone its
rays, so restriction to a face sets the other variables to 0, else the
stored rows of its rays.  The ambient maximal ideal is generated by the
coordinates of :attr:`Fan.ambient_coordinates`.  So the sheaf of a
linear image of a fan has the same matrices, and that of a Q(sqrt d)
image of a rational polytope runs over Q.

The global sections are split by parity.  A cone's basis is its
antipode's negated, in the same order, so the reflection sends the
block of a maximal cone sigma to the block of -sigma unchanged, and
E = E+ (+) E- for its +1 and -1 eigenspaces.  A section in the half
E^eps is fixed by its blocks on the representatives, one maximal cone
per antipodal pair: the block of -sigma is eps times the block of
sigma.  So :meth:`MinimalExtensionSheaf.section_space` folds every wall
equation onto the representatives' columns, and E^eps is a kernel with
half the columns; no kernel over all maximal cones and no matrix of the
reflection is built.  The coordinate functions are odd, so
(E/mE)^eps = E^eps / m E^-eps, the quotient of one half by the products
of the other, and the support function is even, so its Lefschetz maps
send each half to itself.  A fan that is not centrally symmetric takes
the same path with no fold and a single half.

All objects are truncated at an even degree cap; linear forms sit in
degree 2, so degree q holds polynomials of ordinary degree q/2.  Every
matrix is sparse rows or columns of :mod:`polyfan.linalg`, kept in its
integral form from the moment it is built: ints over Q, integer pairs
over Q(sqrt d), with the arithmetic of the cones' coordinates chosen
once as a :class:`linalg.Ring`.  A restriction matrix is integral rows
with one positive integer scale, the matrix being rows / scale.
Generator images are integral: they are blocks of the integral lifts of
:func:`linalg.integral_vector`.
Section spaces are :class:`linalg.Kernel` objects of the integral wall
rows.  The one quotient modulo the maximal ideal
(``MinimalExtensionSheaf.quotient``, for boundary fans and the halves of
the global sections) forms its products of sections with integral
linear forms by :func:`linalg.products_rref` and keeps the stored rows
of their elimination, and so do the Lefschetz maps, over the same
tables, whose products are reduced modulo those rows fraction-free: a
rank does not depend on the scale of a row.  Every basis extraction and
every product is verified exactly by the membership test of the kernel,
so a product outside its half raises instead of silently producing
wrong dimensions.

Each map is built once per sheaf and kept under the data that fixes it.
A restriction from a simplicial cone, whose module is one generator, in
degree 0, with image 1, is the substitution alone: it is kept under the
substituted integral forms, their denominator D, the target's variable
count and the degree, so a wall and its antipode read one matrix, and
each pair of cones finds its key once.  The wall pairs of a set of cones
are found once, and their rows over one scale are kept per degree for
both halves to fold.  A product table depends only on its cones'
variable counts and generator degrees.  The maps that the construction
keeps are dropped when :func:`build_mes` returns.

This module computes the sheaf's invariants: Poincare series, refined
series and Lefschetz rank tables.  Its only predicates verify the
sheaf's own construction (the minimal-extension axioms, flabbiness, and
each constructed cone's generator degrees against its g-polynomial);
the identities a report checks are decided in :mod:`polyfan.checks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add

from . import hvector, linalg
from .fans import ConewiseLinear, Fan, FanError
from .polynomials import IntPoly, RefinedSeries, coeff, trim


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
    """Free module data of one cone: generator degrees and, per facet, the
    image of each generator as an integral coordinate vector there (ints,
    or pairs over Q(sqrt d))."""

    cone_id: int
    gen_degrees: tuple
    images: dict  # facet_id -> tuple(per generator sparse coefficient vector)


class MinimalExtensionSheaf:
    """Minimal extension sheaf of a fan, truncated at ``cap``."""

    def __init__(self, fan: Fan, cap: int):
        self.fan = fan
        self.cap = cap
        # The arithmetic of every integral row and vector of the sheaf, that
        # of the coordinates: ints on a linear image of a rational fan.
        self.ring = linalg.ring(fan.ambient_coordinates[2])
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
        # Maps kept under the data that fixes them, each built once (see
        # restriction_matrix, _substitution, _wall_pairs, wall_rows and
        # _product_table); build_mes drops those of the construction.
        self._keys: dict = {}
        self._restr: dict = {}
        self._pairs: dict = {}
        self._scaled: dict = {}
        self._tables: dict = {}
        self._memos: dict = {}
        self._global: dict = {}

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

    def coordinate_forms(self, cones: tuple, cone_id: int | None = None) -> list:
        """The variables of the cone ``cone_id``, or with None the
        coordinates of :attr:`Fan.ambient_coordinates`, which generate the
        ambient maximal ideal, as the forms of a :meth:`quotient` on the
        given cones: per form, each over a constant of its own, its values
        at their basis vectors laid end to end, its integral covectors."""
        vectors = [v for c in cones for v in self.fan.cone_coordinates(c)[0]]
        if cone_id is None:
            return [list(column) for column in zip(*vectors)]
        zero = self.ring.zero
        return [[values.get(k, zero) for k in range(len(vectors))] for values, _ in self.fan.coordinate_values(cone_id, vectors)]

    # -- restriction matrices ----------------------------------------------

    def restriction_matrix(self, src_id: int, tgt_id: int, q: int):
        """Degree-q restriction E_src^q -> E_tgt^q from a cone to one of its
        facets, whose generator images the module keeps, as (rows, scale):
        integral sparse rows, one per target coordinate, and a positive
        integer scale, the matrix being rows / scale.  Those pairs are all
        that the wall rows of the global sections and of a boundary,
        :func:`kernel_dimensions` and the axiom check ask for.  The column
        of source monomial x^a times generator g holds x^a, substituted
        into the target variables, times each nonzero block of the image
        of g.
        The forms substituted are integral with common denominator D, so
        x^a comes out D^|a| times too large; the block of g is multiplied
        by D^(k - |a|) for k the largest |a|, and the scale is D^k.

        Each matrix is built once per sheaf and shared, so no caller may
        change it.  A pair of cones finds its key once
        (:meth:`_substitution`), so a hit is two lookups: a simplicial
        source, whose module is one generator, in degree 0, with image 1,
        keeps the substitution alone under its forms, D (equal forms over
        another D differ by the scale), the target's variable count and
        q, which a wall and its antipode share; any other under (src, tgt,
        q).  A target with no coordinates at q, the zero cone above
        degree 0, gets no rows over scale 1 and keeps nothing."""
        kept = self._keys.get((src_id, tgt_id)) or self._substitution(src_id, tgt_id)
        cached = self._restr.get((kept[0], q))
        if cached is not None:
            return cached
        tgt_blocks, tgt_dim = self.gen_blocks(tgt_id, q)
        if not tgt_dim:
            return (), 1
        key, forms, den, memo = kept
        src_blocks, _ = self.gen_blocks(src_id, q)
        images = self.modules[src_id].images[tgt_id]
        rows = [{} for _ in range(tgt_dim)]
        ring = self.ring
        plus, times, zero, one = ring.add, ring.mul, ring.zero, ring.one
        top = max((q - d_i) // 2 for _, d_i, _, _ in src_blocks)
        scale = den**top
        tgt_nv = self.nvars(tgt_id)
        tgt_offset = {g: off for g, _, off, _ in tgt_blocks}
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
        self._restr[key, q] = cached
        return cached

    def _substitution(self, src_id: int, tgt_id: int) -> tuple:
        """(key, forms, D, memo) of the restrictions from a cone to a face,
        kept per pair: source variable i restricts to forms[i] / D, its
        values at the face's basis vectors (:meth:`Fan.coordinate_values`)
        as nonzero (variable, integer) pairs over the least positive D;
        ``key`` is the one :meth:`restriction_matrix` keeps the matrices
        under, and ``memo`` the :func:`_substituted` memo of the forms."""
        basis = self.fan.cone_coordinates(tgt_id)[0]
        sparse, den = linalg.common_scale(self.fan.coordinate_values(src_id, basis), self.ring.d)
        forms = tuple(tuple(form.items()) for form in sparse)
        # Equal forms share one memo: many pairs of cones restrict by the
        # same coordinate forms.
        memo = self._memos.get(forms)
        if memo is None:
            memo = self._memos[forms] = {(0,) * len(forms): (((0,) * len(basis), self.ring.one),)}
        key = (forms, den, len(basis)) if self.fan.is_simplicial_cone(src_id) else (src_id, tgt_id)
        kept = self._keys[src_id, tgt_id] = (key, forms, den, memo)
        return kept

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
        the block of -sigma is eps times the block of sigma, so each wall
        row of the fan is folded onto the representatives' columns, and of
        each antipodal pair of walls one is kept.
        """
        offsets, total = self.section_layout(max_ids, q)
        # Per cone: its column offset and whether its block is negated, as
        # a folded antipode's is in the minus half.
        place = {cid: (off, False) for cid, off in zip(max_ids, offsets)}
        if parity is not None:
            for cid, off in zip(max_ids, offsets):
                place[self.antipode[cid]] = (off, parity < 0)
        ring = self.ring
        neg, plus, zero = ring.neg, ring.add, ring.zero
        # Both halves fold the same scaled rows of a wall pair, so they
        # are kept per (a, b, f, q); no other caller repeats a pair at a
        # degree.
        kept = self._scaled if parity is not None else {}
        rows = []
        for a, b, f in self._wall_pairs(max_ids, parity is not None):
            (oa, flip_a), (ob, flip_b) = place[a], place[b]
            scaled = kept.get((a, b, f, q))
            if scaled is None:
                # R_a / s_a = R_b / s_b is (s_b / g) R_a = (s_a / g) R_b.
                rows_a, scale_a = self.restriction_matrix(a, f, q)
                rows_b, scale_b = self.restriction_matrix(b, f, q)
                factor_a, factor_b = linalg.cofactors(scale_a, scale_b)
                if factor_a != 1:
                    rows_a = [{c: ring.scale(factor_a, v) for c, v in row.items()} for row in rows_a]
                if factor_b != 1:
                    rows_b = [{c: ring.scale(factor_b, v) for c, v in row.items()} for row in rows_b]
                scaled = kept[a, b, f, q] = tuple(zip(rows_a, rows_b))
            for row_a, row_b in scaled:
                row = {oa + c: neg(v) if flip_a else v for c, v in row_a.items()}
                for c, v in row_b.items():
                    if not flip_b:
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

    def _wall_pairs(self, max_ids: tuple, folded: bool) -> tuple:
        """The walls (a, b, f) of :meth:`wall_rows`, cone a and cone b
        meeting in the wall f, found once per sheaf for the given cones
        and fold.  Folded, they are the walls of every maximal cone, as
        :attr:`Fan.maximal_walls` finds them, of which the lesser of each
        antipodal pair is kept."""
        key = (max_ids, folded)
        cached = self._pairs.get(key)
        if cached is None:
            fan = self.fan
            cones = fan.maximal_ids if folded else max_ids
            if len({fan.cones[cid].dim for cid in cones}) > 1:
                raise SheafError("wall equations need equidimensional cones")
            walls = fan.maximal_walls if cones == fan.maximal_ids else fan.walls(cones)
            pairs = []
            for f, incident in sorted(walls.items()):
                if len(incident) == 2:
                    if not folded or f <= self.antipode[f]:
                        pairs.append((incident[0], incident[1], f))
                elif len(incident) > 2:
                    raise SheafError("wall shared by more than two cones")
            cached = self._pairs[key] = tuple(pairs)
        return cached

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
        maximal ideal, generated by the coordinates dual to the basis of
        :attr:`Fan.ambient_coordinates`, which are odd: its products come
        from the other half at q - 2.  Kept per degree."""
        cached = self._global.get(q)
        if cached is None:
            reps = self.representatives
            forms = self.coordinate_forms(reps)
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
        the covectors laid end to end.  The table depends only on the
        layout, each cone's variable count and generator degrees, and on
        q, so it is kept under those: the boundaries of cones whose
        facets have one layout share one table, and both halves'
        quotients at q + 2 and the Lefschetz maps at q read the one over
        the representatives."""
        key = (tuple((self.nvars(cid), self.modules[cid].gen_degrees) for cid in max_ids), q)
        cached = self._tables.get(key)
        if cached is not None:
            return cached
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
        self._tables[key] = table
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
    of its orbit under the fan's :attr:`Fan.symmetries` when every facet
    of both is simplicial (see the module docstring); any other cone is
    constructed.  The maps kept while building (restriction matrices,
    substitutions, wall pairs and product tables) are dropped on return:
    the global sections read only the maximal cones' restrictions to
    walls and the representatives' tables, which they build anew.
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
    symmetries = fan.symmetries
    if symmetries is not None:
        # Each ray's id by its coordinates, for the variables that g moves.
        ray_of = {v: r for r, v in fan.ambient_coordinates[1].items()}
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
            module = _transport_module(mes, partner, cid, mes.antipode)
        else:
            module = None
            if symmetries is not None:
                module = _transport_in_orbit(mes, cid, *symmetries.origin[cid], ray_of)
            if module is None:
                module = _construct_module(mes, cid)
        mes.modules[cid] = module
    for kept in (mes._keys, mes._restr, mes._pairs, mes._tables, mes._memos):
        kept.clear()
    return mes


def _transport_in_orbit(mes: MinimalExtensionSheaf, sid: int, rep: int, element: dict, ray_of: dict):
    """The module of a cone transported from the least cone ``rep`` of its
    orbit through the group element g (a ray permutation) with g(rep) =
    the cone, checked by :func:`_check_transported`; or None when the
    cone is its orbit's least or when some facet of the two cones is not
    simplicial.  ``ray_of`` maps each ray's coordinates in
    :attr:`Fan.ambient_coordinates` to its id."""
    fan = mes.fan
    facets = fan.facets_of(rep)
    if rep == sid or not all(map(fan.is_simplicial_cone, facets + fan.facets_of(sid))):
        return None
    # Each facet is simplicial, its basis its rays, so g permutes the
    # variables: facet variable i goes to the place of g(basis ray i).
    coordinates = fan.ambient_coordinates[1]
    faces, perms = {}, {}
    for tau in facets:
        faces[tau] = image = fan.cone_image(element, tau)
        place = {v: j for j, v in enumerate(fan.cone_coordinates(image)[0])}
        perms[tau] = tuple(place[coordinates[element[ray_of[v]]]] for v in fan.cone_coordinates(tau)[0])
    module = _transport_module(mes, rep, sid, faces, perms)
    _check_transported(mes, module, rep)
    return module


def _construct_module(mes: MinimalExtensionSheaf, sid: int) -> ConeModule:
    fan = mes.fan
    facets = fan.facets_of(sid)
    gen_degrees = []
    lifts = []  # (degree, integral boundary section vector)
    # The cone's variables on its boundary.
    forms = mes.coordinate_forms(facets, sid)
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
    # The image of a generator on a facet is its integral lift's block there.
    per_facet = [[] for _ in facets]
    for d, section in lifts:
        offsets, _ = mes.section_layout(facets, d)
        for f, start, images in zip(facets, offsets, per_facet):
            stop = start + mes.module_dim(f, d)
            images.append({c - start: v for c, v in section.items() if start <= c < stop})
    _check_generator_degrees(fan, sid, gen_degrees)
    return ConeModule(sid, tuple(gen_degrees), {f: tuple(v) for f, v in zip(facets, per_facet)})


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


def _transport_module(mes: MinimalExtensionSheaf, rep_id: int, new_id: int, faces: dict, perms=None) -> ConeModule:
    """The module of the cone g(rep) = ``new_id`` from the module of a
    built cone rep, for a linear automorphism g of the fan: the same
    generator degrees and, on each facet g(tau) (``faces``), whose module
    must be the image of tau's, the image on tau with its variables moved:
    variable i to place perms[tau][i] in g(tau)'s basis, or kept for the
    point reflection (``perms`` None), as a cone's basis is its
    antipode's negated."""
    rep = mes.modules[rep_id]
    images = {}
    for tau, vecs in rep.images.items():
        if perms is not None:
            # Exponent j of a moved monomial is that of the variable moved to j.
            nv, moved = mes.nvars(tau), []
            back = sorted(range(nv), key=perms[tau].__getitem__)
            for q, vec in zip(rep.gen_degrees, vecs):
                out = {}
                for _, d, off, count in mes.gen_blocks(tau, q)[0]:
                    monos, index = monomials(nv, (q - d) // 2), _monomial_index(nv, (q - d) // 2)
                    out.update((off + index[tuple(monos[c - off][i] for i in back)], v) for c, v in vec.items() if off <= c < off + count)
                moved.append(out)
            vecs = tuple(moved)
        images[faces[tau]] = vecs
    return ConeModule(new_id, rep.gen_degrees, images)


def _check_transported(mes: MinimalExtensionSheaf, module: ConeModule, origin: int) -> None:
    """A module transported through a group element: its generator
    degrees follow the cone's own g; its degree-0 generator is the
    constant 1, with image {0: 1} on every facet, which glues as each
    facet is simplicial; and the images on the facets of each other
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
    sigma goes to the block of -sigma unchanged, since the coordinates of
    -sigma are those of sigma composed with -I.  Column j is (column, n) for the integral
    coordinates of the image of the :func:`linalg.integral_vector` of
    basis vector j and its positive integer n at the basis vector's free
    column, the true column being column / n (exact; raises if the
    reflection fails to preserve the section space)."""
    if mes.antipode is None:
        raise FanError("the fan is not centrally symmetric")
    max_ids = mes.fan.maximal_ids
    offsets, _ = mes.section_layout(max_ids, q)
    offset_of = dict(zip(max_ids, offsets))
    target = {}
    for cid, off in zip(max_ids, offsets):
        partner = offset_of[mes.antipode[cid]]
        for c in range(mes.module_dim(cid, q)):
            target[off + c] = partner + c
    sections = mes.section_space(max_ids, q)
    columns = []
    for f in sections.free_cols:
        b = linalg.integral_vector(sections, f)
        image = {target[c]: v for c, v in b.items()}
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
    ring, rays, covectors = s._integral
    reps, anti = mes.representatives, mes.antipode
    if anti and any(tuple(map(ring.neg, covectors[c])) != covectors[anti[c]] for c in reps):
        raise FanError("the function is not even under the point reflection")
    # On a cone, s is U.R / n at each ray R of the basis of
    # Fan.ambient_coordinates, so sum_k v_k U.R_k / n at each basis vector
    # v of the cone.  A form may carry any nonzero constant, so it is made
    # primitive with a positive integer first, as a linear map of the fan
    # leaves it; over a rational sheaf it must then be rational.
    base, times, form = mes.fan.ambient_coordinates[0], ring.mul if mes.ring.d else ring.scale, []
    for cid in reps:
        piece = [ring.dot(covectors[cid], rays[r]) for r in base]
        form += [reduce(ring.add, map(times, v, piece), ring.zero) for v in mes.fan.cone_coordinates(cid)[0]]
    found = {k: v for k, v in enumerate(form) if v != ring.zero}
    if found:
        ring.normalize(found, min(found))
    if ring.d != mes.ring.d:
        if any(y for _, y in found.values()):
            raise FanError("the function's values are not rational multiples of one another")
        found = {k: x for k, (x, _) in found.items()}
    form = [found.get(k, mes.ring.zero) for k in range(len(form))]
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
        forms = mes.coordinate_forms(facets, cid)
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
