"""Combinatorial intersection cohomology via minimal extension sheaves.

For a fan the sheaf is built cone by cone over the skeleton: sections
over a boundary fan are the equalizer of the facet restriction maps,
their quotient modulo the degree-two maximal ideal picks the generator
degrees of the next free module, and chosen homogeneous lifts define the
new restriction maps.  On centrally symmetric fans one cone per
antipodal pair is constructed and the other is transported through the
point reflection.

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
        self._sections: dict = {}
        self._substitutions: dict = {}
        self._memos: dict = {}
        self._quotients: dict = {}
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

    def span_substitution_forms(self, src_id: int, tgt_id: int) -> tuple:
        """(forms, D): per source variable, the linear form it restricts to
        in the target cone's coordinates (the target must span a subspace
        of the source's span) is forms[i] / D, for integral sparse forms
        over the target variables and the least positive integer D.  The
        source variable of pivot p is x_p / d_p, and on the target x_p is
        sum_t y_t R_t[p]."""
        src_rows, src_pivots = self.fan.cone_basis(src_id)
        tgt_rows, _ = self.fan.cone_basis(tgt_id)
        d, zero = self.ring.d, self.ring.zero
        pieces = []
        for src, p in zip(src_rows, src_pivots):
            form = {t: row[p] for t, row in enumerate(tgt_rows) if row[p] != zero}
            pieces.append((form, src[p] if d is None else src[p][0]))
        return linalg.common_scale(pieces, d)

    def ambient_forms(self, cone_id: int) -> tuple:
        """Restrictions of the ambient coordinate functions to the span of
        a nonzero cone, as integral covectors in its coordinates: the
        columns of its rows."""
        return tuple(zip(*self.fan.cone_basis(cone_id)[0]))

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

    def _substitution(self, src_id: int, tgt_id: int) -> tuple:
        """The :meth:`span_substitution_forms`, each form as its nonzero
        (target variable, coefficient) pairs, their denominator D, and
        the memo of :func:`_substituted`, kept per target cone and source
        pivots and pivot values, which fix the forms."""
        rows, pivots = self.fan.cone_basis(src_id)
        key = (tgt_id, pivots, tuple(row[p] for row, p in zip(rows, pivots)))
        cached = self._substitutions.get(key)
        if cached is None:
            sparse, den = self.span_substitution_forms(src_id, tgt_id)
            forms = tuple(tuple(form.items()) for form in sparse)
            width = self.nvars(tgt_id)
            # Equal forms share one memo: many pairs of cones restrict by
            # the same coordinate forms.
            memo = self._memos.get(forms)
            if memo is None:
                memo = self._memos[forms] = {(0,) * len(forms): (((0,) * width, self.ring.one),)}
            cached = self._substitutions[key] = (forms, den, memo)
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
        """The :class:`linalg.Kernel` of the wall equations: the basis of
        compatible tuples over the given maximal cones, as sparse
        vectors, with the rows that verify membership in it.

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
        key = (max_ids, q, parity)
        cached = self._sections.get(key)
        if cached is not None:
            return cached
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
        cached = self._sections[key] = linalg.integral_kernel(rows, total, ring.d)
        return cached

    # -- quotients modulo the maximal ideal -----------------------------------

    def quotient(self, max_ids: tuple, q: int, forms, parity: int | None = None) -> dict:
        """Sections over the given maximal cones at degree q modulo the
        ideal generated by ``forms`` (per linear form, the integral
        covectors of the cones of ``max_ids`` in their coordinates, laid
        end to end): the :class:`linalg.Kernel` of :meth:`section_space`
        as ``sections``, the products of the degree q - 2 sections with
        the forms as ``m_rows``, the stored rows of their elimination in
        basis coordinates (pivot basis index -> integral row with a
        positive integer there and 0 at the other pivots), and
        ``complement`` (basis index -> quotient coordinate, ascending)
        for the basis vectors that represent the quotient.  With a
        ``parity`` the sections are that half and the products are taken
        from the other half, for odd forms.  Built once per (max_ids, q,
        parity): the maximal cones fix the forms."""
        key = (max_ids, q, parity)
        cached = self._quotients.get(key)
        if cached is None:
            sections = self.section_space(max_ids, q, parity)
            m_rows = {}
            if q >= 2:
                m_rows = linalg.products_rref(
                    self.section_space(max_ids, q - 2, None if parity is None else -parity),
                    sections,
                    self._product_table(max_ids, q - 2),
                    forms,
                )
                if m_rows is None:
                    raise SheafError("a product is not a section (failed exact membership check)")
            complement = (i for i in range(len(sections.basis)) if i not in m_rows)
            cached = {
                "sections": sections,
                "m_rows": m_rows,
                "complement": {i: k for k, i in enumerate(complement)},
            }
            self._quotients[key] = cached
        return cached

    def global_data(self, q: int) -> dict:
        """Per parity, the :meth:`quotient` of that half of the global
        sections at degree q, over the representatives, by the ambient
        maximal ideal, whose coordinate functions are odd."""
        cached = self._global.get(q)
        if cached is None:
            reps = self.representatives
            by_cone = [self.ambient_forms(c) for c in reps]
            forms = [[x for piece in pieces for x in piece] for pieces in zip(*by_cone)]
            cached = self._global[q] = {p: self.quotient(reps, q, forms, p) for p in self.parities}
        return cached

    def _product_table(self, max_ids: tuple, q: int) -> dict:
        """The product of a degree-q section over the given maximal cones
        with one linear form per cone, as a table for
        :func:`linalg.products_rref`: section coordinate c -> (t, k) per
        variable x_j of its cone, for the coordinate t of x_j times its
        monomial and the index k of the form's coefficient of x_j among
        the covectors laid end to end.  The tables over the
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
            raise SheafError("reduction modulo m failed to clear pivots")
        complement = data["complement"]
        return {complement[i]: x for i, x in res.items()}


def _rank(mes: MinimalExtensionSheaf, vectors) -> int:
    """Rank of integral sparse rows or columns of the sheaf."""
    return linalg.integral_rank(vectors, mes.ring.d)


# ---------------------------------------------------------------------------
# Construction


def build_mes(fan: Fan, cap: int | None = None) -> MinimalExtensionSheaf:
    """Build the minimal extension sheaf of a fan up to an even degree cap
    (default 2*(dim+1)).

    Cones are processed by increasing dimension with deterministic lift
    choices; on a centrally symmetric fan one cone per antipodal pair is
    built and the partner transported through the point reflection.
    """
    if cap is None:
        cap = 2 * (fan.dim + 1)
    if cap % 2 != 0:
        raise DegreeCapError("degree cap must be even")
    if cap < 2 * fan.dim:
        raise DegreeCapError(
            f"degree cap {cap} cannot certify a fan of dimension {fan.dim}"
        )
    mes = MinimalExtensionSheaf(fan, cap)
    order = sorted(
        fan.cone_ids(), key=lambda cid: (fan.cones[cid].dim, cid)
    )
    for cid in order:
        if cid in mes.modules:
            continue
        if fan.cones[cid].dim == 0:
            mes.modules[cid] = ConeModule(cid, (0,), {})
            continue
        partner = mes.antipode.get(cid) if mes.antipode else None
        if partner is not None and partner != cid and partner in mes.modules:
            mes.modules[cid] = _transport_module(mes, partner, cid)
            continue
        mes.modules[cid] = _construct_module(mes, cid)
    return mes


def _boundary_forms(mes: MinimalExtensionSheaf, sid: int) -> list:
    """The linear functions of a cone's span on its boundary fan, for the
    :meth:`MinimalExtensionSheaf.quotient` of the sections there: per
    variable, at pivot p, the integral covectors of the facets laid end
    to end, for d_p times the variable, x_p, which is sum_t y_t R_t[p] on
    a facet."""
    fan = mes.fan
    facet_rows = [row for f in fan.facets_of(sid) for row in fan.cone_basis(f)[0]]
    return [[row[p] for row in facet_rows] for p in fan.cone_basis(sid)[1]]


def _construct_module(mes: MinimalExtensionSheaf, sid: int) -> ConeModule:
    fan = mes.fan
    facets = fan.facets_of(sid)
    gen_degrees = []
    lifts = []  # (degree, integral boundary section vector)
    forms = _boundary_forms(mes, sid)
    for q in range(0, mes.cap + 1, 2):
        data = mes.quotient(facets, q, forms)
        if data["complement"] and q == mes.cap:
            raise DegreeCapError(
                f"cone {sid}: quotient of boundary sections is nonzero at the "
                f"degree cap {mes.cap}; raise the cap to certify generators"
            )
        sections = data["sections"]
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


def _check_generator_degrees(fan: Fan, sid: int, gen_degrees) -> None:
    """The generators of E_sigma counted per degree 2k are the
    coefficients of g_sigma (Barthel-Brasselet-Fieseler-Kaup), so the
    sheaf must agree with the g/h recursion on every constructed cone."""
    expected = hvector.g_polynomial(fan, sid)
    found = trim([gen_degrees.count(q) for q in range(0, max(gen_degrees) + 1, 2)])
    if found != expected:
        k = next(k for k in range(len(found) + len(expected))
                 if coeff(found, k) != coeff(expected, k))
        raise SheafError(
            f"cone {sid}: {coeff(found, k)} generators in degree {2 * k}, but g "
            f"has coefficient {coeff(expected, k)} at x^{k} (g = {expected})"
        )


def _transport_module(mes: MinimalExtensionSheaf, rep_id: int, new_id: int) -> ConeModule:
    """Module of -sigma from the module of sigma: same generator degrees,
    images twisted by the point reflection (sign (-1)^m on ordinary
    degree-m polynomial coefficients; spans and adapted coordinates of
    opposite cones coincide)."""
    rep = mes.modules[rep_id]
    anti = mes.antipode
    neg = mes.ring.neg
    images: dict = {}
    for tau, vecs in rep.images.items():
        twisted = []
        for d, vec in zip(rep.gen_degrees, vecs):
            odd = mes.odd_coordinates(tau, d)
            twisted.append({c: neg(v) if odd[c] else v for c, v in vec.items()})
        images[anti[tau]] = tuple(twisted)
    return ConeModule(new_id, rep.gen_degrees, images)


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
            v[q] += len(halves[p]["sections"].basis)
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
            boundary_basis = mes.section_space(facets, q).basis
            # Each matrix is rows / scale; a scale changes no rank.
            rk = _rank(mes, (row for f in facets for row in mes.restriction_matrix(cid, f, q)[0]))
            dims[q] = dim_e - rk
            if rk != len(boundary_basis):
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
    # The integral covectors (U, n) of s, for U / n with n least: s is
    # even iff those of sigma and -sigma are (U, n) and (-U, n).
    ring, _, covectors = s._integral
    reps, anti = mes.representatives, mes.antipode
    if anti and any(
        ([*map(ring.neg, covectors[c][0])], covectors[c][1]) != covectors[anti[c]] for c in reps
    ):
        raise FanError("the function is not even under the point reflection")
    # On a cone, U / n is sum_p y_p (U.R_p) / n: one scale for all cones.
    pieces = []
    for cid in reps:
        u, n = covectors[cid]
        pieces.append((dict(enumerate(ring.dot(u, row) for row in mes.fan.cone_basis(cid)[0])), n))
    form = [x for piece in linalg.common_scale(pieces, ring.d)[0] for x in piece.values()]
    out = {}
    for q in range(0, mes.cap, 2):
        table, target = mes._product_table(reps, q), mes.global_data(q + 2)
        out[q] = {}
        for p, data in mes.global_data(q).items():
            stored = linalg.products_rref(
                data["sections"], target[p]["sections"], table, [form], data["complement"]
            )
            if stored is None:
                raise SheafError("a Lefschetz product is not a section of its half")
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
        forms = _boundary_forms(mes, cid)
        for q in range(0, mes.cap + 1, 2):
            data = mes.quotient(facets, q, forms)
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
