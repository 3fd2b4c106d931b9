"""Combinatorial intersection cohomology via minimal extension sheaves.

For a fan the sheaf is built cone by cone over the skeleton: sections
over a boundary fan are the equalizer of the facet restriction maps,
their quotient modulo the degree-two maximal ideal picks the generator
degrees of the next free module, and chosen homogeneous lifts define the
new restriction maps.  On centrally symmetric fans one cone per
antipodal pair is constructed and the other is transported through the
point reflection, so the reflection acts on everything in sight.

All objects are truncated at an even degree cap; linear forms sit in
degree 2, so degree q holds polynomials of ordinary degree q/2.
Every matrix is sparse rows or columns of :mod:`polyfan.linalg` (dicts
holding the nonzero entries only): sections, restriction maps, the one
quotient modulo the maximal ideal (``MinimalExtensionSheaf.quotient``,
for boundary fans and global sections), the reflection and the
Lefschetz maps, all reduced by the sparse elimination.  Section spaces
and eigenspaces are :class:`linalg.Kernel` objects.  :mod:`polyfan.linalg`
stores their rows as primitive integer rows over Q and primitive integer
pair rows over Q(sqrt d), and builds a basis vector only when it is
read.  The quotient's products of sections with linear forms are formed
by :func:`linalg.products_rref` on those integral vectors: each section
scaled by its own constant, and each form by one constant for all cones,
so it stays one conewise form; only the span of the products enters the
quotient.  The reflection and the Lefschetz maps need true coordinates
and are formed on scalars.  Every basis extraction and every product is
verified exactly by the membership test of :func:`linalg.kernel_coords`;
a failure raises instead of silently producing wrong dimensions.

This module computes the sheaf's invariants: Poincare series, refined
series and Lefschetz rank tables.  Its only predicates verify the
sheaf's own construction (the minimal-extension axioms and the
local-to-global dimension count); the identities a report checks are
decided in :mod:`polyfan.checks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add

from . import linalg
from .fans import ConewiseLinear, Fan, FanError
from .polynomials import IntPoly, RefinedSeries, coeff, trim

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _substituted(memo: dict, forms: tuple, alpha: tuple) -> tuple:
    """The monomial x^alpha with source variable i replaced by the linear
    form ``forms[i]``: (target exponent, coefficient) pairs, nonzero only.
    ``memo`` maps exponents to results and starts holding x^0 -> 1; each
    new exponent costs one product of a known result with a form."""
    out = memo.get(alpha)
    if out is None:
        i = next(i for i, e in enumerate(alpha) if e)
        lower = _substituted(memo, forms, alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :])
        acc: dict = {}
        for mono, c in lower:
            for j, fj in enumerate(forms[i]):
                if fj:
                    key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                    acc[key] = acc.get(key, _ZERO) + c * fj
        out = tuple((m, c) for m, c in acc.items() if c)
        memo[alpha] = out
    return out


# ---------------------------------------------------------------------------
# The sheaf


@dataclass
class ConeModule:
    """Free module data of one cone: generator degrees and, per proper
    face, the image of each generator as a coordinate vector there."""

    cone_id: int
    gen_degrees: tuple
    images: dict  # face_id -> tuple(per generator sparse coefficient vector)


class MinimalExtensionSheaf:
    """Minimal extension sheaf of a fan, truncated at ``cap``."""

    def __init__(self, fan: Fan, cap: int):
        self.fan = fan
        self.cap = cap
        self.modules: dict = {}
        self.antipode: dict | None = None
        self._layout: dict = {}
        self._restr: dict = {}
        self._sections: dict = {}
        self._span_forms: dict = {}
        self._substitutions: dict = {}
        self._quotients: dict = {}
        self._global: dict = {}
        self._reflection: dict = {}
        self._minus_basis: dict = {}

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

    def span_substitution_forms(self, src_id: int, tgt_id: int) -> tuple:
        """Per source variable, the linear form it restricts to in the
        target cone's coordinates (target must span a subspace of the
        source's span)."""
        key = (src_id, tgt_id)
        cached = self._span_forms.get(key)
        if cached is None:
            _, src_pivots = self.fan.cone_basis(src_id)
            tgt_basis, _ = self.fan.cone_basis(tgt_id)
            cached = tuple(
                tuple(row[j] for row in tgt_basis) for j in src_pivots
            )
            self._span_forms[key] = cached
        return cached

    def ambient_forms(self, cone_id: int) -> tuple:
        """Restrictions of the ambient coordinate functions to the cone's
        span, as covectors in its adapted coordinates."""
        basis, _ = self.fan.cone_basis(cone_id)
        return tuple(
            tuple(row[j] for row in basis) for j in range(self.fan.ambient_dim)
        )

    # -- restriction matrices ----------------------------------------------

    def restriction_matrix(self, src_id: int, tgt_id: int, q: int):
        """Degree-q restriction E_src^q -> E_tgt^q as sparse rows, one per
        target coordinate.  The column of source monomial x^a times
        generator g holds x^a, substituted into the target variables,
        times each nonzero block of the image of g."""
        key = (src_id, tgt_id, q)
        cached = self._restr.get(key)
        if cached is not None:
            return cached
        src_blocks, _ = self.gen_blocks(src_id, q)
        tgt_blocks, tgt_dim = self.gen_blocks(tgt_id, q)
        rows = [{} for _ in range(tgt_dim)]
        if tgt_dim:
            forms = self.span_substitution_forms(src_id, tgt_id)
            memo = self._substitutions.get(forms)
            if memo is None:
                memo = {(0,) * len(forms): (((0,) * len(forms[0]), _ONE),)}
                self._substitutions[forms] = memo
            tgt_nv = self.nvars(tgt_id)
            tgt_offset = {g: off for g, _, off, _ in tgt_blocks}
            images = self.modules[src_id].images[tgt_id]
            for gi, d_i, src_off, _ in src_blocks:
                # Nonzero image terms: (row offset of the target generator
                # block, its monomial index, exponent shift or None, coeff).
                pieces = []
                for gj, d_j, img_off, img_cnt in self.gen_blocks(tgt_id, d_i)[0]:
                    monos = monomials(tgt_nv, (d_i - d_j) // 2)
                    index = _monomial_index(tgt_nv, (q - d_j) // 2)
                    for c, v in images[gi].items():
                        if img_off <= c < img_off + img_cnt:
                            shift = monos[c - img_off]
                            pieces.append((tgt_offset[gj], index, shift if any(shift) else None, v))
                src_monos = monomials(self.nvars(src_id), (q - d_i) // 2)
                for col, alpha in enumerate(src_monos, src_off):
                    terms = _substituted(memo, forms, alpha)
                    for off, index, shift, v in pieces:
                        for mono, c in terms:
                            row = rows[off + index[tuple(map(add, mono, shift)) if shift else mono]]
                            row[col] = row.get(col, _ZERO) + (c if v == 1 else c * v)
        cached = tuple({c: v for c, v in row.items() if v} for row in rows)
        self._restr[key] = cached
        return cached

    # -- section spaces -----------------------------------------------------

    def section_layout(self, max_ids: tuple, q: int):
        offsets = []
        total = 0
        for cid in max_ids:
            offsets.append(total)
            total += self.module_dim(cid, q)
        return tuple(offsets), total

    def section_space(self, max_ids: tuple, q: int, wall_mode: bool = False) -> linalg.Kernel:
        """The :class:`linalg.Kernel` of the wall equations: the basis of
        compatible tuples over the given maximal cones, as sparse
        vectors, with the rows that verify membership in it.

        In wall mode only codimension-one contacts are imposed; that is
        complete for global sections of a complete fan and for boundary
        fans, where every wall separates exactly two maximal cones and
        the wall-crossing graph of any star is connected.  Otherwise all
        pairwise contacts are imposed.
        """
        key = (max_ids, q, wall_mode)
        cached = self._sections.get(key)
        if cached is not None:
            return cached
        fan = self.fan
        offsets, total = self.section_layout(max_ids, q)
        offset_of = dict(zip(max_ids, offsets))
        pairs = []
        if wall_mode:
            if len({fan.cones[cid].dim for cid in max_ids}) > 1:
                raise SheafError("wall mode needs equidimensional cones")
            for f, incident in sorted(fan.walls(max_ids).items()):
                if len(incident) == 2:
                    pairs.append((incident[0], incident[1], f))
                elif len(incident) > 2:
                    raise SheafError("wall shared by more than two cones")
        else:
            for i, a in enumerate(max_ids):
                for b in max_ids[i + 1 :]:
                    pairs.append((a, b, fan.common_face(a, b)))
        rows = []
        for a, b, f in pairs:
            oa, ob = offset_of[a], offset_of[b]
            for row_a, row_b in zip(
                self.restriction_matrix(a, f, q), self.restriction_matrix(b, f, q)
            ):
                row = {oa + c: v for c, v in row_a.items()}
                row.update((ob + c, -v) for c, v in row_b.items())
                rows.append(row)
        cached = self._sections[key] = linalg.sparse_kernel(rows, total)
        return cached

    # -- quotients modulo the maximal ideal -----------------------------------

    def quotient(self, max_ids: tuple, q: int, forms: tuple) -> dict:
        """Sections over the given maximal cones at degree q modulo the
        ideal generated by ``forms`` (per linear form, one covector per
        cone of ``max_ids`` in its coordinates): the
        :class:`linalg.Kernel` of :meth:`section_space` in wall mode as
        ``sections``, the products of the degree q - 2 sections with the
        forms reduced to ``m_rows`` (pivot basis index -> reduced row of
        basis coordinates), and ``complement`` (basis index -> quotient
        coordinate, ascending) for the basis vectors that represent the
        quotient.  Built once."""
        key = (max_ids, q, forms)
        cached = self._quotients.get(key)
        if cached is None:
            sections = self.section_space(max_ids, q, wall_mode=True)
            rows, pivots = (), ()
            if q >= 2:
                reduced = linalg.products_rref(
                    self.section_space(max_ids, q - 2, wall_mode=True),
                    sections,
                    self._product_table(max_ids, q - 2),
                    [tuple(f for covector in form for f in covector) for form in forms],
                )
                if reduced is None:
                    raise SheafError("a product is not a section (failed exact membership check)")
                rows, pivots = reduced
            m_rows = dict(zip(pivots, rows))
            complement = (i for i in range(len(sections.basis)) if i not in m_rows)
            cached = {
                "sections": sections,
                "m_rows": m_rows,
                "complement": {i: k for k, i in enumerate(complement)},
            }
            self._quotients[key] = cached
        return cached

    def global_data(self, q: int) -> dict:
        """The :meth:`quotient` of the global sections at degree q by the
        ambient maximal ideal, generated by the coordinate functions."""
        # Keyed by q alone: hashing the forms of the quotient key (about
        # 0.1 ms on cube(4)) on every reduction would cost more than it.
        cached = self._global.get(q)
        if cached is None:
            max_ids = self.fan.maximal_ids
            forms = tuple(
                tuple(self.ambient_forms(cid)[j] for cid in max_ids)
                for j in range(self.fan.ambient_dim)
            )
            cached = self._global[q] = self.quotient(max_ids, q, forms)
        return cached

    def _product_table(self, max_ids: tuple, q: int, support=None) -> dict:
        """The product of a degree-q section over the given maximal cones
        with one linear form per cone, as a table for
        :func:`linalg.products_rref`: section coordinate c (each one, or
        those in ``support``) -> (t, k) per variable x_j of its cone, for
        the coordinate t of x_j times its monomial and the index k of the
        form's coefficient of x_j among the covectors laid end to end."""
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
                    if support is None or c in support:
                        table[c] = tuple(
                            (base + target[alpha[:j] + (alpha[j] + 1,) + alpha[j + 1 :]], first + j)
                            for j in range(nv)
                        )
            first += nv
        return table

    def _multiply_conewise(self, max_ids: tuple, q: int, vec: dict, covectors: tuple) -> dict:
        """Product of a sparse degree-q section with one linear form per
        cone (a covector in its coordinates, in the order of
        ``max_ids``), over the nonzero entries of the section and of the
        forms."""
        form = [f for covector in covectors for f in covector]
        out: dict = {}
        for c, terms in self._product_table(max_ids, q, vec).items():
            v = vec[c]
            for t, k in terms:
                f = form[k]
                if f:
                    out[t] = out.get(t, _ZERO) + f * v
        return {t: v for t, v in out.items() if v}

    def reduce_mod_m(self, q: int, coords: dict) -> dict:
        """Reduce sparse global-section coordinates at degree q modulo m*E;
        returns the sparse quotient coordinates of the class."""
        data = self.global_data(q)
        m_rows = data["m_rows"]
        res = dict(coords)
        # The rows are fully reduced, so each pivot of the input is
        # cleared by its own row and no other pivot is touched.
        for p in [c for c in res if c in m_rows]:
            f = res[p]
            for c, v in m_rows[p].items():
                x = res.get(c, _ZERO) - f * v
                if x:
                    res[c] = x
                else:
                    del res[c]
        if any(c in m_rows for c in res):
            raise SheafError("reduction modulo m failed to clear pivots")
        complement = data["complement"]
        return {complement[i]: x for i, x in res.items()}

    def reflection(self, q: int):
        """Matrices of the point reflection at degree q, as sparse columns,
        on the section basis and descended to the quotient modulo m;
        built once per degree."""
        cached = self._reflection.get(q)
        if cached is None:
            c = _involution_on_basis(self, q)
            cbar = tuple(self.reduce_mod_m(q, c[i]) for i in self.global_data(q)["complement"])
            cached = self._reflection[q] = (c, cbar)
        return cached

    def minus_basis(self, q: int) -> linalg.Kernel:
        """The -1 eigenspace of the reflection on the quotient at degree
        q: the :class:`linalg.Kernel` of cbar + I.  Built once per degree
        for the refined series and the minus table."""
        cached = self._minus_basis.get(q)
        if cached is None:
            _, cbar = self.reflection(q)
            rows = _transpose(_shifted(cbar, 1), len(cbar))
            cached = self._minus_basis[q] = linalg.sparse_kernel(rows, len(cbar))
        return cached


def to_basis_coords(kernel: linalg.Kernel, vec: dict) -> dict:
    """Sparse coordinates of a sparse vector in a :class:`linalg.Kernel`
    basis, verified exactly by :func:`linalg.kernel_coords`."""
    coords = linalg.kernel_coords(kernel, vec)
    if coords is None:
        raise SheafError("vector is not a section (failed exact membership check)")
    return coords


def _rank(vectors) -> int:
    """Rank of sparse rows or of sparse columns."""
    return len(linalg.sparse_rref(vectors)[1])


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
    if fan.is_centrally_symmetric():
        mes.antipode = fan.antipode_map()
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


def _boundary_quotient(mes: MinimalExtensionSheaf, sid: int, q: int) -> dict:
    """The :meth:`MinimalExtensionSheaf.quotient` of the sections over the
    boundary fan of a cone by the ideal of its span's linear functions."""
    facets = mes.fan.facets_of(sid)
    forms = tuple(
        tuple(mes.span_substitution_forms(sid, f)[i] for f in facets)
        for i in range(mes.nvars(sid))
    )
    return mes.quotient(facets, q, forms)


def _construct_module(mes: MinimalExtensionSheaf, sid: int) -> ConeModule:
    fan = mes.fan
    facets = fan.facets_of(sid)
    gen_degrees = []
    lifts = []  # (degree, boundary section vector)
    for q in range(0, mes.cap + 1, 2):
        data = _boundary_quotient(mes, sid, q)
        if data["complement"] and q == mes.cap:
            raise DegreeCapError(
                f"cone {sid}: quotient of boundary sections is nonzero at the "
                f"degree cap {mes.cap}; raise the cap to certify generators"
            )
        for i in data["complement"]:
            gen_degrees.append(q)
            lifts.append((q, data["sections"].basis[i]))
    images: dict = {}
    proper = sorted(fan.faces[sid], key=lambda c: (-fan.cones[c].dim, c))
    for tau in proper:
        host = tau if tau in facets else next(f for f in facets if tau in fan.faces[f])
        per_gen = []
        for d, section in lifts:
            offsets, _total = mes.section_layout(facets, d)
            start = offsets[facets.index(host)]
            stop = start + mes.module_dim(host, d)
            block = {c - start: v for c, v in section.items() if start <= c < stop}
            if host != tau:
                block = linalg.sparse_mat_vec(mes.restriction_matrix(host, tau, d), block)
            per_gen.append(block)
        images[tau] = tuple(per_gen)
    return ConeModule(sid, tuple(gen_degrees), images)


def _transport_module(mes: MinimalExtensionSheaf, rep_id: int, new_id: int) -> ConeModule:
    """Module of -sigma from the module of sigma: same generator degrees,
    images twisted by the point reflection (sign (-1)^m on ordinary
    degree-m polynomial coefficients; spans and adapted coordinates of
    opposite cones coincide)."""
    rep = mes.modules[rep_id]
    anti = mes.antipode
    images: dict = {}
    for tau, vecs in rep.images.items():
        twisted = []
        for gi, vec in enumerate(vecs):
            d = rep.gen_degrees[gi]
            odd = [
                (off, off + cnt)
                for _, d_j, off, cnt in mes.gen_blocks(tau, d)[0]
                if ((d - d_j) // 2) % 2 == 1
            ]
            twisted.append(
                {
                    c: -v if any(lo <= c < hi for lo, hi in odd) else v
                    for c, v in vec.items()
                }
            )
        images[anti[tau]] = tuple(twisted)
    return ConeModule(new_id, rep.gen_degrees, images)


# ---------------------------------------------------------------------------
# Graded dimensions and Poincare series


def _graded_dims(mes: MinimalExtensionSheaf, size) -> IntPoly:
    if not mes.fan.is_complete():
        raise FanError("Poincare series require a complete fan")
    out = [0] * (mes.cap + 1)
    for q in range(0, mes.cap + 1, 2):
        out[q] = size(mes.global_data(q))
    return trim(out)


def sections_poincare(mes: MinimalExtensionSheaf) -> IntPoly:
    """Graded dimensions of the global sections (a polynomial in t,
    truncated at the cap); the module-level Poincare series."""
    return _graded_dims(mes, lambda data: len(data["sections"].basis))


def ih_poincare(mes: MinimalExtensionSheaf) -> IntPoly:
    """Graded dimensions of global sections modulo the maximal ideal: the
    Betti numbers of combinatorial intersection cohomology."""
    return _graded_dims(mes, lambda data: len(data["complement"]))


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
            boundary_basis = mes.section_space(facets, q, wall_mode=True).basis
            rows = [
                row
                for f in facets
                for row in mes.restriction_matrix(cid, f, q)
            ]
            rk = _rank(rows)
            dims[q] = dim_e - rk
            if rk != len(boundary_basis):
                raise SheafError(
                    f"restriction of cone {cid} to its boundary is not "
                    f"surjective in degree {q}"
                )
        out[cid] = trim(dims)
    return out


def check_local_global_dims(mes: MinimalExtensionSheaf, cone_ids) -> bool:
    """Dimension consequence of the characteristic-sheaf decomposition:
    for a subfan, dim of its sections equals the sum of local kernel
    dimensions over its cones, in every degree up to the cap."""
    fan = mes.fan
    ids = set(cone_ids)
    for cid in ids:
        if not fan.faces[cid] <= ids:
            raise FanError("subfan is not face-closed")
    covered = set()
    for cid in ids:
        covered |= fan.faces[cid]
    max_ids = tuple(sorted(cid for cid in ids if cid not in covered))
    kernels = kernel_dimensions(mes)
    for q in range(0, mes.cap + 1, 2):
        basis = mes.section_space(max_ids, q, wall_mode=False).basis
        total = sum(coeff(kernels[cid], q) for cid in ids)
        if len(basis) != total:
            return False
    return True


# ---------------------------------------------------------------------------
# The point-reflection action


def _phi_permutation(mes: MinimalExtensionSheaf, q: int):
    """The reflection acting on sparse global sections: a signed
    permutation sending the block of cone sigma to the block of -sigma
    with sign (-1)^m on ordinary polynomial degree m."""
    if mes.antipode is None:
        raise FanError("the fan is not centrally symmetric")
    max_ids = mes.fan.maximal_ids
    offsets, total = mes.section_layout(max_ids, q)
    offset_of = dict(zip(max_ids, offsets))
    target = [0] * total
    negate = [False] * total
    for cid in max_ids:
        partner = mes.antipode[cid]
        blocks, _ = mes.gen_blocks(cid, q)
        for gi, d, off, cnt in blocks:
            odd = ((q - d) // 2) % 2 == 1
            for c in range(cnt):
                target[offset_of[cid] + off + c] = offset_of[partner] + off + c
                negate[offset_of[cid] + off + c] = odd
    def apply(vec: dict) -> dict:
        return {target[c]: -v if negate[c] else v for c, v in vec.items()}
    return apply


def _involution_on_basis(mes: MinimalExtensionSheaf, q: int):
    """Matrix of the reflection on the section basis at degree q, as
    sparse columns: column j holds the coordinates of the image of basis
    vector j (exact; raises if the reflection fails to preserve the
    section space).  Callers go through
    :meth:`MinimalExtensionSheaf.reflection`."""
    sections = mes.global_data(q)["sections"]
    apply = _phi_permutation(mes, q)
    return tuple(to_basis_coords(sections, apply(b)) for b in sections.basis)


def _shifted(columns, s: int) -> tuple:
    """Sparse columns of a square matrix plus s times the identity."""
    out = tuple(dict(col) for col in columns)
    for j, col in enumerate(out):
        x = col.pop(j, _ZERO) + s
        if x:
            col[j] = x
    return out


def _transpose(columns, nrows: int) -> list:
    """Sparse rows of the matrix with the given sparse columns."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def _eigen_split(columns, minus: int):
    """Eigenspace dimensions (+1, -1) of an exact involution, given as
    sparse columns, whose -1 eigenspace has dimension ``minus``."""
    dim = len(columns)
    plus = dim - _rank(_shifted(columns, -1))
    if plus + minus != dim:
        raise SheafError("reflection action is not an involution on sections")
    return plus, minus


def refined_series(mes: MinimalExtensionSheaf):
    """Refined Poincare series (u_refined, v_refined) of the reflection:
    plus-eigenspace dims plus chi times minus-eigenspace dims, on the
    quotient and on the sections respectively."""
    cap = mes.cap
    v_plus = [0] * (cap + 1)
    v_minus = [0] * (cap + 1)
    u_plus = [0] * (cap + 1)
    u_minus = [0] * (cap + 1)
    for q in range(0, cap + 1, 2):
        c, cbar = mes.reflection(q)
        v_minus_dim = len(c) - _rank(_shifted(c, 1))
        v_plus[q], v_minus[q] = _eigen_split(c, v_minus_dim)
        u_plus[q], u_minus[q] = _eigen_split(cbar, len(mes.minus_basis(q).basis))
    return (
        RefinedSeries(trim(u_plus), trim(u_minus)),
        RefinedSeries(trim(v_plus), trim(v_minus)),
    )


# ---------------------------------------------------------------------------
# Hard Lefschetz maps and their ranks


def lefschetz_maps(mes: MinimalExtensionSheaf, s: ConewiseLinear) -> dict:
    """Matrices of multiplication by a strictly concave conewise linear
    function on the quotient, degree q -> q + 2 for even q < cap, as
    sparse columns: one per quotient coordinate of degree q."""
    if s.fan is not mes.fan:
        raise FanError("support function belongs to a different fan")
    max_ids = mes.fan.maximal_ids
    covectors = tuple(
        tuple(linalg.vec_dot(row, s.covectors[cid]) for row in mes.fan.cone_basis(cid)[0])
        for cid in max_ids
    )
    out = {}
    for q in range(0, mes.cap, 2):
        data = mes.global_data(q)
        target = mes.global_data(q + 2)
        out[q] = tuple(
            mes.reduce_mod_m(
                q + 2,
                to_basis_coords(
                    target["sections"],
                    mes._multiply_conewise(max_ids, q, data["sections"].basis[idx], covectors),
                ),
            )
            for idx in data["complement"]
        )
    return out


def lefschetz_rank_table(mes: MinimalExtensionSheaf, maps: dict):
    """Per degree of the :func:`lefschetz_maps` result: (dim source, dim
    target, rank)."""
    return {
        q: (
            len(mes.global_data(q)["complement"]),
            len(mes.global_data(q + 2)["complement"]),
            _rank(matrix),
        )
        for q, matrix in sorted(maps.items())
    }


def minus_lefschetz_table(mes: MinimalExtensionSheaf, maps: dict):
    """The :func:`lefschetz_maps` result restricted to the minus
    eigenspaces of the reflection; also certifies that multiplication
    preserves them."""
    table = {}
    for q, matrix in sorted(maps.items()):
        src_basis = mes.minus_basis(q).basis
        target = mes.minus_basis(q + 2)
        rows = _transpose(matrix, len(mes.global_data(q + 2)["complement"]))
        images = [linalg.sparse_mat_vec(rows, v) for v in src_basis]
        for img in images:
            try:
                to_basis_coords(target, img)
            except SheafError:
                raise SheafError(
                    "multiplication does not preserve the minus eigenspace"
                ) from None
        table[q] = (len(src_basis), len(target.basis), _rank(images))
    return table


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
        for q in range(0, mes.cap + 1, 2):
            data = _boundary_quotient(mes, cid, q)
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
                image_coords.append(to_basis_coords(data["sections"], vec))
            m_rows = data["m_rows"]
            if _rank([*m_rows.values(), *image_coords]) != len(m_rows) + len(gen_ids):
                return False
    return True
