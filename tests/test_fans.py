import tracemalloc
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyfan import fans, linalg
from polyfan.corpus import cs_corpus, nonrational_cs_polytope, nonsimplicial_cs_3polytope, sheaf_corpus
from polyfan.fans import (
    Cone,
    ConewiseLinear,
    Fan,
    FanError,
    _check_strictly_concave,
    face_fan,
    support_function,
)
from polyfan.polytopes import Polytope, PolytopeError, cross_polytope, cube, product, random_cs, simplex
from polyfan.scalars import Quadratic

from oracles import (
    bitset,
    boundary_fan,
    cone_fan,
    conewise_pieces_agree,
    down_sets_by_scan,
    faces_below,
    from_simplicial_cones,
    inverse,
    linear_symmetries,
    rref,
    scalar,
    subfan,
    value_on_ray,
    translated,
)


def F(x):
    return Fraction(x)


def cone_of_dim(fan, d):
    ids = fan.cones_of_dim(d)
    assert ids
    return ids[0]


class TestFaceFan:
    def test_cross2(self):
        fan = face_fan(cross_polytope(2))
        assert fan.is_complete()
        assert len(fan.cones_of_dim(1)) == 4
        assert len(fan.cones_of_dim(2)) == 4

    def test_cube3_counts(self):
        fan = face_fan(cube(3))
        assert len(fan.cones_of_dim(1)) == 8
        assert len(fan.cones_of_dim(2)) == 12
        assert len(fan.cones_of_dim(3)) == 6

    def test_cone_count_is_proper_faces_plus_one(self):
        for p in (cube(3), cross_polytope(3), simplex(2)):
            fan = face_fan(p)
            proper = sum(0 <= k < p.ambient_dim for k in p.face_lattice().dims)
            assert len(fan.cones) == proper + 1

    def test_nonrational_fan_complete(self):
        fan = face_fan(nonrational_cs_polytope())
        assert fan.is_complete()

    def test_needs_interior_origin(self):
        with pytest.raises(FanError, match="interior"):
            face_fan(translated(cube(2), (F(3), F(3))))

    def test_down_sets_match_the_all_pairs_scan(self, lattice_polytopes):
        for name, p in lattice_polytopes:
            expected = {cid: bitset(fs) for cid, fs in down_sets_by_scan(p).items()}
            assert face_fan(p).down == expected, name

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 10**6))
    def test_down_sets_match_the_scan_on_random_cs(self, n, extra, seed):
        try:
            p = random_cs(n, n + extra, seed)
        except PolytopeError:
            assume(False)
        expected = {cid: bitset(fs) for cid, fs in down_sets_by_scan(p).items()}
        assert face_fan(p).down == expected

    def test_unknown_faces_are_rejected(self):
        fan = face_fan(cube(2))
        sigma = cone_of_dim(fan, 2)
        down = dict(fan.down)
        down[sigma] |= 1 << 40
        with pytest.raises(FanError, match=f"^cone {sigma} lists unknown face 40$"):
            Fan(2, fan.rays, fan.cones, down)

    def test_down_sets_are_the_lattice_bitsets(self):
        # The down-sets of cube(8)'s 6,561 cones hold 384,064 entries: as
        # frozensets of ids the face fan peaked at 28 MB under tracemalloc,
        # sharing the lattice's int bitsets it peaks under 3 MB.
        p = cube(8)
        lattice = p.face_lattice()
        tracemalloc.start()
        try:
            fan = face_fan(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(fan.down[cid] is lattice.down[cid] for cid in fan.cones)
        assert lattice.down[-1] == (1 << len(fan.cones)) - 1  # P is above every cone
        assert peak < 6_000_000


    def test_cones_are_the_lattice_vertex_masks(self, lattice_polytopes):
        """Each cone's ray bitset is its face's vertex mask, its ray ids
        are the mask's bits ascending, and ``cones_of_dim`` lists the
        cones of each dimension ascending, as a scan of every cone does."""
        for name, p in lattice_polytopes:
            lattice = p.face_lattice()
            fan = face_fan(p)
            for cid, cone in fan.cones.items():
                assert cone.mask is lattice.masks[cid], name
                assert fan.ray_ids[cid] == tuple(
                    i for i in range(len(p.vertices)) if cone.mask >> i & 1
                ), name
            for k in range(-1, p.ambient_dim + 2):
                scan = tuple(sorted(c for c, cone in fan.cones.items() if cone.dim == k))
                assert tuple(fan.cones_of_dim(k)) == scan, name

    def test_a_zero_cone_with_a_ray_is_rejected(self):
        fan = face_fan(cube(2))
        cones = dict(fan.cones)
        cones[fan.zero_id] = Cone(fan.zero_id, 1, 0)
        with pytest.raises(FanError, match="exactly one zero cone"):
            Fan(2, fan.rays, cones, fan.down)


class TestCompleteness:
    def test_single_cone_fan_incomplete(self):
        fan = face_fan(cube(2))
        sigma = cone_of_dim(fan, 2)
        assert not cone_fan(fan, sigma).is_complete()

    def test_removing_a_maximal_cone_breaks_completeness(self):
        fan = face_fan(cube(2))
        keep = set(fan.cone_ids()) - {fan.maximal_ids[0]}
        sub = subfan(fan, keep)
        assert not sub.is_complete()


class TestSubfans:
    def test_boundary_of_two_dim_cone(self):
        fan = face_fan(cube(2))
        sigma = cone_of_dim(fan, 2)
        boundary = boundary_fan(fan, sigma)
        assert len(boundary.cones_of_dim(1)) == 2
        assert len(boundary.cones_of_dim(0)) == 1

    def test_cone_fan_of_ray(self):
        fan = face_fan(cube(2))
        ray = cone_of_dim(fan, 1)
        sub = cone_fan(fan, ray)
        assert sorted(c.dim for c in sub.cones.values()) == [0, 1]

    def test_boundary_of_cube_cone(self):
        fan = face_fan(cube(3))
        sigma = cone_of_dim(fan, 3)  # cone over a square facet
        boundary = boundary_fan(fan, sigma)
        assert len(boundary.cones_of_dim(1)) == 4
        assert len(boundary.cones_of_dim(2)) == 4

    def test_ids_reused(self):
        fan = face_fan(cube(3))
        sigma = cone_of_dim(fan, 3)
        boundary = boundary_fan(fan, sigma)
        assert set(boundary.cones) == faces_below(fan, sigma)


def test_cone_basis_equals_the_dense_oracle(quadratic_image):
    """Every cone basis of the sheaf corpus and of the Q(sqrt 2) and
    Q(sqrt 3) shear images of its rational members is dense primitive
    integral rows in the fan's ring, each with a positive integer at its
    pivot and 0 at the other pivots, which divided by those integers are
    the reduced row echelon form of the cone's rays by the dense
    Gauss-Jordan oracle, entry by entry as values."""
    polytopes = [(name, p) for name, p in sheaf_corpus()]
    for d in (2, 3):
        polytopes += [
            (f"sqrt{d}-{name}", quadratic_image(p, d))
            for name, p in sheaf_corpus()
            if name != "nonrational-bipyramid"
        ]
    for name, p in polytopes:
        fan = face_fan(p)
        d = fan.radicand
        zero = 0 if d is None else (0, 0)
        for cid in fan.cone_ids():
            rows, pivots = fan.cone_basis(cid)
            reduced = []
            for row, p in zip(rows, pivots):
                parts = row if d is None else [z for xy in row for z in xy]
                assert all(type(x) is (int if d is None else tuple) for x in row)
                assert all(type(z) is int for z in parts) and gcd(*parts) == 1
                n = row[p] if d is None else row[p][0]
                assert n > 0 and row[p] == (n if d is None else (n, 0))
                assert all(row[o] == zero for o in pivots if o != p)
                reduced.append(tuple(scalar(x, n, d) for x in row))
            assert (tuple(reduced), pivots) == rref([fan.rays[r] for r in fan.ray_ids[cid]]), (name, cid)


class TestQuotientFan:
    def test_quotient_of_two_dim_cone(self):
        fan = face_fan(cube(2))
        sigma = cone_of_dim(fan, 2)
        q = fan.quotient_fan(sigma)
        assert q.ambient_dim == 1
        assert q.is_complete()
        assert len(q.cones_of_dim(1)) == 2

    def test_quotient_of_cube_cone_is_complete_2fan(self):
        fan = face_fan(cube(3))
        sigma = cone_of_dim(fan, 3)
        q = fan.quotient_fan(sigma)
        assert q.ambient_dim == 2
        assert q.is_complete()
        assert len(q.cones_of_dim(1)) == 4
        assert len(q.cones_of_dim(2)) == 4

    def test_quotient_of_ray_is_trivial(self):
        fan = face_fan(cube(2))
        ray = cone_of_dim(fan, 1)
        q = fan.quotient_fan(ray)
        assert q.ambient_dim == 0
        assert q.is_complete()
        assert len(q.cones) == 1

    def test_quotient_poset_matches_proper_faces(self):
        fan = face_fan(cube(3))
        sigma = cone_of_dim(fan, 3)
        q = fan.quotient_fan(sigma)
        assert set(q.cones) == faces_below(fan, sigma)
        for cid in q.cones:
            assert q.cones[cid].dim == fan.cones[cid].dim

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize(
        "name, p",
        [("cube3", cube(3)), ("cross3", cross_polytope(3)), ("cube2-x-cross2", product(cube(2), cross_polytope(2)))],
    )
    def test_quotients_of_quadratic_images(self, name, p, d, quadratic_image):
        """The quotient fan of every maximal cone of a Q(sqrt d) shear
        image is complete, keeps the cone's proper faces with their ids,
        dimensions and down-sets, and has its rays in Q(sqrt d), some of
        them irrational."""
        fan = face_fan(quadratic_image(p, d))
        assert fan.radicand == d
        radicands = set()
        for sigma in fan.maximal_ids:
            q = fan.quotient_fan(sigma)
            assert q.ambient_dim == fan.cones[sigma].dim - 1
            assert q.is_complete()
            assert set(q.cones) == faces_below(fan, sigma)
            assert all(q.cones[c] == fan.cones[c] and q.down[c] == fan.down[c] for c in q.cones)
            assert set(q.rays) == set(fan.ray_ids[sigma])
            radicands.add(q.radicand)
            for ray in q.rays.values():
                assert all(type(x) is Fraction or (type(x) is Quadratic and x.d == d and x.b) for x in ray)
        assert d in radicands and radicands <= {None, d}


class TestSymmetry:
    def test_cube_fan_symmetric(self):
        fan = face_fan(cube(3))
        anti = fan.antipode_map()
        assert all(anti[anti[c]] == c for c in anti)
        assert sum(1 for c in anti if anti[c] == c) == 1  # only the zero cone

    def test_simplex_fan_not_symmetric(self):
        assert not face_fan(simplex(3)).is_centrally_symmetric()
        with pytest.raises(FanError):
            face_fan(simplex(2)).antipode_map()

    def test_no_self_antipodal_cones_on_corpus(self):
        for p in (cube(2), cube(3), cross_polytope(3), nonrational_cs_polytope()):
            fan = face_fan(p)
            anti = fan.antipode_map()
            for cid, img in anti.items():
                if cid != fan.zero_id:
                    assert img != cid


def perturbed_cube() -> Polytope:
    """cube(3) with the vertex pair +-(1, 1, 1) moved to +-(6/5, 11/10,
    1): centrally symmetric with only the antipode as a linear symmetry.
    A centrally symmetric combinatorial cube is three slabs and so a
    parallelepiped, a linear image of cube(3); this one is not a cube."""
    pairs = [(F(6) / 5, F(11) / 10, F(1)), (F(1), F(1), F(-1)), (F(1), F(-1), F(1)), (F(-1), F(1), F(1))]
    return Polytope(pairs + [tuple(-x for x in v) for v in pairs])


def _random_draws(n: int, pairs: int, seeds) -> list:
    out = []
    for seed in seeds:
        try:
            out.append(random_cs(n, pairs, seed))
        except PolytopeError:
            pass
    return out


class TestLinearAutomorphisms:
    """Fan.symmetries against the brute-force oracle, which tries every
    choice of images of a basis of vertices."""

    @pytest.mark.parametrize(
        "name, order",
        [("cube-3", 48), ("cross-4", 384), ("sqrt2-cube-3", 48), ("sqrt2-cross-3", 48), ("simplex-3", 24), ("prism", 48)],
    )
    def test_group_order_is_the_product_of_the_orbit_sizes(self, name, order, quadratic_image):
        p = {
            "cube-3": cube(3),
            "cross-4": cross_polytope(4),
            "sqrt2-cube-3": quadratic_image(cube(3), 2),
            "sqrt2-cross-3": quadratic_image(cross_polytope(3), 2),
            "simplex-3": simplex(3),
            "prism": nonsimplicial_cs_3polytope(),
        }[name]
        group = face_fan(p).symmetries
        assert prod(group.orbit_sizes) == order
        if p.ambient_dim == 3:
            assert len(linear_symmetries(p)) == order

    @pytest.mark.parametrize("n, pairs", [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5)])
    def test_random_draws_match_the_oracle(self, n, pairs):
        """The order found equals the oracle's; a draw whose only linear
        symmetries are the identity and the antipode gets None."""
        draws = _random_draws(n, pairs, range(8))
        assert any(len(linear_symmetries(p)) == 2 for p in draws)
        for p in draws:
            group, order = face_fan(p).symmetries, len(linear_symmetries(p))
            assert (group is None) == (order == 2)
            assert group is None or prod(group.orbit_sizes) == order

    def test_perturbed_cube_has_only_the_antipode(self):
        p = perturbed_cube()
        assert len(linear_symmetries(p)) == 2
        assert face_fan(p).symmetries is None

    def test_over_budget_search_falls_back(self, monkeypatch):
        monkeypatch.setattr(fans, "SYMMETRY_NODES", 1)
        assert face_fan(cube(3)).symmetries is None

    def test_detection_runs_on_the_integral_rows(self, quadratic_image, count_scalars, monkeypatch):
        fan = face_fan(quadratic_image(cube(3), 2))
        fan.antipode_map()
        built = count_scalars()
        group = fan.symmetries
        monkeypatch.undo()
        assert group is not None and not built, built

    @pytest.mark.parametrize("name", ["cube-3", "cross-3", "sqrt3-prism", "simplex-3"])
    def test_each_cone_is_the_image_of_its_orbit_representative(self, name, quadratic_image):
        """origin[c] = (r, g): g maps the rays of r onto those of c, r is
        the least cone of the orbit, and the matrix of g sends each ray
        row R to n times the row of its image."""
        p = {
            "cube-3": cube(3),
            "cross-3": cross_polytope(3),
            "sqrt3-prism": quadratic_image(nonsimplicial_cs_3polytope(), 3),
            "simplex-3": simplex(3),
        }[name]
        fan = face_fan(p)
        group = fan.symmetries
        ring = linalg.ring(fan.radicand)
        rows = fan._ray_rows
        reps = set()
        for cid, (rep, g) in group.origin.items():
            reps.add(rep)
            assert rep <= cid and fan.cones[rep].dim == fan.cones[cid].dim
            assert fan.cone_image(g, rep) == cid
            assert {g[r] for r in fan.ray_ids[rep]} == set(fan.ray_ids[cid])
            matrix, n = fan.linear_map(g)
            for r, image in g.items():
                assert tuple(ring.dot(row, rows[r]) for row in matrix) == tuple(ring.scale(n, x) for x in rows[image])
        # One orbit per dimension: the prism over a square is a
        # parallelepiped, a linear image of cube(3).
        assert len(reps) == fan.dim + 1

    def test_generators_map_cones_to_cones(self):
        fan = face_fan(cube(4))
        masks = {c.mask for c in fan.cones.values()}
        for g in fan.symmetries.generators:
            assert {sum(1 << g[r] for r in rays) for rays in fan.ray_ids.values()} == masks


class TestSimpliciality:
    def test_triangle_cone(self):
        fan = face_fan(cross_polytope(3))
        assert all(fan.is_simplicial_cone(c) for c in fan.cone_ids())

    def test_square_cone(self):
        fan = face_fan(cube(3))
        sigma = cone_of_dim(fan, 3)
        assert not fan.is_simplicial_cone(sigma)

    def test_zero_cone(self):
        fan = face_fan(cube(2))
        assert fan.is_simplicial_cone(fan.zero_id)


class TestSupportFunction:
    def test_cube_values_at_vertices(self):
        p = cube(3)
        fan = face_fan(p)
        s = support_function(p, fan)
        for rid in fan.rays:
            assert value_on_ray(s, rid) == F(-1)

    def test_cross2_edge_functional(self):
        p = cross_polytope(2)
        fan = face_fan(p)
        s = support_function(p, fan)
        # The cone over conv(e1, e2) carries the functional (-1, -1).
        for cid in fan.maximal_ids:
            rays = [fan.rays[r] for r in fan.ray_ids[cid]]
            if (F(1), F(0)) in rays and (F(0), F(1)) in rays:
                assert s.covectors[cid] == (F(-1), F(-1))

    def test_scaling_halves_support(self):
        p = cube(3)
        fan = face_fan(p)
        s = support_function(p, fan)
        doubled = Polytope(tuple(tuple(2 * x for x in v) for v in p.vertices))
        s2 = support_function(doubled, face_fan(doubled))
        for cid, u in s.covectors.items():
            assert s2.covectors[cid] == tuple(x / 2 for x in u)

    def test_phi_invariance_on_cs(self):
        for p in (cube(3), cross_polytope(2), nonrational_cs_polytope()):
            fan = face_fan(p)
            s = support_function(p, fan)
            anti = fan.antipode_map()
            for cid in fan.maximal_ids:
                assert s.covectors[anti[cid]] == linalg.vec_neg(s.covectors[cid])
            # As a function: equal values on antipodal ray representatives.
            ray_anti = {
                r: next(
                    r2 for r2 in fan.rays
                    if fan.rays[r2] == linalg.vec_neg(fan.rays[r])
                )
                for r in fan.rays
            }
            for r in fan.rays:
                assert value_on_ray(s, r) == value_on_ray(s, ray_anti[r])

    def test_disagreeing_pieces_rejected(self):
        fan = face_fan(cross_polytope(2))
        covs = {cid: (F(1), F(1)) for cid in fan.maximal_ids}
        covs[fan.maximal_ids[0]] = (F(2), F(3))
        with pytest.raises(FanError):
            ConewiseLinear(fan, covs)

    @pytest.mark.parametrize("name, p", cs_corpus(), ids=[name for name, _ in cs_corpus()])
    def test_agreement_check_matches_the_all_pairs_oracle(self, name, p):
        """The per-ray check accepts exactly what the all-pairs scan of
        common faces accepts: the support function, and not the support
        function with one piece moved off the value on one of its rays
        (a ray of a complete fan lies in at least two maximal cones when
        the dimension is at least 2)."""
        fan = face_fan(p)
        covectors = support_function(p, fan).covectors
        assert conewise_pieces_agree(fan, covectors)
        cid = fan.maximal_ids[0]
        ray = fan.rays[fan.ray_ids[cid][0]]
        moved = {**covectors, cid: tuple(u + x for u, x in zip(covectors[cid], ray))}
        agree = conewise_pieces_agree(fan, moved)
        assert agree == (p.ambient_dim == 1)
        if agree:
            ConewiseLinear(fan, moved)
        else:
            with pytest.raises(FanError, match="conewise values disagree on a shared face"):
                ConewiseLinear(fan, moved)


class TestQuadraticCovectorsOnARationalFan:
    """A rational fan with Q(sqrt 2) covectors: the rays are promoted to
    integer pairs, and the agreement and strict concavity checks run on
    the pairs."""

    R2 = Quadratic(0, 1, 2)

    def scaled(self, factor):
        """The face fan of the square and its support function's
        covectors times ``factor``."""
        p = cube(2)
        fan = face_fan(p)
        covectors = support_function(p, fan).covectors
        return fan, {cid: tuple(factor * x for x in u) for cid, u in covectors.items()}

    def test_support_function_times_a_positive_unit_is_strictly_concave(self):
        fan, covectors = self.scaled(1 + self.R2)
        cl = ConewiseLinear(fan, covectors)
        ring, rays, _ = cl._integral
        assert fan.radicand is None and ring.d == 2
        assert all(type(x) is tuple for ray in rays.values() for x in ray)
        _check_strictly_concave(cl)

    def test_support_function_times_a_negative_unit_is_rejected(self):
        fan, covectors = self.scaled(-1 - self.R2)
        with pytest.raises(FanError, match="^support function is not strictly concave$"):
            _check_strictly_concave(ConewiseLinear(fan, covectors))

    def test_moved_piece_is_rejected(self):
        fan, covectors = self.scaled(1 + self.R2)
        cid = fan.maximal_ids[0]
        ray = fan.rays[fan.ray_ids[cid][0]]
        moved = {**covectors, cid: tuple(u + self.R2 * x for u, x in zip(covectors[cid], ray))}
        with pytest.raises(FanError, match="conewise values disagree on a shared face"):
            ConewiseLinear(fan, moved)


def _from_ray_values(fan, values: dict) -> ConewiseLinear:
    """The conewise linear function on a simplicial fan of the plane with
    the given values at the rays: on each maximal cone, the covector u
    with u.r = values[r] at both of its rays."""
    covectors = {}
    for cid in fan.maximal_ids:
        rays = fan.ray_ids[cid]
        covectors[cid] = linalg.mat_vec(inverse([fan.rays[r] for r in rays]), tuple(values[r] for r in rays))
    return ConewiseLinear(fan, covectors)


@pytest.mark.parametrize("d", [None, 2])
class TestStrictConcavity:
    """The support function's strict concavity check, over Q and on a
    Q(sqrt 2) image, accepts the support function and raises on a
    function that is not strictly concave across some wall."""

    def square(self, d, quadratic_image):
        return cube(2) if d is None else quadratic_image(cube(2), d)

    def test_support_function_passes(self, d, quadratic_image):
        p = self.square(d, quadratic_image)
        fan = face_fan(p)
        assert fan.radicand == d
        _check_strictly_concave(support_function(p, fan))

    def test_negated_support_function_is_rejected(self, d, quadratic_image):
        p = self.square(d, quadratic_image)
        fan = face_fan(p)
        support = support_function(p, fan)
        negated = ConewiseLinear(fan, {cid: tuple(-x for x in u) for cid, u in support.covectors.items()})
        with pytest.raises(FanError, match="^support function is not strictly concave$"):
            _check_strictly_concave(negated)

    def test_pieces_coinciding_across_a_wall_are_rejected(self, d, quadratic_image):
        # Cones a and b share the wall over ray r; the support function's
        # values (-1 at every ray) with the value at b's other ray moved
        # onto the piece of a make the pieces of a and b one covector.
        p = self.square(d, quadratic_image)
        fan = face_fan(p)
        support = support_function(p, fan)
        wall, (a, b) = next(iter(fan.walls(fan.maximal_ids).items()))
        (r,) = fan.ray_ids[wall]
        (other,) = [x for x in fan.ray_ids[b] if x != r]
        values = {x: F(-1) for x in fan.rays}
        values[other] = linalg.vec_dot(support.covectors[a], fan.rays[other])
        flat = _from_ray_values(fan, values)
        assert flat.covectors[a] == flat.covectors[b] == support.covectors[a]
        with pytest.raises(FanError, match="^support function is not strictly concave$"):
            _check_strictly_concave(flat)


class TestExplicitFans:
    def test_hand_built_cross2_fan(self):
        from polyfan.hvector import h_polynomial

        rays = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))]
        fan = from_simplicial_cones(2, rays, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert fan.is_complete()
        assert fan.is_centrally_symmetric()
        assert h_polynomial(fan) == (1, 2, 1)

    def test_non_polytopal_style_input(self):
        # An asymmetric complete simplicial fan given purely by cone lists.
        from polyfan.hvector import h_polynomial, h_simplicial

        rays = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(1)), (F(-1), F(-1)), (F(1), F(-1))]
        fan = from_simplicial_cones(
            2, rays, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        )
        assert fan.is_complete()
        assert h_polynomial(fan) == h_simplicial(fan) == (1, 3, 1)

    def test_dependent_rays_rejected(self):
        rays = [(F(1), F(0)), (F(2), F(0))]
        with pytest.raises(FanError, match="simplicial"):
            from_simplicial_cones(2, rays, [(0, 1)])


class TestWalls:
    @pytest.mark.parametrize("p, count", [(cube(3), 12), (cross_polytope(3), 12)])
    def test_every_wall_of_a_complete_fan_joins_two_cones(self, p, count):
        fan = face_fan(p)
        walls = fan.maximal_walls
        assert walls == fan.walls(fan.maximal_ids)
        assert sorted(walls) == list(fan.cones_of_dim(2))
        assert len(walls) == count
        for f, pair in walls.items():
            assert len(pair) == 2
            assert all(f in faces_below(fan, cid) for cid in pair)

    def test_boundary_walls_of_a_cone(self):
        fan = face_fan(cube(3))
        sigma = fan.cones_of_dim(3)[0]
        walls = fan.walls(fan.facets_of(sigma))
        assert sorted(walls) == sorted(
            f for f in faces_below(fan, sigma) if fan.cones[f].dim == 1
        )
        assert {len(pair) for pair in walls.values()} == {2}

