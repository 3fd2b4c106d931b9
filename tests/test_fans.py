from fractions import Fraction

import pytest

from polyfan import linalg
from polyfan.corpus import nonrational_cs_polytope, sheaf_corpus
from polyfan.fans import (
    Cone,
    ConewiseLinear,
    Fan,
    FanError,
    face_fan,
    support_function,
)
from polyfan.polytopes import Polytope, cross_polytope, cube, simplex

from oracles import boundary_fan, cone_fan, from_simplicial_cones, rref, subfan, value_on_ray


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
            proper = len(p.face_lattice().proper_face_ids())
            assert len(fan.cones) == proper + 1

    def test_nonrational_fan_complete(self):
        fan = face_fan(nonrational_cs_polytope())
        assert fan.is_complete()

    def test_needs_interior_origin(self):
        with pytest.raises(FanError, match="interior"):
            face_fan(cube(2).translate((F(3), F(3))))


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
        assert set(boundary.cones) == set(fan.faces[sigma])


def test_cone_basis_equals_the_dense_oracle(quadratic_image):
    """Every cone basis of the sheaf corpus and of the Q(sqrt 2) and
    Q(sqrt 3) shear images of its rational members is the reduced row
    echelon form of the cone's rays by the dense Gauss-Jordan oracle,
    entry by entry as values."""
    polytopes = [(name, p) for name, p in sheaf_corpus()]
    for d in (2, 3):
        polytopes += [
            (f"sqrt{d}-{name}", quadratic_image(p, d))
            for name, p in sheaf_corpus()
            if name != "nonrational-bipyramid"
        ]
    for name, p in polytopes:
        fan = face_fan(p)
        for cid in fan.cone_ids():
            assert fan.cone_basis(cid) == rref(fan.rays_of(cid)), (name, cid)


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
        assert set(q.cones) == set(fan.faces[sigma])
        for cid in q.cones:
            assert q.cones[cid].dim == fan.cones[cid].dim


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
            rays = fan.rays_of(cid)
            if (F(1), F(0)) in rays and (F(0), F(1)) in rays:
                assert s.covectors[cid] == (F(-1), F(-1))

    def test_scaling_halves_support(self):
        p = cube(3)
        fan = face_fan(p)
        s = support_function(p, fan)
        doubled = Polytope(tuple(linalg.vec_scale(F(2), v) for v in p.vertices))
        s2 = support_function(doubled, face_fan(doubled))
        for cid, u in s.covectors.items():
            assert s2.covectors[cid] == linalg.vec_scale(Fraction(1, 2), u)

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
        walls = fan.walls(fan.maximal_ids)
        assert sorted(walls) == list(fan.cones_of_dim(2))
        assert len(walls) == count
        for f, pair in walls.items():
            assert len(pair) == 2
            assert all(f in fan.faces[cid] for cid in pair)

    def test_boundary_walls_of_a_cone(self):
        fan = face_fan(cube(3))
        sigma = fan.cones_of_dim(3)[0]
        walls = fan.walls(fan.facets_of(sigma))
        assert sorted(walls) == sorted(
            f for f in fan.faces[sigma] if fan.cones[f].dim == 1
        )
        assert {len(pair) for pair in walls.values()} == {2}

