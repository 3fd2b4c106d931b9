from fractions import Fraction

import pytest

from polyfan import linalg, polytopes
from polyfan.corpus import cs_corpus, nonrational_cs_polytope
from polyfan.polytopes import (
    Polytope,
    PolytopeError,
    cross_polytope,
    cube,
    ensure_origin_interior,
    free_sum,
    hull_vertices,
    linear_image,
    product,
    random_cs,
    simplex,
)

from oracles import brute_force_faces, brute_force_facets, dual_polytope, rank_vertex_criterion


def F(x):
    return Fraction(x)


class TestFaceLattice:
    def test_cube3_f_vector(self):
        assert cube(3).f_vector() == (8, 12, 6)

    def test_cross3_f_vector(self):
        assert cross_polytope(3).f_vector() == (6, 12, 8)

    def test_simplex_f_vector(self):
        assert simplex(3).f_vector() == (4, 6, 4)

    def test_nonrational_facets_match_brute_force(self):
        p = nonrational_cs_polytope()
        lattice = p.face_lattice()
        mine = {frozenset(lattice.vertices_of(f)) for f in lattice.facet_ids()}
        assert mine == brute_force_facets(p.vertices)
        assert p.f_vector() == (10, 20, 12)

    def test_not_full_dimensional_rejected(self):
        flat = Polytope([(F(0), F(0)), (F(1), F(0)), (F(2), F(0))])
        with pytest.raises(PolytopeError, match="full-dimensional"):
            flat.face_lattice()

    def test_non_vertex_point_rejected(self):
        # Midpoint of an edge of the square is not a vertex.
        p = Polytope(
            [
                (F(1), F(1)),
                (F(1), F(-1)),
                (F(-1), F(1)),
                (F(-1), F(-1)),
                (F(1), F(0)),
            ]
        )
        with pytest.raises(PolytopeError, match=r"listed point #4 \(1, 0\) is not a vertex"):
            p.face_lattice()

    def test_vertex_meet_agrees_with_rank_criterion(self):
        """The facet-mask test of each listed point (the meet of the
        facets through it is the point alone) agrees with the rank of the
        facet normals through it, on the CS corpus with three points
        added: an edge midpoint, a facet centroid and the vertex
        centroid (from dimension 2 on, where these are three distinct
        non-vertices).  Exactly the corpus vertices pass, and the first
        added point is the one reported."""
        for name, p in cs_corpus():
            if p.ambient_dim < 2:
                continue
            lattice = p.face_lattice()
            n = p.ambient_dim

            def centroid(face):
                vs = [p.vertices[i] for i in lattice.vertices_of(face)]
                return tuple(sum(xs, F(0)) / len(vs) for xs in zip(*vs))

            added = [centroid(lattice.faces_of_dim(1)[0]), centroid(lattice.facet_ids()[-1])]
            added.append(centroid(len(lattice.masks) - 1))
            points = list(p.vertices) + added
            facets = polytopes._facets(points, n)
            masks = [mask for mask, _, _ in facets]
            meets = [polytopes._smallest_face(i, masks) == 1 << i for i in range(len(points))]
            assert meets == rank_vertex_criterion(points, facets), name
            assert meets == [i < len(p.vertices) for i in range(len(points))], name
            with pytest.raises(polytopes.NotAVertexError, match=rf"#{len(p.vertices)} "):
                Polytope(points).face_lattice()

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(PolytopeError, match="duplicate"):
            Polytope([(F(0),), (F(0),)])

    def test_lattice_against_oracle_small_corpus(self):
        for p in (
            simplex(2),
            simplex(3),
            cube(2),
            cube(3),
            cross_polytope(2),
            cross_polytope(3),
            random_cs(2, 4, seed=3),
            random_cs(3, 4, seed=5),
            nonrational_cs_polytope(),
        ):
            if len(p.vertices) > 12:
                continue
            lattice = p.face_lattice()
            mine = {
                frozenset(lattice.vertices_of(i)): lattice.dims[i]
                for i in lattice.face_ids()
            }
            assert mine == brute_force_faces(p.vertices)


class TestDual:
    def test_dual_cube_is_cross(self):
        d = dual_polytope(cube(3))
        assert set(d.vertices) == set(cross_polytope(3).vertices)

    def test_dual_cross_is_cube(self):
        d = dual_polytope(cross_polytope(3))
        assert set(d.vertices) == set(cube(3).vertices)

    def test_dual_involution_on_corpus(self):
        for p in (cube(2), cube(3), cross_polytope(3), simplex(3),
                  nonrational_cs_polytope()):
            q, _ = ensure_origin_interior(p)
            dd = dual_polytope(dual_polytope(q))
            assert set(dd.vertices) == set(q.vertices)

    def test_dual_reverses_lattice(self):
        for p in (cube(3), cross_polytope(3), nonrational_cs_polytope()):
            n = p.ambient_dim
            fv = p.f_vector()
            dv = dual_polytope(p).f_vector()
            assert dv == tuple(reversed(fv))
            assert len(p.face_lattice().masks) == len(
                dual_polytope(p).face_lattice().masks
            )

    def test_dual_needs_interior_origin(self):
        shifted = cube(2).translate((F(5), F(5)))
        with pytest.raises(PolytopeError, match="interior"):
            dual_polytope(shifted)


class TestSymmetry:
    def test_cube_is_cs(self):
        assert cube(3).is_centrally_symmetric()

    def test_simplex_not_cs(self):
        assert not simplex(3).is_centrally_symmetric()

    def test_free_sum_preserves_symmetry(self):
        assert free_sum(cube(2), cross_polytope(1)).is_centrally_symmetric()

    def test_cross_recognition(self):
        for n in range(1, 6):
            assert cross_polytope(n).is_cross_polytope()
        # cube(2) is a rotated diamond, hence genuinely a cross-polytope;
        # from dimension 3 on cubes have too many vertices.
        assert cube(2).is_cross_polytope()
        for n in range(3, 6):
            assert not cube(n).is_cross_polytope()

    def test_cross_recognition_of_linear_image(self):
        m = linalg.mat(
            [[F(1), F(2), F(0)], [F(0), F(1), F(2)], [F(2), F(0), F(1)]]
        )
        assert linear_image(cross_polytope(3), m).is_cross_polytope()

    def test_random_cs_with_many_vertices_not_cross(self):
        p = random_cs(2, 5, seed=11)
        if len(p.vertices) > 4:
            assert not p.is_cross_polytope()


class TestGenerators:
    def test_cross_vertices(self):
        assert len(cross_polytope(3).vertices) == 6

    def test_product_of_intervals_is_square(self):
        sq = product(cube(1), cube(1))
        assert len(sq.vertices) == 4
        assert sq.f_vector() == (4, 4)

    def test_free_sum_of_intervals_is_diamond(self):
        diamond = free_sum(cube(1), cube(1))
        assert len(diamond.vertices) == 4
        assert diamond.is_cross_polytope()

    def test_product_vertex_count(self):
        assert len(product(cube(2), cross_polytope(1)).vertices) == 8

    def test_random_cs_deterministic(self):
        a = random_cs(3, 5, seed=7)
        b = random_cs(3, 5, seed=7)
        assert a.vertices == b.vertices

    def test_random_cs_is_cs(self):
        for seed in range(6):
            p = random_cs(2, 4, seed=seed)
            assert p.is_centrally_symmetric()

    def test_linear_image_needs_a_square_matrix(self):
        # Rank 2 on the plane, but its image is a flat polygon in 3-space.
        flat = ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
        with pytest.raises(PolytopeError, match="invertible matrix"):
            linear_image(cube(2), flat)
        with pytest.raises(PolytopeError, match="invertible matrix"):
            linear_image(cube(2), ((F(1), F(0), F(0)), (F(0), F(1), F(0))))

    def test_hull_vertices_drops_interior_points(self):
        pts = list(cube(2).vertices) + [(F(0), F(0)), (F(1), F(0))]
        assert set(hull_vertices(pts)) == set(cube(2).vertices)

    def test_degenerate_random_rejected(self):
        with pytest.raises(PolytopeError):
            random_cs(3, 2, seed=0)


class TestOriginHandling:
    def test_translation_applied_when_needed(self):
        shifted = cube(2).translate((F(10), F(0)))
        fixed, shift = ensure_origin_interior(shifted)
        assert shift == (F(-10), F(0))
        assert fixed.origin_is_interior()

    def test_no_translation_when_interior(self):
        p, shift = ensure_origin_interior(cube(2))
        assert shift is None
        assert p is cube(2) or p.vertices == cube(2).vertices

    def test_centroid(self):
        assert simplex(3).centroid() == (F(0), F(0), F(0))


class TestDualIncidence:
    def test_dual_reverses_incidence(self):
        # Mapping a face to the set of facets containing it is an
        # order-reversing bijection onto the proper faces of the dual.
        from polyfan.corpus import nonrational_cs_polytope

        for p in (cube(3), cross_polytope(3), nonrational_cs_polytope()):
            lattice = p.face_lattice()
            facets = lattice.facet_ids()
            facet_pos = {f: i for i, f in enumerate(facets)}
            dual = dual_polytope(p)
            dual_lattice = dual.face_lattice()
            expected = set()
            for fid in lattice.proper_face_ids():
                containing = frozenset(
                    facet_pos[f] for f in facets if lattice.contains(fid, f)
                )
                expected.add((containing, p.ambient_dim - 1 - lattice.dims[fid]))
            got = {
                (frozenset(dual_lattice.vertices_of(i)), dual_lattice.dims[i])
                for i in dual_lattice.proper_face_ids()
            }
            assert got == expected

    def test_oracle_sweep_small_corpus_members(self):
        from polyfan.corpus import cs_corpus

        checked = 0
        for name, p in cs_corpus():
            if len(p.vertices) > 10:
                continue
            lattice = p.face_lattice()
            mine = {
                frozenset(lattice.vertices_of(i)): lattice.dims[i]
                for i in lattice.face_ids()
            }
            assert mine == brute_force_faces(p.vertices), name
            checked += 1
        assert checked >= 10
