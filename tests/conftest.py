import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from polyfan import linalg, scalars
from polyfan.analysis import Analysis
from polyfan.corpus import sheaf_corpus
from polyfan.polytopes import linear_image
from polyfan.scalars import Quadratic


SCALAR_FILES = ("fractions.py", "scalars.py")


def _builder() -> str:
    """The function that asked for the scalar being built: the first
    caller outside this file and the modules of the scalar types."""
    frame = sys._getframe(2)
    while frame.f_code.co_filename == __file__ or Path(frame.f_code.co_filename).name in SCALAR_FILES:
        frame = frame.f_back
    code = frame.f_code
    return f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"


@pytest.fixture
def count_scalars(monkeypatch):
    """Call it to patch the constructors of Fraction and Quadratic: it
    returns a Counter, keyed by (type, the function that asked for it),
    of the Fractions and Quadratics built from then until
    ``monkeypatch.undo()``."""

    def start() -> Counter:
        built = Counter()

        def counting(kind, make):
            def wrapped(*args, **kwargs):
                built[kind, _builder()] += 1
                return make(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting("Fraction", Fraction.__new__)))
        if hasattr(Fraction, "_from_coprime_ints"):  # where newer Pythons build arithmetic results
            make = Fraction._from_coprime_ints.__func__
            monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting("Fraction", make)))
        monkeypatch.setattr(Quadratic, "__init__", counting("Quadratic", Quadratic.__init__))
        for module in (scalars, linalg):
            monkeypatch.setattr(module, "quadratic_from_parts", counting("Quadratic", module.quadratic_from_parts))
        return built

    return start


@pytest.fixture(scope="session")
def sheaf_analyses():
    """An analysis at cap 8 per sheaf-corpus name; shared by the session
    because each analysis keeps every invariant it computes."""
    return {name: Analysis(p, 8) for name, p in sheaf_corpus()}


@pytest.fixture(scope="session")
def sheaf_setups(sheaf_analyses):
    """(polytope, fan, sheaf at cap 8, support function) per corpus name."""
    return {
        name: (a.polytope, a.fan, a.sheaf, a.support)
        for name, a in sheaf_analyses.items()
    }


@pytest.fixture(scope="session")
def quadratic_image():
    """Image of a rational polytope over Q(sqrt d) under the shear
    x_0 += sqrt(d) x_1; every coordinate is a Quadratic."""

    def image(p, d):
        n = p.ambient_dim
        shear = [[Quadratic(int(r == c), 0, d) for c in range(n)] for r in range(n)]
        shear[0][1] = Quadratic(0, 1, d)
        return linear_image(p, linalg.mat(shear))

    return image


@pytest.fixture(scope="session")
def named_families(quadratic_image):
    """(name, polytope) small enough for the quotient-fan h oracle: cube(2)
    to cube(4), cross(2) to cross(6), products, and Q(sqrt 2) images."""
    from polyfan.polytopes import cross_polytope, cube, product

    out = [(f"cube{n}", cube(n)) for n in range(2, 5)]
    out += [(f"cross{n}", cross_polytope(n)) for n in range(2, 7)]
    out += [
        ("cube2-x-cross2", product(cube(2), cross_polytope(2))),
        ("cross2-x-cross2", product(cross_polytope(2), cross_polytope(2))),
        ("cross3-x-cube1", product(cross_polytope(3), cube(1))),
    ]
    imaged = ("cube3", "cross3", "cube2-x-cross2")
    out += [("sqrt2-" + name, quadratic_image(p, 2)) for name, p in out if name in imaged]
    return out


@pytest.fixture(scope="session")
def lattice_polytopes(named_families):
    """(name, polytope) for the differential tests of the face fan and the
    g/h recursion: every CS corpus member, the benchmark's nonsimplicial
    free sums (cube(3) + 3 cube(1) has 729 faces), the named families,
    cube(5), cube(6) and cross(3) x cross(2)."""
    from functools import reduce

    from polyfan.corpus import cs_corpus
    from polyfan.polytopes import cross_polytope, cube, free_sum, product

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import inputs

    out = list(cs_corpus())
    for names in inputs.FREE_SUMS:
        summands = (inputs.SUMMANDS[s][0] for s in names)
        out.append(("free-sum-" + "-".join(names), reduce(free_sum, summands)))
    out += named_families
    out += [("cube5", cube(5)), ("cube6", cube(6))]
    out.append(("cross3-x-cross2", product(cross_polytope(3), cross_polytope(2))))
    return out
