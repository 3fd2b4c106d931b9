import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from polyfan.analysis import Analysis
from polyfan.corpus import sheaf_corpus


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
