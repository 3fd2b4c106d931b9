"""The benchmark's tracer wraps polyfan entry points by name from the
outside (perfbench/tracing.py).  Every name it wraps must exist, and
uninstalling must put the originals back."""

import importlib
import pkgutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import polyfan  # noqa: E402
import tracing  # noqa: E402
from polyfan import cli, ihsheaf, linalg  # noqa: E402


def _attributes():
    """Every function-valued attribute of the polyfan modules and of the
    sheaf class, by (owner, name)."""
    owners = [m for key, m in sys.modules.items() if key == "polyfan" or key.startswith("polyfan.")]
    owners.append(ihsheaf.MinimalExtensionSheaf)
    return {
        (id(owner), name): value
        for owner in owners
        for name, value in list(vars(owner).items())
        if callable(value)
    }


def test_install_wraps_every_name_and_uninstall_restores_them():
    # Import every submodule first: install imports the ones it wraps,
    # which would otherwise add modules between the two snapshots.
    for module in pkgutil.iter_modules(polyfan.__path__):
        importlib.import_module(f"polyfan.{module.name}")
    before = _attributes()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        during = _attributes()
        for owner, name in (
            (linalg, "mat_mul"),
            (linalg, "_rref_inplace"),
            (ihsheaf, "build_mes"),
            (ihsheaf, "refined_series"),
            (ihsheaf, "lefschetz_maps"),
            (ihsheaf, "minus_lefschetz_table"),
            (ihsheaf, "ih_poincare"),
            (ihsheaf, "_involution_on_basis"),
            (ihsheaf.MinimalExtensionSheaf, "section_space"),
            (ihsheaf.MinimalExtensionSheaf, "restriction_matrix"),
            (ihsheaf.MinimalExtensionSheaf, "global_data"),
            (cli, "load_polytope_file"),
        ):
            assert during[(id(owner), name)] is not before[(id(owner), name)], name
    finally:
        tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
