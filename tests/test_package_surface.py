"""Package-surface smoke tests: imports, __all__, and module docs."""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = ["gf2", "codes", "equations", "recovery", "codec", "faults",
               "disksim", "analysis", "obs", "pipeline"]


def _walk_modules():
    out = []
    for pkg_name in SUBPACKAGES:
        pkg = importlib.import_module(f"repro.{pkg_name}")
        out.append(pkg.__name__)
        for info in pkgutil.iter_modules(pkg.__path__):
            out.append(f"{pkg.__name__}.{info.name}")
    out.append("repro.cli")
    out.append("repro.runner")
    return out


class TestSurface:
    @pytest.mark.parametrize("module_name", _walk_modules())
    def test_module_imports_and_documented(self, module_name):
        mod = importlib.import_module(module_name)
        assert mod.__doc__, f"{module_name} lacks a module docstring"

    def test_root_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("pkg_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, pkg_name):
        pkg = importlib.import_module(f"repro.{pkg_name}")
        for name in getattr(pkg, "__all__", []):
            assert hasattr(pkg, name), f"repro.{pkg_name}.{name}"

    def test_public_classes_have_docstrings(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type) or callable(obj):
                assert getattr(obj, "__doc__", None), f"{name} undocumented"

    def test_version_matches_setup(self):
        from pathlib import Path

        setup_text = Path(__file__).resolve().parents[1].joinpath(
            "setup.py"
        ).read_text()
        assert f'version="{repro.__version__}"' in setup_text
