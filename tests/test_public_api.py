"""The public API surface: everything exported in ``__all__`` resolves,
and the package-level convenience imports work."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.hw",
    "repro.workload",
    "repro.schedulers",
    "repro.core",
    "repro.kvs",
    "repro.stack",
    "repro.analysis",
    "repro.experiments",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} must declare __all__"
    for name in module.__all__:
        assert getattr(module, name, None) is not None, (
            f"{package}.{name} listed in __all__ but missing"
        )


def test_top_level_convenience_imports():
    import repro

    assert callable(repro.quick_run)
    assert callable(repro.build_system)
    assert callable(repro.run_workload)
    assert repro.__version__


def test_version_matches_pyproject():
    import repro

    with open("pyproject.toml") as handle:
        content = handle.read()
    assert f'version = "{repro.__version__}"' in content


def _loaded_by_fresh_api_import(module: str) -> bool:
    """Whether a fresh interpreter's ``import repro.api`` loads ``module``."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = f"import sys, repro.api; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    return out.strip() == "True"


def test_import_api_leaves_scipy_out():
    """scipy is not a dependency: a fresh ``import repro.api`` never
    loads it."""
    assert not _loaded_by_fresh_api_import("scipy")


def test_import_api_leaves_runner_out():
    """The sweep runner is an experiments-layer dependency: a fresh
    ``import repro.api`` never loads ``repro.runner``."""
    assert not _loaded_by_fresh_api_import("repro.runner")
