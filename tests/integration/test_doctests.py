"""Run every docstring example in the package as a doctest.

Doc examples are part of the public documentation; this keeps them
executable and true.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        # Import-guarded optional modules; their docs are exercised
        # where the dependency is installed.
        pytest.skip(f"optional dependency missing: {exc}")
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"


def test_package_has_doctests_somewhere():
    # Sanity: the suite actually exercises examples, not just imports.
    total = 0
    for module_name in MODULES:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        finder = doctest.DocTestFinder()
        total += sum(len(t.examples) for t in finder.find(module))
    assert total >= 10
