import doctest
import importlib
import pkgutil

import pytest

import proctheory

MODULES = sorted(m.name for m in pkgutil.iter_modules(proctheory.__path__, "proctheory."))


@pytest.mark.parametrize("name", ["proctheory", *MODULES])
def test_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples in {name} failed"


def test_doctests_are_found():
    # the examples of systems.py: a broken collection would pass the test above vacuously
    assert doctest.testmod(importlib.import_module("proctheory.systems")).attempted == 3
