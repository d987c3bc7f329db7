"""Run the doctests of every `littlewood` module."""
import doctest
import importlib
import pkgutil

import pytest

import littlewood

# `littlewood.__main__` runs the command line when imported
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(littlewood.__path__, "littlewood.")
    if info.name != "littlewood.__main__"
)


def test_modules_found():
    assert "littlewood.special_numbers" in MODULES and "littlewood.limits" in MODULES


@pytest.mark.parametrize("name", ["littlewood", *MODULES])
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name


def test_special_numbers_doctests_run():
    result = doctest.testmod(importlib.import_module("littlewood.special_numbers"))
    assert result.attempted >= 5
