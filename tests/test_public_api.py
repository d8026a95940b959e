"""Every public function of bosonid has a use outside the tests: code only
tests reach belongs in the tests."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import bosonid

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_LINES = [line for folder in ("src", "scripts")
                for path in sorted((ROOT / folder).rglob("*.py"))
                for line in path.read_text().splitlines()]
MODULES = [importlib.import_module(f"bosonid.{info.name}")
           for info in pkgutil.iter_modules(bosonid.__path__)]


@pytest.mark.parametrize("module", [bosonid, *MODULES], ids=lambda m: m.__name__)
def test_public_functions_are_used(module):
    unused = []
    for name in getattr(module, "__all__", ()):
        if not inspect.isfunction(getattr(module, name)):
            continue
        word = re.compile(rf"\b{name}\b")
        uses = [line for line in SOURCE_LINES if word.search(line)
                and not re.match(rf"\s*def {name}\(", line)  # its definition
                and line.strip() != f'"{name}",']  # its __all__ entry
        if not uses:
            unused.append(name)
    assert not unused, f"{module.__name__}.__all__ names functions nothing uses: {unused}"
