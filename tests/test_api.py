"""The public surface of each module is exactly what its ``__all__`` lists."""

from __future__ import annotations

import inspect

import pytest

from specadapt import adapt, approx, basis, indicators


@pytest.mark.parametrize("module", [basis, approx, indicators, adapt], ids=lambda m: m.__name__)
def test_all_resolves_and_lists_every_public_definition(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    defined = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []
