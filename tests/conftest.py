import sys

import pytest

from lmss.corpus import connected_graphs


@pytest.fixture(scope="session")
def connected_upto_6():
    return [g for n in range(1, 7) for g in connected_graphs(n)]


@pytest.fixture(scope="session")
def connected_upto_8():
    return [g for n in range(1, 9) for g in connected_graphs(n)]


@pytest.fixture
def patch_lmss(monkeypatch):
    """Replace a function wherever an ``lmss`` module binds it, so that
    calls through any import of it, recursive ones included, reach the
    replacement."""

    def patch(original, replacement):
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("lmss"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, replacement)

    return patch
