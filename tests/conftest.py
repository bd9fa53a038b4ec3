import sys

import pytest

from lmss.corpus import connected_graphs_upto


@pytest.fixture(scope="session")
def connected_upto_6():
    return connected_graphs_upto(6)


@pytest.fixture(scope="session")
def connected_upto_8():
    return connected_graphs_upto(8)


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
