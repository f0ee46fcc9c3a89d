from collections import Counter

import pytest


@pytest.fixture
def count_window_ids(monkeypatch):
    """Install, on a module that imports _overlaps, a counter of the id
    pairs it yields; returns the Counter."""

    def install(module) -> Counter:
        examined = Counter()
        overlaps = module._overlaps

        def counting(*args):
            for pair in overlaps(*args):
                examined["pairs"] += 1
                yield pair

        monkeypatch.setattr(module, "_overlaps", counting)
        return examined

    return install
