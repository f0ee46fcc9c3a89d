from collections import Counter

import pytest


@pytest.fixture
def count_window_ids(monkeypatch):
    """Install, on a module that imports _overlaps, a counter of the pairs
    its (lefts, rights) runs give out; returns the Counter."""

    def install(module) -> Counter:
        examined = Counter()
        overlaps = module._overlaps

        def counting(*args):
            for run in overlaps(*args):
                examined["pairs"] += len(run[0]) * len(run[1])
                yield run

        monkeypatch.setattr(module, "_overlaps", counting)
        return examined

    return install
