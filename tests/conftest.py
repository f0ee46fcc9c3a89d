from collections import Counter

import pytest


@pytest.fixture
def count_window_ids(monkeypatch):
    """Install, on a module that imports _exponent_groups, a counter of the
    candidate ids its window queries return; returns the Counter."""

    def install(module) -> Counter:
        examined = Counter()
        groups = module._exponent_groups

        def counting(factors, n):
            within = groups(factors, n)

            def counted(*args):
                found = within(*args)
                examined["ids"] += len(found)
                return found

            return counted

        monkeypatch.setattr(module, "_exponent_groups", counting)
        return examined

    return install
