"""The value types are plain classes that keep what frozen dataclasses gave.

Hashes equal the hash of the field tuple, so set and dict iteration orders,
and with them the output bytes, stay put; factors sort in field order; the
repr that sweep counterexamples print keeps its form; and constructors still
validate.  Importing the CLI loads neither `dataclasses` nor `inspect`.
"""

import os
import random
import subprocess
import sys

import pytest

import qfgraph
from qfgraph.decision import AltLineConfig
from qfgraph.drinfeld import KRFactor
from qfgraph.dynkin import DynkinA, Interval
from qfgraph.qchar import LWeight


def test_hashes_are_field_tuple_hashes():
    assert hash(KRFactor(2, -3, 4)) == hash((2, -3, 4))
    assert hash(Interval(1, 2)) == hash((1, 2))
    entries = (((1, 0), 1), ((2, 3), -1))
    assert hash(LWeight(entries)) == hash((entries,))
    assert hash(LWeight(())) == hash(((),))


def test_factors_sort_in_field_order():
    rng = random.Random(3)
    fields = [(rng.randint(1, 3), rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(200)]
    ordered = sorted(KRFactor(*t) for t in fields)
    assert [(f.color, f.exponent, f.weight) for f in ordered] == sorted(fields)


def test_interval_repr():
    assert repr(Interval(1, 2)) == "Interval(lo=1, hi=2)"


def test_constructors_validate():
    with pytest.raises(ValueError, match="weight must be positive"):
        KRFactor(1, 0, 0)
    with pytest.raises(ValueError, match="color must be positive"):
        KRFactor(0, 0, 1)
    with pytest.raises(ValueError, match="invalid interval"):
        Interval(3, 2)
    with pytest.raises(ValueError, match="rank must be positive"):
        DynkinA(0)
    with pytest.raises(ValueError, match="end vertices are adjacent"):
        AltLineConfig(DynkinA(3), 2, 2, 3, 1, 2, 3, 2, 6)


def test_interval_calls_post_init_through_the_class(monkeypatch):
    'perfbench counts intervals by replacing Interval.__post_init__'
    calls = []
    post_init = Interval.__dict__["__post_init__"]

    def counted(self):
        calls.append((self.lo, self.hi))
        post_init(self)

    monkeypatch.setattr(Interval, "__post_init__", counted)
    Interval(1, 2)
    Interval.hull(4, 3)
    with pytest.raises(ValueError):
        Interval(0, 1)
    assert calls == [(1, 2), (3, 4), (0, 1)]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S skips site, whose .pth files may import either module themselves.
    src = os.path.dirname(os.path.dirname(qfgraph.__file__))
    probe = ("import sys, qfgraph.cli\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
