"""The value types keep what frozen dataclasses gave, without dataclasses.

The records (factors, l-weights, Drinfeld polynomials, verdicts and their
certificate steps) are namedtuples: they compare by value, cannot be
assigned to, and hash as the tuple of their fields, so set and dict
iteration orders, and with them the output bytes, stay put.  Factors sort
in field order; the repr that sweep counterexamples print keeps its form;
and constructors still validate.  Importing the CLI loads neither
`dataclasses` nor `inspect`, and a verdict executes no q-character, sweep
or example module.
"""

import json
import os
import random
import subprocess
import sys

import pytest

import qfgraph
from qfgraph.decision import CertStep, decide
from qfgraph.drinfeld import DrinfeldPoly, KRFactor
from qfgraph.dynkin import DynkinA, Interval
from qfgraph.fixtures import cosubpt_factors
from qfgraph.graph import build_graph
from qfgraph.qchar import LWeight

from altline import AltLineConfig


def test_hashes_are_field_tuple_hashes():
    assert hash(KRFactor(2, -3, 4)) == hash((2, -3, 4))
    entries = (((1, 0), 1), ((2, 3), -1))
    assert hash(LWeight(entries)) == hash((entries,))
    assert hash(LWeight(())) == hash(((),))
    assert hash(DrinfeldPoly.from_roots([(1, 0)])) == hash((((1, 0),),))


def test_verdicts_compare_by_value_and_are_immutable():
    diagram, factors = cosubpt_factors()
    g = build_graph(factors, diagram)
    verdict = decide(g)
    assert verdict == decide(g)
    with pytest.raises(AttributeError):
        verdict.primality = "prime"


def test_cert_step_fields_are_its_json():
    assert CertStep("r", "c", {})._asdict() == {"rule": "r", "cites": "c", "params": {}}


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
    Interval(3, 4)
    with pytest.raises(ValueError):
        Interval(0, 1)
    assert calls == [(1, 2), (3, 4), (0, 1)]


def test_cli_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    """Nor does it execute the q-characters, sweeps or examples: after the
    import and a `prime --trace` request only the engine modules have run
    (a lazily loaded module that has not run is not a plain module yet)."""
    # -S skips site, whose .pth files may import either module themselves.
    src = os.path.dirname(os.path.dirname(qfgraph.__file__))
    diagram, factors = cosubpt_factors()
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"rank": diagram.n,
                                "factors": [f.to_json() for f in factors]}))
    probe = ("import contextlib, io, sys, types, qfgraph.cli\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
             "with contextlib.redirect_stdout(io.StringIO()) as out, \\\n"
             "        contextlib.redirect_stderr(io.StringIO()):\n"
             "    code = qfgraph.cli.main(['prime', '--trace', sys.argv[1]])\n"
             "print(code, '\"certificate\"' in out.getvalue())\n"
             "print(*sorted(name for name, m in sys.modules.items()\n"
             "              if name.partition('.')[0] == 'qfgraph'\n"
             "              and type(m) is types.ModuleType))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, str(path)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "0 True",
        "qfgraph qfgraph.cli qfgraph.decision qfgraph.drinfeld qfgraph.dynkin "
        "qfgraph.graph qfgraph.redsets"]
