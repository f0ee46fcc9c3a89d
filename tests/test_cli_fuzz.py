"""Generated JSON through cli.main: every input gets an answer or an input
error, within bounded time, with the same bytes on a second run."""

import contextlib
import io
import json
import os
import signal
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfgraph.cli import main  # noqa: E402

COMMANDS = (["prime", "--trace"], ["real", "--trace"], ["classify"],
            ["factorize"], ["graph"])
MAX_RUN_S = 10.0

# Any JSON value: nested lists and objects of scalars, huge integers included.
scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**40, 10**40),
                    st.floats(), st.text(max_size=4))
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["rank", "factors", "color", "exponent",
                                       "weight", "x"]), inner, max_size=4),
    max_leaves=12)

# Factor fields: mostly valid, sometimes negative, huge, boolean or not a number.
fields = st.one_of(st.integers(-3, 8), st.integers(-3, 8), st.just(10**9),
                   st.integers(-10**30, 10**30), st.booleans(), json_values)
plain_factors = st.fixed_dictionaries({"color": st.integers(1, 6),
                                       "exponent": st.integers(-40, 40),
                                       "weight": st.integers(1, 5)})
odd_factors = st.dictionaries(st.sampled_from(["color", "exponent", "weight", "x"]),
                              fields, max_size=4)
heavy_factors = st.fixed_dictionaries({"color": st.integers(1, 6),
                                       "exponent": st.sampled_from([0, -5 * 10**9, 10**9]),
                                       "weight": st.just(10**9)})
factor_lists = st.lists(st.one_of(plain_factors, plain_factors, odd_factors,
                                  heavy_factors, json_values), max_size=12)


@st.composite
def with_copies(draw):
    factors = draw(st.lists(plain_factors | heavy_factors, min_size=1, max_size=4))
    return factors * draw(st.integers(2, 300))


documents = st.one_of(
    st.fixed_dictionaries({"rank": st.integers(1, 6), "factors": factor_lists}),
    st.fixed_dictionaries({"rank": st.integers(1, 6), "factors": with_copies()}),
    st.fixed_dictionaries({"rank": st.one_of(st.integers(-2, 8), st.just(10**30),
                                             st.booleans(), json_values),
                           "factors": st.one_of(factor_lists, json_values)}),
    st.dictionaries(st.sampled_from(["rank", "factors", "x"]), json_values,
                    max_size=3),
    json_values)


def bulk(shape: str, rank: int) -> dict:
    """10^5 factors: copies, a sparse chain, a dense pile, heavy strings, nested
    strings, or one factor and copies of a leaf linked to it."""
    count = 10**5
    if shape == "star":
        leaf = {"color": 2, "exponent": 0, "weight": 1}
        return {"rank": max(rank, 2),
                "factors": [{"color": 1, "exponent": 3, "weight": 1}] + [leaf] * count}
    if shape == "nested":
        factors = [{"color": 1 + k % rank, "exponent": 0, "weight": k + 1}
                   for k in range(count)]
    elif shape == "copies":
        factors = [{"color": 1, "exponent": 3, "weight": 2}] * count
    elif shape == "sparse":
        factors = [{"color": 1 + k % rank, "exponent": 41 * k, "weight": 1 + k % 3}
                   for k in range(count)]
    elif shape == "dense":
        factors = [{"color": 1 + k % rank, "exponent": k % 97, "weight": 1 + k % 5}
                   for k in range(count)]
    else:
        factors = [{"color": 1 + k % rank, "exponent": 5 * 10**9 * k, "weight": 10**9}
                   for k in range(count)]
    return {"rank": rank, "factors": factors}


def out_of_time(signum, frame):
    raise TimeoutError


def run_once(command, path):
    """Exit code, stdout and stderr of one cli.main call, stopped after MAX_RUN_S."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, MAX_RUN_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + [path])
    except TimeoutError:
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if code is None:  # fail here: pytest cannot render the handler's traceback
        pytest.fail(f"{' '.join(command)} ran longer than {MAX_RUN_S} s")
    return code, out.getvalue(), err.getvalue()


def run_twice(document, command):
    """Exit code, stdout and stderr of one command, checked on two runs."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        first = run_once(command, path)
        assert run_once(command, path) == first
    code, _, err = first
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("input error: ")
    return first


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(documents, st.sampled_from(COMMANDS))
def test_generated_json_gets_an_answer_or_an_input_error(document, command):
    run_twice(document, command)


# No shrinking: a bulk input has nothing to shrink, and each try may take MAX_RUN_S.
@pytest.mark.parametrize("shape", ["copies", "sparse", "dense", "heavy",
                                   "nested", "star"])
@settings(max_examples=1, deadline=None, derandomize=True, database=None,
          phases=[Phase.generate])
@given(rank=st.integers(1, 6), command=st.sampled_from(COMMANDS))
def test_hundred_thousand_factors(shape, rank, command):
    run_twice(bulk(shape, rank), command)
