import errno
import io
import json
import os
import subprocess
import sys
import time

import pytest

import qfgraph
import qfgraph.cli
import qfgraph.fixtures
import qfgraph.graph
import qfgraph.qchar
from qfgraph.cli import check_field, load_input, main
from qfgraph.drinfeld import KRFactor
from qfgraph.dynkin import DynkinA
from qfgraph.sweeps import SWEEP_CAPS


def write_input(tmp_path, rank, factors, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"rank": rank, "factors": factors}))
    return str(path)


COSUBPT = [{"color": 1, "exponent": 1, "weight": 2},
           {"color": 2, "exponent": 5, "weight": 1},
           {"color": 3, "exponent": 6, "weight": 3},
           {"color": 3, "exponent": 8, "weight": 1}]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rset_command(capsys):
    code, out, _ = run(capsys, ["rset", "--rank", "2", "--i", "1", "--r", "1",
                                "--j", "2", "--s", "1"])
    assert code == 0 and out == "{3}\n"
    code, out, _ = run(capsys, ["rset", "--rank", "3", "--i", "3", "--r", "3",
                                "--j", "1", "--s", "2"])
    assert code == 0 and out == "{5, 7}\n"
    code, out, _ = run(capsys, ["rset", "--rank", "2", "--i", "1", "--r", "1",
                                "--j", "1", "--s", "1"])
    assert code == 0 and out == "{2}\n"


def test_rset_window_and_errors(capsys):
    code, out, _ = run(capsys, ["rset", "--rank", "3", "--i", "2", "--r", "1",
                                "--j", "2", "--s", "1", "--jlo", "2", "--jhi", "2"])
    assert code == 0 and out == "{2}\n"
    code, _, err = run(capsys, ["rset", "--rank", "2", "--i", "1", "--r", "1",
                                "--j", "3", "--s", "1"])
    assert code == 1 and "input error" in err
    code, out, err = run(capsys, ["rset", "--rank", "3", "--i", "2", "--r", "1",
                                  "--j", "2", "--s", "1", "--jlo", "2"])
    assert (code, out) == (1, "")
    assert err == "input error: --jlo and --jhi must be given together\n"
    # At most 10^7 characters are printed; the check does not depend on the set size.
    code, out, _ = run(capsys, ["rset", "--rank", "1", "--i", "1", "--r", "1000000",
                                "--j", "1", "--s", "1000000"])
    assert code == 0 and out.count(",") == 10 ** 6 - 1
    for argv in (["--rank", "1", "--i", "1", "--r", "1200000",
                  "--j", "1", "--s", "1200000"],
                 ["--rank", "20000000000", "--i", "10000000000", "--r", "1",
                  "--j", "10000000000", "--s", "1"],
                 ["--rank", "2", "--i", "1", "--r", str(10 ** 30), "--j", "2",
                  "--s", str(10 ** 30)]):
        start = time.perf_counter()
        code, out, err = run(capsys, ["rset"] + argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == "input error: the reducibility set would print more than " \
                      "10000000 characters\n"


def test_rset_refuses_a_set_that_would_print_too_much(capsys, monkeypatch):
    'elements times (digits of the largest + 2) is bounded before any is printed'
    start = time.perf_counter()
    code, out, err = run(capsys, ["rset", "--rank", "20001", "--i", "10001",
                                  "--r", "9" * 3999, "--j", "10001", "--s", "1"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "input error: the reducibility set would print more than " \
                  "10000000 characters\n"
    argv = ["rset", "--rank", "3", "--i", "3", "--r", "3", "--j", "1", "--s", "2"]
    monkeypatch.setattr(qfgraph.cli, "MAX_RSET_CHARS", 6)  # {5, 7}: 2 * (1 + 2)
    assert run(capsys, argv)[:2] == (0, "{5, 7}\n")
    monkeypatch.setattr(qfgraph.cli, "MAX_RSET_CHARS", 5)
    assert run(capsys, argv) == (1, "", "input error: the reducibility set would "
                                        "print more than 5 characters\n")


def test_prime_command(capsys, tmp_path):
    path = write_input(tmp_path, 3, COSUBPT)
    code, out, _ = run(capsys, ["prime", path])
    assert code == 0
    assert json.loads(out) == {"primality": "unknown", "reality": "real"}
    code, out, _ = run(capsys, ["prime", path, "--trace"])
    payload = json.loads(out)
    assert payload["primality"] == "unknown"
    assert payload["certificate"]
    assert all({"rule", "cites", "params"} == set(step)
               for step in payload["certificate"])


def test_prime_command_singleton(capsys, tmp_path):
    path = write_input(tmp_path, 2, [{"color": 1, "exponent": 0, "weight": 1}])
    code, out, _ = run(capsys, ["prime", path])
    assert code == 0
    assert json.loads(out) == {"primality": "prime", "reality": "real"}


def test_prime_command_not_prime_family(capsys, tmp_path):
    factors = [{"color": 1, "exponent": 3, "weight": 2},
               {"color": 2, "exponent": 0, "weight": 2},
               {"color": 1, "exponent": 4, "weight": 1}]
    path = write_input(tmp_path, 2, factors)
    code, out, _ = run(capsys, ["prime", path])
    assert code == 0
    assert json.loads(out)["primality"] == "not_prime"


def test_real_command(capsys, tmp_path):
    path = write_input(tmp_path, 3, COSUBPT)
    code, out, _ = run(capsys, ["real", path])
    assert code == 0
    assert json.loads(out)["reality"] == "real"


def test_classify_and_prime_on_a_triangle(capsys, tmp_path):
    'three factors joined pairwise: tagged triangle, prime as totally ordered'
    path = write_input(tmp_path, 3, [{"color": 1, "exponent": 7, "weight": 2},
                                     {"color": 2, "exponent": 4, "weight": 2},
                                     {"color": 3, "exponent": 1, "weight": 2}])
    assert run(capsys, ["classify", path]) == (0, (
        '{"components": [[0, 1, 2]], "line_order": null, "tag": "triangle", '
        '"was_refactorized": false}\n'), "")
    code, out, _ = run(capsys, ["prime", "--trace", path])
    assert (code, out) == (0, (
        '{"certificate": [{"cites": "totally ordered q-factorization graphs are '
        'prime in type A", "params": {}, "rule": "totally_ordered"}, {"cites": '
        '"no reality rule applies to graphs that are not trees", "params": {}, '
        '"rule": "inconclusive"}], "primality": "prime", "reality": "unknown"}\n'))


def test_graph_command(capsys, tmp_path):
    path = write_input(tmp_path, 3, COSUBPT)
    code, out, _ = run(capsys, ["graph", path])
    assert code == 0
    assert out.startswith("digraph qfactorization {")
    assert '"3"' in out and '"4"' in out and '"5"' in out
    dot_path = tmp_path / "g.dot"
    code, out, err = run(capsys, ["graph", path, "--dot", str(dot_path)])
    assert code == 0 and out == "" and "wrote" in err
    assert dot_path.read_text().startswith("digraph")


def test_graph_dot_to_unwritable_path_is_an_input_error(capsys, tmp_path):
    path = write_input(tmp_path, 3, COSUBPT)
    for target in (tmp_path, tmp_path / "missing" / "g.dot"):
        code, out, err = run(capsys, ["graph", path, "--dot", str(target)])
        assert code == 1 and out == ""
        assert err.startswith(f"input error: cannot write {target}: ")
        assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_classify_command(capsys, tmp_path):
    path = write_input(tmp_path, 3, COSUBPT)
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0
    assert json.loads(out)["tag"] == "tree"


def test_factorize_command(capsys, tmp_path):
    factors = [{"color": 1, "exponent": 2, "weight": 1},
               {"color": 2, "exponent": 0, "weight": 2},
               {"color": 1, "exponent": 4, "weight": 1}]
    path = write_input(tmp_path, 2, factors)
    code, out, err = run(capsys, ["factorize", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["was_refactorized"] is True
    assert payload["factors"] == [
        {"color": 1, "exponent": 3, "weight": 2},
        {"color": 2, "exponent": 0, "weight": 2}]


def test_factorize_keeps_dissociate_input(capsys, tmp_path):
    'a dissociate input is its own q-factorization and is not expanded'
    factor = {"color": 1, "exponent": 3, "weight": 10 ** 5}
    path = write_input(tmp_path, 2, [factor])
    start = time.perf_counter()
    code, out, _ = run(capsys, ["factorize", path])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out) == {"rank": 2, "factors": [factor],
                               "was_refactorized": False}
    assert elapsed < 1.0


def test_factorize_linked_pair_of_huge_weight(capsys, tmp_path):
    'cost does not grow with the weight: 10^9 roots per factor are never expanded'
    big = 10 ** 9
    path = write_input(tmp_path, 3, [{"color": 1, "exponent": 0, "weight": big},
                                     {"color": 1, "exponent": 2, "weight": big}])
    start = time.perf_counter()
    code, out, _ = run(capsys, ["factorize", path])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out) == {
        "rank": 3, "was_refactorized": True,
        "factors": [{"color": 1, "exponent": 1, "weight": big - 1},
                    {"color": 1, "exponent": 1, "weight": big + 1}]}


def test_prime_cross_color_pair_of_huge_weight(capsys, tmp_path):
    big = 10 ** 9
    path = write_input(tmp_path, 2, [{"color": 1, "exponent": 0, "weight": big},
                                     {"color": 2, "exponent": 2 * big - 1, "weight": big}])
    start = time.perf_counter()
    code, out, _ = run(capsys, ["prime", path])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    payload = json.loads(out)
    assert (payload["primality"], payload["reality"]) == ("prime", "real")


def test_prime_on_copies_of_one_factor(capsys, tmp_path):
    '8000 copies: one vertex each, no arrow, and no pairwise scan of the copies'
    path = write_input(tmp_path, 1, [{"color": 1, "exponent": 0, "weight": 1}] * 8000)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["prime", "--trace", path])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    payload = json.loads(out)
    assert (payload["primality"], payload["reality"]) == ("not_prime", "unknown")
    assert len(payload["certificate"][0]["params"]["components"]) == 8000


def test_prime_on_a_star_of_copies(capsys, tmp_path):
    'one factor and 8000 copies of a linked leaf: the triple scan stops at its first witness'
    leaf = {"color": 2, "exponent": 0, "weight": 1}
    path = write_input(tmp_path, 2, [{"color": 1, "exponent": 3, "weight": 1}]
                       + [leaf] * 8000)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["prime", "--trace", path])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    payload = json.loads(out)
    assert (payload["primality"], payload["reality"]) == ("not_prime", "real")
    assert payload["certificate"][0]["params"] == {
        "subgraph": ["1^1@3", "2^1@0", "2^1@0"]}


def test_build_over_the_pair_budget_is_an_input_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(qfgraph.graph, "MAX_BUILD_PAIRS", 2)
    path = write_input(tmp_path, 3, COSUBPT)
    for command in ("prime", "real", "classify", "graph"):
        code, out, err = run(capsys, [command, path])
        assert (code, out) == (1, "")
        assert err == "input error: the graph build would examine more than 2 " \
                      "vertex pairs\n"
    code, _, _ = run(capsys, ["factorize", path])
    assert code == 0


def distinct_star(k):
    'a center and k - 1 leaves of distinct colors, all joined to it (odd k)'
    return [{"color": k + 2, "exponent": k, "weight": 1}] + [
        {"color": k + 2 + t, "exponent": 0, "weight": 1} for t in range(2 - k, k - 1, 2)]


@pytest.mark.parametrize("tested, what", [(1560, "end cuts"), (1641, "dual pairs")])
def test_tree_rules_over_the_pair_budget_are_an_input_error(capsys, tmp_path, monkeypatch,
                                                            tested, what):
    """A star of 40 leaves: 40 pairs to build, 40 * 39 end cuts, then 1641 dual
    pairs; no end cut is simple and every dual pair is, so within budget it is prime."""
    path = write_input(tmp_path, 2 * 41 + 3, distinct_star(41))
    monkeypatch.setattr(qfgraph.graph, "MAX_BUILD_PAIRS", tested - 1)
    for command in ("prime", "real"):
        code, out, err = run(capsys, [command, path])
        assert (code, out) == (1, "")
        assert err == f"input error: the tree rules would test more than " \
                      f"{tested - 1} {what}\n"
    for command in ("classify", "graph", "factorize"):
        assert run(capsys, [command, path])[0] == 0
    monkeypatch.setattr(qfgraph.graph, "MAX_BUILD_PAIRS", 1641)
    assert run(capsys, ["prime", path])[:2] == (0, '{"primality": "prime", "reality": "real"}\n')


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    'through main the exact message; as a process, exit 1 and no traceback'
    deeper = tmp_path / "deeper.json"
    deeper.write_text("[" * 200000)
    assert run(capsys, ["prime", str(deeper)]) == (
        1, "", f"input error: JSON in {deeper} is nested too deeply\n")
    path = tmp_path / "deep.json"
    path.write_text('{"rank": 2, "factors": ' + "[" * 100000 + "]" * 100000 + "}")
    src = os.path.dirname(os.path.dirname(qfgraph.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "qfgraph.cli", "prime", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "input error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    'a bad option value, a missing input and an unknown command are input errors'
    for argv in (["rset", "--rank", "x", "--i", "1", "--r", "1", "--j", "1", "--s", "1"],
                 ["prime"], ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 1, argv
        assert err.startswith("input error: qfgraph") and "usage: qfgraph" in err
    for argv in (["--help"], ["prime", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and "usage: qfgraph" in capsys.readouterr().out


def test_closed_stdout_in_process(monkeypatch):
    'a closed pipe gets its descriptor pointed at devnull; an in-memory stdout has none'
    argv = ["rset", "--rank", "2", "--i", "1", "--r", "1", "--j", "2", "--s", "1"]
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 1
        stdout.write("the flush at exit succeeds\n")
        stdout.flush()
        assert os.path.samestat(os.fstat(write), os.stat(os.devnull))

    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(argv) == 1


@pytest.mark.parametrize("argv", [
    ["rset", "--rank", "1", "--i", "1", "--r", "1000000", "--j", "1", "--s", "1000000"],
    ["factorize", "big.json"]])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, argv):
    'the reader takes 10 bytes of output of several megabytes and closes the pipe'
    write_input(tmp_path, 3, [{"color": 1 + k % 3, "exponent": 4 * k, "weight": 1}
                              for k in range(100000)], name="big.json")
    src = os.path.dirname(os.path.dirname(qfgraph.__file__))
    proc = subprocess.Popen([sys.executable, "-m", "qfgraph.cli", *argv], cwd=tmp_path,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


class Full(io.StringIO):
    """A stream on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_full_or_missing_stdout_in_process(capsys, monkeypatch, tmp_path):
    'a stdout that refuses writes, or none at all, is an output error with exit 1'
    path = write_input(tmp_path, 3, COSUBPT)
    for stdout, message in ((Full(), "output error: [Errno 28] "),
                            (None, "output error: stdout is closed\n")):
        monkeypatch.setattr(sys, "stdout", stdout)
        for argv in (["prime", path], ["--help"], ["rset", "--rank", "1", "--i", "1",
                                                   "--r", "1", "--j", "1", "--s", "1"]):
            assert main(argv) == 1, argv
            assert message in capsys.readouterr().err, argv


def test_closed_or_failing_stderr_in_process(capsys, monkeypatch, tmp_path):
    'an error message that stderr refuses, or no stderr at all, changes neither stdout nor exit 1'
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 2, "factors": [')
    argv = ["prime", str(bad)]
    monkeypatch.setattr(sys, "stderr", None)
    assert main(argv) == 1
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as stderr:
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(argv) == 1
        stderr.write("the flush at exit succeeds\n")
        stderr.flush()
        assert os.path.samestat(os.fstat(write), os.stat(os.devnull))

    monkeypatch.setattr(sys, "stderr", Full())  # in memory: no descriptor to point
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def run_redirected(tmp_path, redirect, argv, unbuffered=""):
    'python -m qfgraph.cli argv in tmp_path, with a shell redirection of its own'
    write_input(tmp_path, 3, COSUBPT, name="in.json")
    src = os.path.dirname(os.path.dirname(qfgraph.__file__))
    return subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh",
                           sys.executable, "-m", "qfgraph.cli", *argv],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("redirect", [">/dev/full", ">&-"], ids=["full", "closed"])
@pytest.mark.parametrize("argv", [
    ["prime", "in.json"], ["--help"],
    ["rset", "--rank", "2", "--i", "1", "--r", "1", "--j", "2", "--s", "1"]], ids=" ".join)
def test_full_or_closed_stdout_exits_1_without_a_traceback(tmp_path, argv, redirect,
                                                           unbuffered):
    'the shell points fd 1 at a full device or closes it, buffered or not'
    proc = run_redirected(tmp_path, redirect, argv, unbuffered)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert "output error: " in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stderr_keeps_what_stdout_holds(tmp_path):
    'a note that fails on stderr does not send the buffered verdict to devnull'
    proc = run_redirected(tmp_path, "2>/dev/full", ["prime", "in.json"])
    assert json.loads(proc.stdout) == {"primality": "unknown", "reality": "real"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("redirect", ["2>/dev/full", "2>&-"], ids=["full", "closed"])
def test_full_or_closed_stderr_keeps_stdout_and_the_exit_code(tmp_path, redirect,
                                                              unbuffered):
    'a note or an error message that stderr loses reaches neither stdout nor the exit code'
    (tmp_path / "bad.json").write_text('{"rank": 2, "factors": [')
    proc = run_redirected(tmp_path, redirect, ["prime", "in.json"], unbuffered)
    assert (proc.returncode, proc.stdout) == (
        0, '{"primality": "unknown", "reality": "real"}\n')
    proc = run_redirected(tmp_path, redirect, ["prime", "bad.json"], unbuffered)
    assert (proc.returncode, proc.stdout) == (1, "")


def test_qchar_product_command(capsys):
    code, out, _ = run(capsys, ["qchar-product", "--rank", "2", "--i", "1",
                                "--j", "1", "--m", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["socle_head"]["socle"] == [
        {"color": 2, "exponent": 1, "weight": 1}]
    assert len(payload["dominant"]) == 2


def test_qchar_product_reports_a_socle_pair_that_is_not_simple(capsys, monkeypatch):
    'the socle pair 1@1, 3@1 of 2@0 times 2@2 at rank 3, with its gap 0 put in its set'
    monkeypatch.setattr(qfgraph.qchar, "r_set", lambda *args: range(0, 1))
    argv = ["qchar-product", "--rank", "3", "--i", "2", "--j", "2", "--m", "2"]
    assert run(capsys, argv) == (2, "", "internal invariant violation: socle pair "
                                        "unexpectedly fails the simplicity test\n")


def test_qchar_product_over_the_pair_limit_is_an_input_error():
    'C(21, 10)^2 l-weight pairs: refused before any is multiplied'
    src = os.path.dirname(os.path.dirname(qfgraph.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qfgraph.cli", "qchar-product",
                           "--rank", "20", "--i", "10", "--j", "10", "--m", "2"],
                          capture_output=True, text=True, env=env, timeout=30)
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_qchar_product_at_a_huge_rank_is_refused_at_once():
    'no binomial with millions of digits is computed or printed'
    src = os.path.dirname(os.path.dirname(qfgraph.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qfgraph.cli", "qchar-product",
                           "--rank", "100000000", "--i", "50000000", "--j", "50000000",
                           "--m", "2"], capture_output=True, text=True, env=env, timeout=30)
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 1
    assert proc.stderr == ("input error: the product of fundamentals 50000000 and "
                           "50000000 at rank 100000000 has more than 1000000 "
                           "l-weight pairs\n")
    assert "digits" not in proc.stderr and "Traceback" not in proc.stderr


def test_examples_command(capsys):
    for name in ("newprimex", "cosubpt", "cesubpt"):
        code, out, _ = run(capsys, ["examples", name])
        assert code == 0
        assert "FAIL" not in out
    code, _, err = run(capsys, ["examples", "nosuch"])
    assert code == 1 and "input error" in err


def test_examples_failed_reproduction_exits_2(capsys, monkeypatch):
    class Failed:
        def lines(self):
            return ["FAIL: cosubpt"]

        def all_passed(self):
            return False

    monkeypatch.setattr(qfgraph.fixtures, "run_example", lambda name: Failed())
    code, out, err = run(capsys, ["examples", "cosubpt"])
    assert (code, out, err) == (2, "FAIL: cosubpt\n", "example reproduction failed\n")


def test_assertion_error_exits_2(capsys, monkeypatch, tmp_path):
    def broken(g):
        raise AssertionError("certificate lost a step")

    monkeypatch.setattr(qfgraph.cli, "decide", broken)
    code, out, err = run(capsys, ["prime", write_input(tmp_path, 3, COSUBPT)])
    assert (code, out) == (2, "")
    assert err == "internal invariant violation: certificate lost a step\n"


def test_sweep_command(capsys):
    'every check runs through cli.main at the bounds its flags give'
    for check, bounds, cases in (
            ("forms-agree", ["--max-rank", "2", "--max-weight", "2"], 22),
            ("c3aline", ["--max-rank", "3", "--max-weight", "2"], 44),
            ("dominant-pair", ["--max-rank", "2"], 5),
            ("redsets-algebra", ["--max-rank", "1", "--max-weight", "1"], 3),
            ("redsets-algebra", ["--max-rank", "3", "--max-weight", "2"], 218),
            ("duality", ["--trials", "5"], 5),
            ("confluence", ["--trials", "5", "--seed", "3"], 5)):
        code, out, err = run(capsys, ["sweep", "--check", check] + bounds)
        assert (code, out, err) == (0, f"PASS: {check} ({cases} cases checked)\n", "")
    code, _, err = run(capsys, ["sweep", "--check", "nosuch"])
    assert code == 1 and "unknown check" in err
    # A check never passes on zero cases; flags the check does not read are ignored.
    for check, flag, value in (("forms-agree", "--max-rank", 0),
                               ("c3aline", "--max-weight", 0),
                               ("dominant-pair", "--max-rank", -1),
                               ("redsets-algebra", "--max-weight", 0),
                               ("duality", "--trials", -5),
                               ("confluence", "--trials", 0)):
        code, out, err = run(capsys, ["sweep", "--check", check, flag, str(value)])
        assert (code, out) == (1, "")
        assert err == f"input error: {flag} must be at least 1, got {value}\n"
    code, out, _ = run(capsys, ["sweep", "--check", "dominant-pair", "--max-rank", "1",
                                "--max-weight", "0", "--trials", "0"])
    assert code == 0 and out.startswith("PASS: dominant-pair")


def test_sweep_refuses_bounds_above_caps(capsys):
    'each cap is inclusive; flags the check does not read are not capped'
    max_rank, max_weight = SWEEP_CAPS["max_rank"], SWEEP_CAPS["max_weight"]
    for check, flag, cap in (("forms-agree", "--max-rank", max_rank),
                             ("c3aline", "--max-weight", max_weight),
                             ("dominant-pair", "--max-rank", max_rank),
                             ("duality", "--trials", SWEEP_CAPS["trials"])):
        for value in (cap + 1, 1000 * cap):
            code, out, err = run(capsys, ["sweep", "--check", check, flag, str(value)])
            assert (code, out) == (1, "")
            assert err == f"input error: {flag} must be at most {cap}, got {value}\n"
    code, out, _ = run(capsys, ["sweep", "--check", "c3aline", "--max-rank",
                                str(max_rank), "--max-weight", str(max_weight)])
    assert code == 0 and out.startswith("PASS: c3aline")
    code, out, _ = run(capsys, ["sweep", "--check", "confluence", "--trials", "2",
                                "--max-rank", "1000", "--max-weight", "1000"])
    assert code == 0 and out.startswith("PASS: confluence")


def test_malformed_inputs(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["prime", str(bad)])
    assert code == 1 and "input error" in err

    bad.write_bytes(b"\xff\xfe{")  # not UTF-8: the error names the file too
    code, _, err = run(capsys, ["prime", str(bad)])
    assert code == 1
    assert err.startswith(f"input error: malformed JSON in {bad}: 'utf-8' codec ")

    # An integer past the int-string conversion limit: the file is named too.
    bad.write_text('{"rank": 2, "factors": [{"color": 1, "exponent": 1%s, '
                   '"weight": 1}]}' % ("0" * 4999))
    code, _, err = run(capsys, ["prime", str(bad)])
    assert code == 1
    assert err.startswith(f"input error: malformed JSON in {bad}: Exceeds the limit")

    code, _, err = run(capsys, ["prime", str(tmp_path / "missing.json")])
    assert code == 1

    path = write_input(tmp_path, 2, [])
    code, _, err = run(capsys, ["prime", path])
    assert code == 1 and "non-empty" in err

    path = write_input(tmp_path, 2, [{"color": 5, "exponent": 0, "weight": 1}])
    code, _, err = run(capsys, ["prime", path])
    assert code == 1

    path = write_input(tmp_path, 0, [{"color": 1, "exponent": 0, "weight": 1}])
    code, _, err = run(capsys, ["prime", path])
    assert code == 1


def text_mode_load_input(path):
    """load_input as it was: a text-mode read, then each factor through from_json."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"JSON in {path} is nested too deeply") from exc
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    rank = data.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ValueError("'rank' must be a positive integer")
    raw = data.get("factors")
    if not isinstance(raw, list) or not raw:
        raise ValueError("'factors' must be a non-empty list")
    check_field("'rank'", rank)
    diagram = DynkinA(rank)
    factors = [KRFactor.from_json(item) for item in raw]
    for field, values in zip(KRFactor._fields, zip(*factors)):
        check_field(f"factor field '{field}'", *values)
    for f in factors:
        diagram.check_node(f.color)
    return diagram, factors


def load_outcome(load, path):
    try:
        diagram, factors = load(path)
    except ValueError as exc:
        return "error", str(exc)
    return diagram.n, [(type(f), *f) for f in factors]


def factor_file(factors, rank=3):
    return json.dumps({"rank": rank, "factors": factors}).encode()


GOOD = {"color": 1, "exponent": -4, "weight": 2}


@pytest.mark.parametrize("content", [
    b"\xff{}", b'{"rank": 2, "factors": [' + b" " * 9000 + b"\xc3\x28]}",
    b'{"rank": 2,\r\n "factors": [}', b'{"rank": 2,\r "factors": [}',
    b'{"rank": 2, "factors": [{"color": "a\r\nb"}]}', b'{"rank": 2, "factors": "a\rb"}',
    b"\xef\xbb\xbf" + factor_file([GOOD]), b"", b"\xe2\x82",
    factor_file([GOOD, {"color": 2, "exponent": 3, "weight": 1}]).replace(b", ", b",\r\n"),
    factor_file([GOOD, {"color": 1.0, "exponent": 0, "weight": 1}, {"color": 1}]),
    factor_file([GOOD, {"color": 1, "weight": 1}, {"color": True, "exponent": 0, "weight": 1}]),
    factor_file([GOOD, [1, 2, 3]]), factor_file([None]), factor_file(["color"]),
    factor_file([GOOD, {"color": 0, "exponent": 0, "weight": 1}]),
    factor_file([GOOD, {"color": 1, "exponent": 0, "weight": 0}]),
    factor_file([GOOD, {"color": 4, "exponent": 0, "weight": 1}]),
    factor_file([GOOD, {"color": 4, "exponent": 10 ** 4000, "weight": 1}]),
    factor_file([GOOD, {"color": 1, "exponent": 0, "weight": -10 ** 4000}]),
    factor_file([GOOD, {"color": 1, "exponent": 0, "weight": 2, "extra": []}]),
], ids=["not UTF-8 at 0", "not UTF-8 past 8 KiB", "CRLF before a syntax error",
        "CR before a syntax error", "CRLF in a string", "CR in a string", "BOM", "empty",
        "truncated UTF-8", "valid with CRLF", "type error before a missing key",
        "missing key before a type error", "a list item", "a null item", "a string item",
        "color 0", "weight 0", "color over the rank", "huge exponent over the rank",
        "huge negative weight", "an extra key"])
def test_load_input_reads_what_text_mode_read(tmp_path, content):
    'the same factors, or the same message, as a text-mode read and from_json per item'
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert load_outcome(load_input, str(path)) == load_outcome(text_mode_load_input, str(path))


def test_load_input_on_a_directory_or_a_missing_file(tmp_path):
    for path in (str(tmp_path), str(tmp_path / "missing.json")):
        want = load_outcome(text_mode_load_input, path)
        assert want[0] == "error" and want[1].startswith(f"cannot read {path}: [Errno ")
        assert load_outcome(load_input, path) == want


def test_fields_past_the_print_bound_are_refused(capsys, tmp_path):
    'every field parses, yet the merged weight would have 4301 digits'
    huge = 9 * 10 ** 4299
    path = write_input(tmp_path, 1, [{"color": 1, "exponent": 0, "weight": huge},
                                     {"color": 1, "exponent": huge, "weight": huge}])
    for argv in (["factorize", path], ["graph", path], ["classify", path],
                 ["prime", path], ["prime", path, "--trace"], ["real", path]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert err == "input error: factor field 'exponent' must be below " \
                      "10^4000 in magnitude\n", argv
        assert "set_int_max_str_digits" not in err
    for rank, factor, field in ((10 ** 4000, {"color": 1, "exponent": 0, "weight": 1}, "'rank'"),
                                (2, {"color": 1, "exponent": -10 ** 4000, "weight": 1},
                                 "factor field 'exponent'"),
                                (2, {"color": 1, "exponent": 0, "weight": 10 ** 4000},
                                 "factor field 'weight'"),
                                (2, {"color": 10 ** 4000, "exponent": 0, "weight": 1},
                                 "factor field 'color'")):
        code, _, err = run(capsys, ["prime", write_input(tmp_path, rank, [factor])])
        assert (code, err) == (1, f"input error: {field} must be below 10^4000 "
                                  f"in magnitude\n")
    # One step below the bound still gets an answer.
    edge = write_input(tmp_path, 2, [{"color": 1, "exponent": 1 - 10 ** 4000,
                                      "weight": 10 ** 4000 - 1}])
    code, out, _ = run(capsys, ["factorize", edge])
    assert code == 0 and json.loads(out)["factors"][0]["weight"] == 10 ** 4000 - 1
    nines = "9" * 4300
    for flag in ("rank", "i", "r", "j", "s", "jlo", "jhi"):
        argv = ["rset", "--rank", "1", "--i", "1", "--r", "2", "--j", "1", "--s", "1",
                "--jlo", "1", "--jhi", "1"]
        argv[argv.index(f"--{flag}") + 1] = nines
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, ""), flag
        assert err == f"input error: --{flag} must be below 10^4000 in magnitude\n"
        assert "set_int_max_str_digits" not in err


def test_byte_determinism(capsys, tmp_path):
    path = write_input(tmp_path, 3, COSUBPT)
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, ["prime", path, "--trace"])
        outputs.add(out)
    assert len(outputs) == 1
