#!/usr/bin/env python3
"""The qfgraph benchmark.

    python3 perfbench/run.py --workload tree-verdicts --seed 1 --seconds 20 --trace 0

Runs one workload against the working tree's src/ (never an installed
qfgraph), checks every output against the closed forms in closedform.py,
and prints as its last line one JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import closedform as cf
import corpus
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("tree-verdicts", "wide-inputs", "acceptance-sweeps")
SPAWN_EVERY_S = 0.6
MIN_SPAWNS = 24
TAIL_BEYOND = 10
SPAWN_TIMEOUT_S = 60

# The acceptance suite's bounds (tests/test_acceptance.py).
SWEEPS = {
    "forms-agree": {"max_rank": 6, "max_weight": 4},
    "c3aline": {"max_rank": 6, "max_weight": 4},
    "dominant-pair": {"max_rank": 6},
    "redsets-algebra": {"max_rank": 8, "max_weight": 5},
    "duality": {"trials": 1000, "seed": 2024},
    "confluence": {"trials": 1000, "seed": 7},
}


class Op:
    """One request of a workload: run() calls the program, check() judges the
    first output independently; later outputs must equal the first."""

    def __init__(self, name: str, run, check) -> None:
        self.name, self.run, self.check = name, run, check
        self.first = None
        self.latencies: list[float] = []


# -- requests through cli.main -------------------------------------------------

class CliFailure(RuntimeError):
    """cli.main returned a nonzero exit code: the request failed."""


def call_cli(argv: list[str]) -> str:
    import qfgraph.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qfgraph.cli.main(argv)
    if code != 0:
        raise CliFailure(f"exit code {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def write_input(work: Path, item: dict) -> str:
    path = work / f"{item['name']}.json"
    payload = {"rank": item["rank"],
               "factors": [{"color": c, "exponent": e, "weight": w}
                           for c, e, w in item["factors"]]}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def check_tree_verdict(item: dict, verdict: dict) -> list[str]:
    """Verdict on a fixture or a dissociate tree, judged by closed forms."""
    problems = []
    if "expect" in item:
        got = {k: verdict.get(k) for k in ("primality", "reality")}
        if got != item["expect"]:
            problems.append(f"fixture verdict {got}, expected {item['expect']}")
        return problems
    n, factors = item["rank"], [tuple(f) for f in item["factors"]]
    adj, arrows = cf.adjacency(n, factors)
    if not cf.is_tree(adj):
        return [f"generated input is not a tree: {factors}"]
    primality, reality = verdict.get("primality"), verdict.get("reality")
    if reality != "real":
        problems.append(f"tree reality {reality}, expected real")
    simple = cf.simple_triples(n, factors, adj, arrows)
    steps = verdict.get("certificate") or [{}]
    rule = steps[0].get("rule")
    if primality == "not_prime":
        if not simple:
            problems.append("not_prime without a simple alternating triple")
        elif rule == "subgraph_not_prime":
            named = set(steps[0]["params"]["subgraph"])
            if named not in [{cf.label(factors[v]) for v in t} for t in simple]:
                problems.append(f"certified subgraph {sorted(named)} is not a "
                                f"simple alternating triple")
        elif rule != "alt_line_cut" or len(factors) != 3:
            problems.append(f"not_prime certified by {rule}")
    elif primality == "prime":
        if simple:
            problems.append("prime although a simple alternating triple exists")
        if rule == "dual_pairs_simple" and not cf.dual_pairs_simple(n, factors, adj):
            problems.append("dual_pairs_simple certified but a dual pair is not simple")
    elif primality != "unknown":
        problems.append(f"primality {primality!r}")
    if item["family"] == "hard" and primality == "not_prime":
        problems.append("hard tree decided not_prime")
    return problems


def tree_ops(work: Path, seed: int) -> list[Op]:
    ops = []
    for item in corpus.tree_corpus(seed):
        path = write_input(work, item)

        def run(path=path):
            return call_cli(["prime", "--trace", path])

        def check(out, item=item):
            return check_tree_verdict(item, json.loads(out))

        ops.append(Op(item["name"], run, check))
    return ops


def check_wide(item: dict, factorize_out, prime_out) -> list[str]:
    """Factorization by its defining properties, then the verdict by the
    closed-form components and tree test of that factorization."""
    problems = []
    n, given = item["rank"], [tuple(f) for f in item["factors"]]
    vertices = given
    if factorize_out is not None:
        data = json.loads(factorize_out)
        vertices = [(f["color"], f["exponent"], f["weight"]) for f in data["factors"]]
        if cf.roots(vertices) != cf.roots(given):
            problems.append("q-factorization changed the root multiset")
        if not cf.dissociate(vertices):
            problems.append("q-factorization has a linked same-color pair")
        if data["was_refactorized"] != (not cf.dissociate(given)):
            problems.append(f"was_refactorized is {data['was_refactorized']}")
    elif not cf.dissociate(given):
        return [f"generated input {item['name']} is not dissociate"]
    verdict = json.loads(prime_out)
    adj, _ = cf.adjacency(n, vertices)
    split = cf.component_count(adj) > 1
    rule = (verdict.get("certificate") or [{}])[0].get("rule")
    if split != (verdict.get("primality") == "not_prime" and rule == "disconnected"):
        problems.append(f"primality {verdict.get('primality')} by {rule}, "
                        f"components split: {split}")
    if cf.is_tree(adj) != (verdict.get("reality") == "real"):
        problems.append(f"reality {verdict.get('reality')} on a graph whose tree "
                        f"test is {cf.is_tree(adj)}")
    return problems


def wide_ops(work: Path, seed: int) -> list[Op]:
    ops = []
    for item in corpus.wide_corpus(seed):
        path = write_input(work, item)

        def run(path=path, factorize=item["factorize"]):
            first = call_cli(["factorize", path]) if factorize else None
            return first, call_cli(["prime", "--trace", path])

        def check(out, item=item):
            return check_wide(item, *out)

        ops.append(Op(item["name"], run, check))
    return ops


def sweep_ops() -> list[Op]:
    """One op: a pass over the six sweeps at the acceptance bounds, which is
    what a developer runs.  Those bounds fix the inputs, so the seed does not
    change this workload."""
    from qfgraph.sweeps import CHECKS
    expected = {
        "forms-agree": cf.count_alt_line_configs(6, 4),
        "c3aline": cf.count_linked_pairs(6, 4),
        "dominant-pair": cf.count_dominant_pairs(6),
        "redsets-algebra": cf.count_redsets_cases(8, 5),
        "duality": SWEEPS["duality"]["trials"],
        "confluence": SWEEPS["confluence"]["trials"],
    }

    def run():
        out = {}
        for name, kwargs in SWEEPS.items():
            result = CHECKS[name](**kwargs)
            out[name] = (result.checked, result.lines())
        return out

    def check(out):
        problems = []
        for name, (checked, lines) in out.items():
            if not lines[0].startswith("PASS"):
                problems += lines
            if checked != expected[name]:
                problems.append(f"{name} checked {checked}, expected {expected[name]}")
        return problems

    return [Op("acceptance-sweeps", run, check)]


# -- spawned processes ------------------------------------------------------------

IMPORT_PROBE = ("import time\n"
                "t = time.perf_counter()\n"
                "import qfgraph.cli\n"
                "print(time.perf_counter() - t, qfgraph.cli.__file__)\n")


class Spawner:
    """Fresh interpreters, alternating an import probe (set-up time measured
    inside the child) and a `python -m qfgraph.cli prime --trace` process on
    the next fixture (wall time, verdict checked).  They are spread over the
    measured window so that both see the same machine as the workload."""

    def __init__(self, work: Path) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.fixtures = [(item, write_input(work, item))
                         for item in corpus.fixture_inputs()]
        self.setup_s: list[float] = []
        self.cli_s: list[float] = []
        self.problems: list[str] = []
        self.count = 0

    def _spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=SPAWN_TIMEOUT_S)

    def probe(self) -> float:
        done = self._spawn(["-c", IMPORT_PROBE])
        done.check_returncode()
        seconds, origin = done.stdout.split()
        if not Path(origin).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported qfgraph from {origin}, not {SRC}")
        return float(seconds)

    def next(self) -> None:
        self.count += 1
        if self.count % 2:
            self.setup_s.append(self.probe())
            return
        item, path = self.fixtures[(self.count // 2) % len(self.fixtures)]
        start = time.perf_counter()
        done = self._spawn(["-m", "qfgraph.cli", "prime", "--trace", path])
        self.cli_s.append(time.perf_counter() - start)
        if done.returncode != 0:
            self.problems.append(f"cli process {item['name']}: exit code "
                                 f"{done.returncode}")
            return
        try:
            self.problems += [f"cli process {item['name']}: {p}" for p in
                              check_tree_verdict(item, json.loads(done.stdout))]
        except (KeyError, TypeError, ValueError) as exc:
            self.problems.append(f"cli process {item['name']}: unreadable output: {exc}")


# -- rounds --------------------------------------------------------------------

class Run:
    def __init__(self, ops: list[Op], spawner: Spawner | None = None) -> None:
        self.ops = ops
        self.spawner = spawner
        self.window_start = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def round(self, timed: bool, tracer: Tracer | None = None) -> float:
        """One pass over every op; returns the summed op latency.  In a timed
        round the spawner catches up with its schedule after each op."""
        busy = 0.0
        for op in self.ops:
            self.attempted += 1
            span = tracer.span(f"request.{op.name}") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                self.problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            busy += elapsed
            if timed:
                op.latencies.append(elapsed)
            if op.first is None:
                op.first = out
                try:
                    self.problems += [f"{op.name}: {p}" for p in op.check(out)]
                except (KeyError, TypeError, ValueError) as exc:
                    self.problems.append(f"{op.name}: unreadable output: {exc}")
            elif out != op.first:
                self.problems.append(f"{op.name}: output differs between rounds")
            if timed and self.spawner:
                due = (time.perf_counter() - self.window_start) / SPAWN_EVERY_S
                while self.spawner.count < due:
                    self.spawner.next()
        return busy


# -- metrics -------------------------------------------------------------------

def tail(values: list[float]) -> float:
    """The value with TAIL_BEYOND values above it: the highest percentile with
    ten samples beyond it.  Under 40 samples that percentile is no tail, and
    the median stands in for it."""
    ordered = sorted(values)
    if len(ordered) < 4 * TAIL_BEYOND:
        return statistics.median(ordered)
    return ordered[len(ordered) - 1 - TAIL_BEYOND]


def end_to_end(run: Run, round_busy: list[float], setup_s: float,
               cli_ms: float) -> dict:
    medians = [statistics.median(op.latencies) for op in run.ops if op.latencies]
    ops = sum(len(op.latencies) for op in run.ops)
    busy = sum(sum(op.latencies) for op in run.ops)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / busy, "1/s"),
        "op_p50_ms": (statistics.median(medians) * 1e3, "ms"),
        "op_tail_ms": (tail(medians) * 1e3, "ms"),
        "round_s": (statistics.median(round_busy), "s"),
        "cli_process_ms": (cli_ms * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


COUNTED = [
    ("redsets.r_set", "calls"), ("redsets.r_set", "self_s"), ("redsets.r_set", "elements"),
    ("redsets.string_parameter", "calls"), ("redsets.string_parameter", "self_s"),
    ("redsets.minimal_window", "calls"),
    ("drinfeld.q_factorize", "calls"), ("drinfeld.q_factorize", "self_s"),
    ("drinfeld.q_factorize", "roots"),
    ("drinfeld.is_dissociate", "calls"), ("drinfeld.is_dissociate", "self_s"),
    ("drinfeld.expand_all", "self_s"),
    ("graph.build_graph", "calls"), ("graph.build_graph", "self_s"),
    ("graph.build_graph", "pairs"), ("graph.build_graph", "arrows"),
    ("graph.induced", "calls"),
    ("graph.components", "calls"), ("graph.components", "self_s"),
    ("graph.is_totally_ordered", "calls"), ("graph.is_totally_ordered", "self_s"),
    ("graph.classify", "self_s"),
    ("decision.is_prime", "calls"), ("decision.is_prime", "self_s"),
    ("decision.alt_line_cut_simple", "calls"), ("decision.alt_line_cut_simple", "self_s"),
    ("decision.dual_pair_simple", "calls"), ("decision.is_real", "self_s"),
    ("qchar.fundamental_qchar", "calls"), ("qchar.fundamental_qchar", "self_s"),
    ("qchar.fundamental_qchar", "lweights"),
    ("qchar.dominant_product_lweights", "self_s"), ("qchar.socle_head", "self_s"),
    ("cli.load_input", "self_s"), ("cli.emit", "self_s"), ("cli.emit", "bytes"),
]


def per_layer(tracer: Tracer, traced_rounds: int, traced: list[float],
              plain: list[float]) -> dict:
    """Per-layer totals per traced round of the workload's corpus."""
    out = {}
    for name, what in COUNTED:
        unit = "s" if what == "self_s" else "count"
        out[f"{name}.{what}"] = (tracer.total(name, what) / traced_rounds, unit)
    top = tracer.total("decision.is_prime", "top")
    nested = tracer.total("decision.is_prime", "calls") - top
    out["decision.is_prime.subgraphs_per_verdict"] = (nested / top if top else 0.0,
                                                      "count/verdict")
    out["dynkin.intervals_built"] = (tracer.intervals / traced_rounds, "count")
    for name in SWEEPS:
        key = f"sweeps.{name}"
        out[f"{key}.s"] = (tracer.total(key, "wall_s") / traced_rounds, "s")
        out[f"{key}.cases"] = (tracer.total(key, "cases") / traced_rounds, "count")
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    out["trace.overhead_pct"] = (overhead * 100, "%")
    out["trace.spans"] = ((len(tracer.span_start) + tracer.dropped) / traced_rounds,
                          "count")
    return out


# -- main ------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qfgraph" / "cli.py").is_file():
        print(f"error: no qfgraph sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qfgraph
    if not Path(qfgraph.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported qfgraph from {qfgraph.__file__}", file=sys.stderr)
        return 2
    import qfgraph.cli  # noqa: F401  (the entry point every request goes through)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    spawner = None if args.trace else Spawner(work)
    if spawner:
        spawner.probe()  # untimed: the first import writes the bytecode cache
    if args.workload == "tree-verdicts":
        ops = tree_ops(work, args.seed)
    elif args.workload == "wide-inputs":
        ops = wide_ops(work, args.seed)
    else:
        ops = sweep_ops()
    run = Run(ops, spawner)
    run.round(timed=False)  # warm-up: fills caches, checks every output

    tracer = Tracer() if args.trace else None
    plain: list[float] = []
    traced: list[float] = []
    run.window_start = time.perf_counter()
    while True:
        if tracer and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(run.round(timed=False, tracer=tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(run.round(timed=True))
        if time.perf_counter() - run.window_start >= args.seconds and \
                (not tracer or traced):
            break
    while spawner and spawner.count < MIN_SPAWNS:
        spawner.next()

    problems = run.problems + (spawner.problems if spawner else [])
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    if tracer:
        metrics = per_layer(tracer, len(traced), traced, plain)
        spans = tracer.write_spans(OUT / f"trace-{args.workload}.tsv.gz",
                                   f"workload={args.workload} seed={args.seed}")
        print(f"{args.workload}: {len(traced)} traced and {len(plain)} untraced "
              f"rounds, {spans} spans kept, {tracer.dropped} over the cap")
    else:
        metrics = end_to_end(run, plain, statistics.median(spawner.setup_s),
                             statistics.median(spawner.cli_s))
        print(f"{args.workload}: {len(plain)} timed rounds of {len(run.ops)} ops, "
              f"{spawner.count} spawned interpreters")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
