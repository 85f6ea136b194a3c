"""Benchmark of the cmgenus2 command line, end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each was chosen):

  gen-128        cmgenus2 gen --bits 128 on the D=2 and D=5 fields
  analyze-mixed  cmgenus2 analyze --check-oracle, with and without --twist,
                 on pinned 64-bit, 128-bit and golden certificates
  oracle-tiny    cmgenus2 oracle --curves 1 --pmax 31, one curve per op

Each op is one call of ``cmgenus2.cli.main`` in this process with its
stdout captured: a closed loop with one caller and no threads.  The
workload seed draws the run's inputs from the pools in bench/pins.json,
balanced on their pinned cost so that every seed gets the same predicted
work.  The timed region runs whole passes over the inputs, at least
MIN_PASSES and more while the next pass is predicted to end within
--seconds.  Times are normalized: a fixed reference loop runs around
and during each op, and the op's time is scaled by the pinned reference
time over the reference times measured, which cancels the host's speed
drift (see normalized_call).  Every output is checked afterwards, and a mismatch aborts
the run with ``"correct": false``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` calls each
op untraced and then traced, and reports the per-module metrics and the
tracing overhead; spans are written to .bench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  ``failed`` counts ops the benchmark
could not complete; an exit 2 of the CLI (budget exhausted) is a checked
answer and shows in success_ratio instead.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS = BENCH_DIR / "pins.json"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 3
MIN_PASSES = 3
SAMPLE_INTERVAL = 0.5
BALANCE_DRAWS = 2000
GEN_BITS = 128
ORACLE_PMAX = 31
# ops drawn per pool cell in one pass; a cell of analyze pins is named
# size/field/exit code, and exit codes are drawn in fixed numbers so that
# success_ratio is the same for every seed
GEN_PICKS = {"D2": 3, "D5": 3}
ANALYZE_PICKS = (
    (("golden/example-1-twist",), 1),
    (("golden/ok",), 1),
    (("64/D2/ok",), 1),
    (("64/D5/ok",), 1),
    (("64/D2/exit2", "64/D5/exit2"), 1),
    (("128/D2/ok",), 1),
    (("128/D5/ok",), 1),
    (("128/D2/exit2", "128/D5/exit2"), 1),
)
ORACLE_PICKS = 18


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package, no pins)."""


@dataclass
class Op:
    label: str
    argv: list[str]
    cost: float = 0.0  # pinned normalized seconds, used only to balance the draw
    ctx: dict = field(default_factory=dict)


@dataclass
class Plan:
    ops: list[Op]
    warmup: Op
    fields: dict


def load_package() -> float:
    """Import cmgenus2 from this checkout's src/ and return the import time."""
    if not (SRC / "cmgenus2" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cmgenus2.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if Path(cmgenus2.cli.__file__).resolve().parent != (SRC / "cmgenus2").resolve():
        raise BenchError(f"cmgenus2 imported from {cmgenus2.cli.__file__}, not {SRC}")
    return elapsed


def call_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """One CLI call with captured output; a traceback becomes exit -1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit:  # argparse rejected the arguments
            rc = 1
        except Exception as exc:  # an uncaught error is a wrong result, checked later
            rc = -1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return rc, out.getvalue(), err.getvalue()


def _groups(items: list[Op], k: int) -> list[list[Op]]:
    ranked = sorted(items, key=lambda op: (op.cost, op.label))
    n = len(ranked)
    return [ranked[i * n // k:(i + 1) * n // k] for i in range(k)]


def _weighted_median(pairs: list[tuple[float, float]]) -> float:
    pairs = sorted(pairs)
    half, acc = sum(w for _, w in pairs) / 2, 0.0
    for value, weight in pairs:
        acc += weight
        if acc >= half:
            return value
    return pairs[-1][0]


def balanced_pick(rng: random.Random, cells: list[tuple[list[Op], int]]) -> list[Op]:
    """Stratified draw of k ops per cell, balanced on pinned cost.

    Each cell is sorted by cost and cut into k groups; one op is drawn
    from each group.  Of BALANCE_DRAWS such draws the one whose total and
    median cost lie closest to the pool's expectation is kept, then
    shuffled, so runs with different seeds do equal predicted work.
    """
    cells = [(items, min(k, len(items))) for items, k in cells if items and k]
    groups = [g for items, k in cells for g in _groups(items, k)]
    target_total = sum(k * statistics.fmean(op.cost for op in items) for items, k in cells)
    target_median = _weighted_median(
        [(op.cost, k / len(items)) for items, k in cells for op in items])
    best: tuple[float, list[Op]] | None = None
    for _ in range(BALANCE_DRAWS):
        picks = [rng.choice(g) for g in groups]
        costs = [op.cost for op in picks]
        score = (abs(sum(costs) / target_total - 1)
                 + abs(statistics.median(costs) / target_median - 1))
        if best is None or score < best[0]:
            best = (score, picks)
    picks = list(best[1])
    rng.shuffle(picks)
    return picks


def write_fields(pins: dict, workdir: Path) -> dict[str, str]:
    paths = {}
    for key, (D, a, b) in pins["fields"].items():
        path = workdir / f"{key}.cfg"
        path.write_text(f"D = {D}\na = {a}\nb = {b}\n", encoding="utf-8")
        paths[key] = str(path)
    return paths


def analyze_argv(cfg_path: str, omega: list[str], twist: bool) -> list[str]:
    # "--omega=" keeps a leading minus sign from reading as an option
    return (["analyze", cfg_path, "--omega=" + ",".join(omega), "--check-oracle", "--json"]
            + (["--twist"] if twist else []))


def oracle_argv(seed: int, pmax: int) -> list[str]:
    return ["oracle", "--curves", "1", "--pmax", str(pmax), "--seed", str(seed),
            "--verbose", "--json"]


def plan_gen(pins: dict, rng: random.Random, cfg: dict[str, str], fields: dict) -> Plan:
    def gen_op(key: str, seed: int, bits: int, cost: float = 0.0) -> Op:
        return Op(f"gen {key} bits={bits} seed={seed}",
                  ["gen", cfg[key], "--bits", str(bits), "--seed", str(seed), "--json"],
                  cost, {"field": key, "bits": bits, "seed": seed})

    cells = [([gen_op(key, s, GEN_BITS, c) for s, c in pins["gen"][key]], k)
             for key, k in GEN_PICKS.items()]
    return Plan(balanced_pick(rng, cells), gen_op("D2", 1, 32), fields)


def plan_analyze(pins: dict, rng: random.Random, cfg: dict[str, str], fields: dict) -> Plan:
    from checks import analyze_context

    cells: dict[str, list[Op]] = {}
    for pin in pins["analyze"]:
        c = tuple(int(x) for x in pin["omega"])
        ctx = analyze_context(fields[pin["field"]], c, pin["twist"])  # re-validates the pin
        if ctx["p"] != int(pin["p"]):
            raise BenchError(f"pin {pin['id']}: norm {ctx['p']} != pinned p")
        if "expected_candidates" in pin:
            ctx["expected_candidates"] = [tuple(int(x) for x in cand)
                                          for cand in pin["expected_candidates"]]
        label = f"analyze {pin['id']}" + (" twist" if pin["twist"] else "")
        argv = analyze_argv(cfg[pin["field"]], pin["omega"], pin["twist"])
        cells.setdefault(pin["cell"], []).append(Op(label, argv, pin["cost"], ctx))
    ops = balanced_pick(rng, [([op for name in names for op in cells.get(name, [])], k)
                              for names, k in ANALYZE_PICKS])
    warmup = min((op for items in cells.values() for op in items), key=lambda op: op.cost)
    return Plan(ops, warmup, fields)


def plan_oracle(pins: dict, rng: random.Random, cfg: dict[str, str], fields: dict) -> Plan:
    def oracle_op(seed: int, pmax: int, cost: float = 0.0) -> Op:
        return Op(f"oracle pmax={pmax} seed={seed}", oracle_argv(seed, pmax), cost,
                  {"seed": seed, "pmax": pmax})

    pool = [oracle_op(s, ORACLE_PMAX, c) for s, c in pins["oracle"]]
    return Plan(balanced_pick(rng, [(pool, ORACLE_PICKS)]), oracle_op(1, 7), fields)


WORKLOADS = {"gen-128": plan_gen, "analyze-mixed": plan_analyze, "oracle-tiny": plan_oracle}


def setup(workload: str, seed: int, workdir: Path) -> Plan:
    """Load and validate pins, draw inputs, write configs, warm up."""
    from cmgenus2 import cli, cmfield

    import checks

    pins = json.loads(PINS.read_text(encoding="utf-8"))
    fields = {key: cmfield.validate(*dab) for key, dab in pins["fields"].items()}
    cfg = write_fields(pins, workdir)
    plan = WORKLOADS[workload](pins, random.Random(seed), cfg, fields)
    checks.check(plan.warmup, *call_cli(cli.main, plan.warmup.argv), fields)
    return plan


def reference_work() -> int:
    """A fixed slice of pure-Python work in the package's two instruction
    mixes: small-integer polynomial products mod 31 (as in Cantor
    arithmetic) and 256-bit modular squaring (as in rho).  It never
    changes, so its time measures the speed of the host at that moment."""
    a, acc = [1, 2, 3, 4, 5, 6], 0
    for i in range(400):
        b = [(x * (i + 3) + 1) % 31 for x in a]
        out = [0] * 11
        for j, x in enumerate(a):
            for k, y in enumerate(b):
                out[j + k] = (out[j + k] + x * y) % 31
        a = out[:6] if out[5] else [1] + out[:5]
        acc += out[0]
    n, y = (1 << 255) - 19, 3
    for _ in range(6000):
        y = (y * y + 1) % n
    return acc + y


def reference_s() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def normalized_call(fn, nominal: float):
    """Call fn() and return its result and its time in seconds at the
    reference speed: elapsed time scaled by nominal over the mean time of
    the reference work, run before, after and every SAMPLE_INTERVAL
    seconds during the call (from a SIGALRM handler, whose own time is
    not counted).

    Other tenants of a shared host change its speed by up to 1.5x for
    stretches of 5 to 20 s, in CPU time as much as in wall time; sampling
    the speed through the call cancels most of that, long calls included.
    """
    refs = [reference_s()]
    paused = 0.0

    def sample(signum, frame):
        nonlocal paused
        t0 = time.perf_counter()
        refs.append(reference_s())
        paused += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    refs.append(reference_s())
    return result, (elapsed - paused) * nominal / statistics.fmean(refs)


def run_passes(ops: list[Op], seconds: float, main, nominal: float,
               min_passes: int = MIN_PASSES) -> tuple[list, list[float], float]:
    """Whole passes over ops: at least min_passes, then more while the
    next one is predicted to end within seconds.

    Returns every (op, outcome), each op's median normalized time over
    the passes, and the wall time.
    """
    results = []
    samples: list[list[float]] = [[] for _ in ops]
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            outcome, seconds_at_ref = normalized_call(lambda: call_cli(main, op.argv), nominal)
            results.append((op, outcome))
            samples[i].append(seconds_at_ref)
        passes += 1
        now = time.perf_counter()
        if passes >= min_passes and now - start + (now - pass_start) > seconds:
            return results, [statistics.median(s) for s in samples], now - start


def check_all(results: list, fields: dict, corrupt: bool) -> int:
    """Check every captured output; return how many completed with exit 0."""
    import checks

    if corrupt:
        results = [(op, (rc, _corrupt(op, out) if rc == 0 else out, err))
                   for op, (rc, out, err) in results]
    return sum(checks.check(op, rc, out, err, fields) for op, (rc, out, err) in results)


def _corrupt(op: Op, out: str) -> str:
    """Negative control: a wrong certificate, candidate or group order."""
    report = json.loads(out)
    if op.argv[0] == "gen":
        report["omega_xi"][0] = str(int(report["omega_xi"][0]) + 1)
    elif op.argv[0] == "analyze":
        n1, n2, n3, n4 = report["candidates"][-1]
        report["candidates"][-1] = [n1, n2, n3, str(int(n4) * 2)]
    else:
        report["results"][0]["order"] = str(int(report["results"][0]["order"]) + 1)
    return json.dumps(report)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_timed(plan: Plan, seconds: float, nominal: float, setup_s: float,
              corrupt: bool) -> dict:
    from cmgenus2 import cli

    results, times, wall = run_passes(plan.ops, seconds, cli.main, nominal)
    attempted = len(results)
    completed = check_all(results, plan.fields, corrupt)
    print(f"passes {attempted // len(plan.ops)} x {len(plan.ops)} ops, wall {wall:.3f} s, "
          f"raw {attempted / wall:.4f} ops/s")
    print(f"fail_ratio {(attempted - completed) / attempted:.6g} ratio (CLI exit 2; "
          f"reported as success_ratio)")
    return {
        "attempted": attempted,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "latency_p50_s": (statistics.median(times), "s"),
            "success_ratio": (completed / attempted, "ratio"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        },
    }


def run_traced(plan: Plan, workload: str, seed: int, corrupt: bool) -> dict:
    from cmgenus2 import cli

    import tracing

    # Each op runs untraced, then traced, back to back, so that both see
    # the same speed of the host and their time ratio is the overhead.
    tracer = tracing.Tracer()
    untraced, traced = [], []
    untraced_wall = traced_wall = 0.0
    for i, op in enumerate(plan.ops):
        t0 = time.perf_counter()
        untraced.append((op, call_cli(cli.main, op.argv)))
        t1 = time.perf_counter()
        tracer.install()
        try:
            traced.append((op, call_cli(functools.partial(tracer.call_op, i, cli.main), op.argv)))
        finally:
            tracer.uninstall()
        untraced_wall += t1 - t0
        traced_wall += time.perf_counter() - t1
    check_all(untraced + traced, plan.fields, corrupt)
    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    if tracer.absent:
        print("absent (reported as 0): " + ", ".join(tracer.absent))
    values = tracer.metrics()
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    units = dict(tracing.per_layer_names())
    return {
        "attempted": len(untraced) + len(traced),
        "metrics": {name: (values[name], unit) for name, unit in units.items()},
    }


def result_line(correct: bool, attempted: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test-corrupt", action="store_true",
                        help="negative control: corrupt outputs before checking them")
    args = parser.parse_args(argv)

    try:
        import_s = load_package()
        if not PINS.is_file():
            raise BenchError(f"missing {PINS}")
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import checks

    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 caller; "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    attempted = 0
    try:
        nominal = json.loads(PINS.read_text(encoding="utf-8"))["reference_s"]  # unit of time
        setup_times = []
        for _ in range(SETUP_REPEATS):
            plan, seconds_at_ref = normalized_call(
                lambda: setup(args.workload, args.seed, workdir), nominal)
            setup_times.append(seconds_at_ref)
        setup_s = import_s + statistics.median(setup_times)
        attempted = len(plan.ops)
        if args.trace:
            res = run_traced(plan, args.workload, args.seed, args.self_test_corrupt)
        else:
            res = run_timed(plan, args.seconds, nominal, setup_s, args.self_test_corrupt)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(result_line(False, max(attempted, 1), {}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in res["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(result_line(True, res["attempted"], res["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
