"""Regenerate bench/pins.json, the benchmark's input pools.

    python3 bench/regen_pins.py

Run it on purpose only, for instance after a change to ``gen`` moves
its certificates; the analyze pins stay fixed otherwise.  It takes about
fifteen minutes on a 2-core machine.

The pools:
  gen       gen seeds 0-19 per field at 128 bits
  analyze   certificates from gen at 64 and 128 bits (seeds 0-11 per
            field), both orientations, plus the two golden elements; each
            pin is filed in a cell by size, field and exit code
  oracle    oracle seeds 0-95 at pmax 31

Every entry carries its cost: the median of two calls, timed as run.py
times them, in seconds at the speed given by ``reference_s`` (the
median time of run.reference_work here).  run.py uses costs only to
draw inputs of equal predicted work.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys

import run

GEN_SEEDS = range(20)
ANALYZE_SEEDS = range(12)
ANALYZE_BITS = (64, 128)
ORACLE_SEEDS = range(96)
FIELDS = {"D2": (2, 2, 1), "D5": (5, 6, 2)}
ROUNDS = 2
REFERENCE_RUNS = 50


def measure(main, jobs: list[list[str]], nominal: float) -> list[tuple[int, str, float]]:
    """Run every job ROUNDS times, interleaved, timed as in run.py; keep
    exit code, output and the median normalized time."""
    ops = [run.Op(" ".join(argv), argv) for argv in jobs]
    results, times, _ = run.run_passes(ops, 0.0, main, nominal, ROUNDS)
    first: dict[int, tuple[int, str]] = {}
    for op, (rc, out, err) in results:
        if rc not in (0, 2) or first.setdefault(id(op), (rc, out))[0] != rc:
            sys.exit(f"{op.argv}: exit {rc}: {err}")
    return [(*first[id(op)], round(t, 4)) for op, t in zip(ops, times)]


def main() -> None:
    run.load_package()
    from cmgenus2 import cli, golden

    workdir = run.OUT_DIR / "regen"
    workdir.mkdir(parents=True, exist_ok=True)
    nominal = statistics.median(run.reference_s() for _ in range(REFERENCE_RUNS))
    pins: dict = {"reference_s": round(nominal, 6), "fields": FIELDS,
                  "gen": {key: [] for key in FIELDS}, "analyze": [], "oracle": []}
    cfg = run.write_fields(pins, workdir)

    # (id, field, omega, p, cell prefix); the cell adds the exit code
    certs: list[tuple[str, str, list[str], str, str]] = []
    for ex in golden.EXAMPLES:
        key = next(k for k, v in FIELDS.items() if v == (ex.D, ex.a, ex.b))
        certs.append((ex.name, key, [str(x) for x in ex.omega_xi], str(ex.p), "golden"))
    gen_jobs = [(key, bits, seed) for key in FIELDS for bits in ANALYZE_BITS
                for seed in (GEN_SEEDS if bits == run.GEN_BITS else ANALYZE_SEEDS)]
    gen_runs = measure(cli.main, [["gen", cfg[key], "--bits", str(bits), "--seed", str(seed),
                                   "--json"] for key, bits, seed in gen_jobs], nominal)
    for (key, bits, seed), (rc, out, cost) in zip(gen_jobs, gen_runs):
        if rc != 0:
            sys.exit(f"gen {key} --bits {bits} --seed {seed} exhausted its budget")
        report = json.loads(out)
        if bits == run.GEN_BITS:
            pins["gen"][key].append([seed, cost])
        if seed in ANALYZE_SEEDS:
            certs.append((f"{key}-{bits}-s{seed}", key, report["omega_xi"], report["p"],
                          f"{bits}/{key}"))
    print("gen pool done", file=sys.stderr)

    example1 = golden.EXAMPLES[0]
    an_jobs = [(cert, twist) for cert in certs for twist in (False, True)]
    an_runs = measure(cli.main, [run.analyze_argv(cfg[cert[1]], cert[2], twist)
                                 for cert, twist in an_jobs], nominal)
    for ((pin_id, key, omega, p, prefix), twist), (rc, _, cost) in zip(an_jobs, an_runs):
        pin = {"id": pin_id, "field": key, "omega": omega, "p": p, "twist": twist,
               "cost": cost, "cell": f"{prefix}/{'ok' if rc == 0 else 'exit2'}"}
        if pin_id == example1.name and twist == (example1.order_link == "twist"):
            pin["cell"] = "golden/example-1-twist"
            pin["expected_candidates"] = [[str(n) for n in c]
                                          for c in example1.expected_candidates]
        pins["analyze"].append(pin)
    print("analyze pool done", file=sys.stderr)

    or_runs = measure(cli.main, [run.oracle_argv(seed, run.ORACLE_PMAX)
                                 for seed in ORACLE_SEEDS], nominal)
    pins["oracle"] = [[seed, cost] for seed, (_, _, cost) in zip(ORACLE_SEEDS, or_runs)]
    shutil.rmtree(workdir, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.PINS}", file=sys.stderr)


if __name__ == "__main__":
    main()
