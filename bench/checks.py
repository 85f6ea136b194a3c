"""Correctness checks on captured CLI outputs, run outside the timed region.

Each check recomputes what it can through an independent path (ring
multiplication for certificates, the multiplication-matrix oracle for
the group order, point counting for the Cantor oracle) and raises
CheckFailed on any disagreement.  Exit 2 is accepted only with the
budget failures of gen and analyze; exit 1 is a benchmark bug.
"""

from __future__ import annotations

import json
import math
import random

from cmgenus2 import cantor, frobenius, integerkit, primegen, quartic

# Exit 2 is a documented budget failure for these commands; for oracle it
# means a counterexample.  A message naming an oracle or a mismatch is a
# wrong result even where the CLI maps it to exit 2.
EXIT2_COMMANDS = ("gen", "analyze")
WRONG_RESULT_WORDS = ("oracle", "mismatch", "counterexample")


class CheckFailed(AssertionError):
    """A CLI output disagrees with what the benchmark recomputes."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_outcome(op, rc: int, out: str, err: str) -> dict | None:
    """Validate exit code and stderr; return the parsed JSON for exit 0."""
    cmd = op.argv[0]
    if rc == 2:
        require(cmd in EXIT2_COMMANDS and out == "" and err.startswith("error:")
                and not any(w in err.lower() for w in WRONG_RESULT_WORDS),
                f"{op.label}: exit 2 is a wrong result here: {err.strip()[:200]}")
        return None
    require(rc == 0, f"{op.label}: exit {rc} (input error means a benchmark bug): "
                     f"{err.strip()[:200]}")
    return json.loads(out)


def check_gen(op, report: dict, fields: dict) -> None:
    field = fields[op.ctx["field"]]
    c = tuple(int(x) for x in report["omega_xi"])
    try:
        cert = primegen.make_certificate(field, c)
    except (primegen.InvalidOmega, primegen.CompositeP) as exc:
        raise CheckFailed(f"{op.label}: certificate rejected: {exc}") from None
    p = int(report["p"])
    require(p == cert.p, f"{op.label}: printed p {p} != norm {cert.p}")
    require(abs(p.bit_length() - op.ctx["bits"]) <= 2,
            f"{op.label}: p has {p.bit_length()} bits, target {op.ctx['bits']}")
    require(int(report["p_bits"]) == p.bit_length(), f"{op.label}: p_bits")
    require(int(report["gcd_c3_c4"]) == cert.gcd34, f"{op.label}: gcd_c3_c4")
    require(int(report["seed"]) == op.ctx["seed"], f"{op.label}: seed not echoed")
    view = report["field"]
    require((int(view["D"]), int(view["a"]), int(view["b"])) == (field.D, field.a, field.b),
            f"{op.label}: wrong field")


def _product(factors) -> int:
    return math.prod(int(q) ** int(e) for q, e in factors)


def check_analyze(op, report: dict, fields: dict) -> None:
    ctx = op.ctx
    p = ctx["p"]
    require(int(report["p"]) == p, f"{op.label}: p")
    require([int(x) for x in report["omega_xi"]] == list(ctx["c"]), f"{op.label}: omega")
    n_value = int(report["N"])
    require(n_value == ctx["N"], f"{op.label}: N {n_value} != matrix oracle {ctx['N']}")
    require(int(report["twist_order"]) == ctx["twist_N"], f"{op.label}: twist order")
    require(report["hasse_weil_ok"] is True and frobenius.hasse_weil_check(n_value, p),
            f"{op.label}: Hasse-Weil")
    nf = report["N_factors"]
    require("unfactored_cofactor" not in nf and _product(nf["factors"]) == n_value,
            f"{op.label}: N factors do not multiply back to N")
    require(all(integerkit.is_probable_prime(int(q)) for q, _ in nf["factors"]),
            f"{op.label}: N factor not prime")
    pm1 = report["p_minus_1"]
    require(_product(pm1["factors"]) * int(pm1.get("unfactored_cofactor", 1)) == p - 1,
            f"{op.label}: p - 1 factors")
    cands = [tuple(int(x) for x in c) for c in report["candidates"]]
    require(bool(cands), f"{op.label}: no candidates")
    for n1, n2, n3, n4 in cands:
        require(n2 % n1 == 0 and n3 % n2 == 0 and n4 % n3 == 0,
                f"{op.label}: {(n1, n2, n3, n4)} is not a divisor chain")
        require(n1 * n2 * n3 * n4 == n_value, f"{op.label}: {(n1, n2, n3, n4)} product != N")
        require((p - 1) % n2 == 0, f"{op.label}: n2 = {n2} does not divide p - 1")
    g = int(report["guaranteed_cyclic"])
    require(g > 0 and all(c[3] % g == 0 for c in cands),
            f"{op.label}: guaranteed_cyclic {g} does not divide every n4")
    expected = ctx.get("expected_candidates")
    if expected is not None:
        require(cands == expected, f"{op.label}: golden candidates differ")


def check_oracle(op, report: dict, fields: dict) -> None:
    require(int(report["curves"]) == 1 and report["all_ok"] is True, f"{op.label}: summary")
    (res,) = report["results"]
    p, f = int(res["p"]), tuple(int(x) for x in res["f"])
    curve = cantor.GenusTwoCurve(p, f)
    expected = cantor.random_curve(random.Random(op.ctx["seed"]), pmax=op.ctx["pmax"])
    require((expected.p, expected.f) == (p, f), f"{op.label}: curve does not match its seed")
    order = int(res["order"])
    require(order == cantor.point_count_order(curve),
            f"{op.label}: enumerated order {order} != point-count order")
    factors = [int(x) for x in res["invariant_factors"]]
    require(math.prod(factors) == order, f"{op.label}: invariant factors != order")
    padded = [int(x) for x in res["padded"]]
    require(len(factors) <= 4 and padded == [1] * (4 - len(factors)) + factors,
            f"{op.label}: padding")
    require(all(b % a == 0 for a, b in zip(padded, padded[1:])),
            f"{op.label}: {padded} is not a divisor chain")
    require((p - 1) % padded[1] == 0, f"{op.label}: n2 = {padded[1]} does not divide p - 1")


CHECKS = {"gen": check_gen, "analyze": check_analyze, "oracle": check_oracle}


def check(op, rc: int, out: str, err: str, fields: dict) -> bool:
    """Check one captured call; True when the op completed with exit 0."""
    report = check_outcome(op, rc, out, err)
    if report is None:
        return False
    CHECKS[op.argv[0]](op, report, fields)
    return True


def analyze_context(field, c: tuple[int, int, int, int], twist: bool) -> dict:
    """Expected values for one analyze op, from independent oracles."""
    cert = primegen.make_certificate(field, c)
    used = tuple(-x for x in c) if twist else c
    coeffs = quartic.char_poly_oracle(quartic.QuarticInt(*used), field)
    return {
        "p": cert.p,
        "c": used,
        "N": sum(coeffs),
        "twist_N": sum(x if i % 2 == 0 else -x for i, x in enumerate(coeffs)),
    }
