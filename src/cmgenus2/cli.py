"""Command-line front end.

Subcommands:
  validate  check a field config and print Q / primitivity
  gen       search for omega with prime norm (elementary method)
  analyze   full report for a given omega: p, Frobenius data, order,
            factorizations, admissible primes, structure candidates
  verify    re-derive the embedded golden examples and pin every fact
  oracle    sample tiny random curves and test the structural claims
            by exhaustive Jacobian enumeration

Exit codes: 0 success, 1 input, usage or validation error, 2 computational
failure (search exhausted, order not factored within budget, too many
candidate structures, closed form disagreeing with its oracle,
inconsistent Jacobian arithmetic, verification mismatch, oracle
counterexample).  ``main`` maps exceptions to exit codes in one place.
All big integers are printed as exact decimal strings in JSON mode.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from . import cmfield, frobenius, golden, integerkit, structure
from .cmfield import Basis, ValidatedField
from .integerkit import is_probable_prime, trial_division
from .primegen import CompositeP, InvalidOmega, make_certificate, negate, search_prime

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2


class ConfigError(ValueError):
    pass


def read_config(path: str) -> tuple[ValidatedField, Basis, tuple[int, int]]:
    """Parse a key-value field config.

    Recognized keys: D, a, b, basis (xi | sqrtD).  Unknown keys are
    rejected.  (a, b) are interpreted in the declared basis; the returned
    field always carries xi-basis parameters.
    """
    text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not part of the first key
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in ("D", "a", "b", "basis"):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val
    for req in ("D", "a", "b"):
        if req not in values:
            raise ConfigError(f"{path}: missing key {req!r}")
    try:
        D, a_in, b_in = int(values["D"]), int(values["a"]), int(values["b"])
    except ValueError as exc:
        raise ConfigError(f"{path}: D, a, b must be integers: {exc}") from None
    basis_name = values.get("basis", "xi")
    try:
        basis = Basis(basis_name)
    except ValueError:
        raise ConfigError(f"{path}: basis must be 'xi' or 'sqrtD', got {basis_name!r}") from None
    a, b, _, _ = cmfield.basis_convert((a_in, b_in, 0, 0), basis, Basis.XI, D)
    return cmfield.validate(D, a, b), basis, (a_in, b_in)


def _stringify(obj):
    """Ints to decimal strings, recursively; keeps 75-digit values exact."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    return obj


def _emit(report: dict, as_json: bool, out=None) -> None:
    out = out or sys.stdout
    if as_json:
        json.dump(_stringify(report), out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        _emit_human(report, out)


def _emit_human(obj, out, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                out.write(f"{pad}{k}:\n")
                _emit_human(v, out, indent + 1)
            else:
                out.write(f"{pad}{k}: {v}\n")
    elif isinstance(obj, list):
        for v in obj:
            out.write(f"{pad}- {v}\n")
    else:
        out.write(f"{pad}{obj}\n")


def _trial_factors_view(n: int) -> dict:
    """n as trial division to the wall splits it, the rest tested once."""
    small, rest = trial_division(n, integerkit.TRIAL_LIMIT)
    if rest > 1 and is_probable_prime(rest):
        small, rest = (*small, (rest, 1)), 1
    view: dict = {"factors": [[q, e] for q, e in small]}
    if rest != 1:
        view["unfactored_cofactor"] = rest
    return view


def field_view(field: ValidatedField, basis: Basis, raw_ab: tuple[int, int]) -> dict:
    view = {
        "D": field.D,
        "a": field.a,
        "b": field.b,
        "input_basis": basis.value,
        "input_a": raw_ab[0],
        "input_b": raw_ab[1],
        "case": "1 mod 4" if field.D % 4 == 1 else "2,3 mod 4",
        "Q": field.Q,
        "primitive": field.primitive,
    }
    if field.D % 4 == 1 and field.b % 2 == 0:
        # the bound evaluated on the sqrt(D)-basis constants, for reference
        a, b, _, _ = cmfield.basis_convert((field.a, field.b, 0, 0), Basis.XI, Basis.SQRT_D, field.D)
        view["Q_sqrtD_basis"] = cmfield.compute_Q(field.D, a, b)
    return view


def cmd_validate(args) -> int:
    field, basis, raw = read_config(args.config)
    report = field_view(field, basis, raw)
    if not field.primitive:
        report["warnings"] = ["field is not primitive: its CM Jacobians are reducible"]
    _emit(report, args.json)
    return EXIT_OK


def cmd_gen(args) -> int:
    field, basis, raw = read_config(args.config)
    cmfield.require_primitive(field)
    cert = search_prime(field, args.bits, args.seed)
    report = {
        "field": field_view(field, basis, raw),
        "omega_xi": list(cert.c),
        "p": cert.p,
        "p_bits": cert.p.bit_length(),
        "gcd_c3_c4": cert.gcd34,
        "seed": args.seed,
    }
    _emit(report, args.json)
    return EXIT_OK


def _parse_omega(text: str) -> tuple[int, int, int, int]:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 4:
        raise ConfigError("omega must be four comma-separated integers")
    try:
        return tuple(int(s) for s in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise ConfigError(f"omega coordinates must be integers: {exc}") from None


def cmd_analyze(args) -> int:
    field, basis, raw = read_config(args.config)
    c_input = _parse_omega(args.omega)
    omega_basis = Basis(args.omega_basis)
    c_xi = cmfield.basis_convert(c_input, omega_basis, Basis.XI, field.D)
    cert = make_certificate(field, c_xi)
    warnings = []
    if not field.primitive:
        warnings.append("field is not primitive: its CM Jacobians are reducible")
    if args.twist:
        cert = negate(cert)
        warnings.append("analyzing the quadratic twist (negated omega)")
    coeffs = frobenius.char_poly(cert)
    N = sum(coeffs)
    an = structure.analyze(cert, N)
    report = {
        "field": field_view(field, basis, raw),
        "omega_input": list(c_input),
        "omega_input_basis": omega_basis.value,
        "omega_xi": list(cert.c),
        "gcd_c3_c4": cert.gcd34,
        "p": cert.p,
        "p_bits": cert.p.bit_length(),
        "p_minus_1": _trial_factors_view(cert.p - 1),
        "frobenius_coeffs": list(coeffs),
        "N": N,
        "twist_order": frobenius.twist_order(coeffs),
        "N_factors": {"factors": [[q, e] for q, e in an.factors]},
        "hasse_weil_ok": frobenius.hasse_weil_check(N, cert.p),
        "admissible_odd_primes": sorted(an.admissible_odd_primes),
        "excluded_odd_primes": {q: list(r) for q, r in sorted(an.exclusions.items())},
        "candidates": [list(c) for c in an.structures.candidates],
        "guaranteed_cyclic": an.structures.guaranteed_cyclic,
        "warnings": warnings,
    }
    _emit(report, args.json)
    return EXIT_OK


def _verify_example(ex: golden.ReferenceExample) -> list[dict]:
    checks: list[dict] = []

    def check(name: str, ok: bool, expected=None, actual=None):
        entry: dict = {"example": ex.name, "check": name, "ok": bool(ok)}
        if not ok:
            entry["expected"] = expected
            entry["actual"] = actual
        checks.append(entry)

    field = cmfield.validate(ex.D, ex.a, ex.b)
    check("field validates and is primitive", field.primitive)
    check("Q", field.Q == ex.expected_Q, ex.expected_Q, field.Q)

    converted = cmfield.basis_convert(ex.omega_printed, ex.printed_basis, Basis.XI, field.D)
    check("basis conversion", converted == ex.omega_xi, ex.omega_xi, converted)

    try:
        cert = make_certificate(field, converted)
    except (InvalidOmega, CompositeP) as exc:
        check("certificate", False, "valid certificate", str(exc))
        return checks
    check("prime", cert.p == ex.p, ex.p, cert.p)
    if cert.p != ex.p:
        return checks

    coeffs = frobenius.char_poly(cert)
    if ex.published_order == sum(coeffs):
        link = "primary"
    elif ex.published_order == frobenius.twist_order(coeffs):
        link = "twist"
    else:
        link = "inconsistent"
    check("order link", link == ex.order_link, ex.order_link, link)

    cert_used = negate(cert) if link == "twist" else cert
    an = structure.analyze(cert_used, ex.published_order)
    check("published order factorization", an.factors == ex.order_factors,
          ex.order_factors, an.factors)
    check("published order in Hasse-Weil range",
          frobenius.hasse_weil_check(ex.published_order, cert.p))
    check("p - 1 factorization", golden.is_factorization_of(ex.pm1_factors, cert.p - 1))
    got = an.structures.candidates
    check("structure candidates", got == ex.expected_candidates, ex.expected_candidates, got)
    check("admissible odd primes empty", an.admissible_odd_primes == frozenset())
    for q, needles in ex.expected_exclusions.items():
        reasons = " | ".join(an.exclusions.get(q, ()))
        for needle in needles:
            check(f"exclusion of {q} mentions {needle!r}", needle in reasons,
                  needle, reasons)
    return checks


def cmd_verify(args) -> int:
    all_checks = [c for ex in golden.EXAMPLES for c in _verify_example(ex)]
    failed = [c for c in all_checks if not c["ok"]]
    passed_examples = len({c["example"] for c in all_checks} - {c["example"] for c in failed})
    if args.json:
        _emit({"checks": all_checks, "failed": len(failed)}, True)
    else:
        for c in all_checks:
            mark = "ok" if c["ok"] else "MISMATCH"
            line = f"[{mark}] {c['example']}: {c['check']}"
            print(line)
            if not c["ok"]:
                print(f"    expected: {c.get('expected')}")
                print(f"    actual:   {c.get('actual')}")
        print(f"{passed_examples}/{len(golden.EXAMPLES)} examples verified")
    return EXIT_OK if not failed else EXIT_COMPUTE


def cmd_oracle(args) -> int:
    from . import cantor  # only the oracle composes divisors
    if not (5 <= args.pmax <= 61):
        raise ValueError("--pmax must be between 5 and 61")
    if args.curves < 1:
        raise ValueError("--curves must be >= 1")
    rng = random.Random(args.seed)
    results = []
    for _ in range(args.curves):
        curve = cantor.random_curve(rng, pmax=args.pmax)
        n_value, factors = cantor.enumerate_jacobian(curve)
        try:
            padded = cantor.padded_invariant_factors(factors)
        except ValueError:
            padded = None
        ok = (padded is not None and (curve.p - 1) % padded[1] == 0
              and frobenius.hasse_weil_check(n_value, curve.p))
        results.append(
            {
                "p": curve.p,
                "f": list(curve.f),
                "order": n_value,
                "invariant_factors": list(factors),
                "padded": list(padded) if padded else None,
                "ok": ok,
            }
        )
        if not ok:
            _emit({"counterexample": results[-1]}, args.json, out=sys.stderr)
            return EXIT_COMPUTE
    summary = {
        "curves": len(results),
        "pmax": args.pmax,
        "seed": args.seed,
        "all_ok": True,
        "orders": [r["order"] for r in results],
    }
    if args.verbose:
        summary["results"] = results
    _emit(summary, args.json)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that ``main`` reports them as input errors."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; each parse fills a fresh namespace."""
    parser = _Parser(
        prog="cmgenus2",
        description="Genus-2 Jacobian parameter generation over quartic CM fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a field config")
    p_val.add_argument("config")
    p_val.add_argument("--json", action="store_true")
    p_val.set_defaults(func=cmd_validate)

    p_gen = sub.add_parser("gen", help="search for omega with prime norm")
    p_gen.add_argument("config")
    p_gen.add_argument("--bits", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--json", action="store_true")
    p_gen.set_defaults(func=cmd_gen)

    p_an = sub.add_parser("analyze", help="full report for a given omega")
    p_an.add_argument("config")
    p_an.add_argument("--omega", required=True,
                      help="c1,c2,c3,c4; write --omega=-7,1,2,1 when c1 is negative")
    p_an.add_argument("--omega-basis", choices=("xi", "sqrtD"), default="xi")
    p_an.add_argument("--twist", action="store_true",
                      help="analyze the quadratic twist (negated omega)")
    # accepted for old command lines; the matrix check always runs
    p_an.add_argument("--check-oracle", action="store_true", help=argparse.SUPPRESS)
    p_an.add_argument("--json", action="store_true")
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="re-derive the embedded golden examples")
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_or = sub.add_parser("oracle", help="test structural claims on random tiny curves")
    p_or.add_argument("--curves", type=int, default=30)
    p_or.add_argument("--pmax", type=int, default=31)
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--verbose", action="store_true")
    p_or.add_argument("--json", action="store_true")
    p_or.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except RuntimeError as exc:
        # SearchExhausted, IncompleteFactorization, CombinatorialBlowup,
        # OracleMismatch and Cantor consistency faults
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
