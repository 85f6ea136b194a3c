import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from cmgenus2 import cantor, frobenius, golden, integerkit, primegen, structure
from cmgenus2.cli import build_parser, main


@pytest.fixture
def field2_cfg(tmp_path):
    cfg = tmp_path / "field2.cfg"
    cfg.write_text("# reference field\nD = 2\na = 2\nb = 1\n", encoding="utf-8")
    return str(cfg)


@pytest.fixture
def field5_cfg(tmp_path):
    cfg = tmp_path / "field5.cfg"
    cfg.write_text("D = 5\na = 7\nb = 1\nbasis = sqrtD\n", encoding="utf-8")
    return str(cfg)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_validate_ok(capsys, field2_cfg):
    rc, report = run_json(capsys, ["validate", field2_cfg, "--json"])
    assert rc == 0
    assert report["Q"] == "2"
    assert report["primitive"] is True


def test_validate_config_with_bom(tmp_path, capsys, field2_cfg):
    # editors that save UTF-8 with a byte-order mark must not break the first key
    bom = tmp_path / "field2-bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(field2_cfg).read_bytes())
    assert run_json(capsys, ["validate", str(bom), "--json"]) == \
        run_json(capsys, ["validate", field2_cfg, "--json"])


def test_validate_sqrtd_basis_config(capsys, field5_cfg):
    rc, report = run_json(capsys, ["validate", field5_cfg, "--json"])
    assert rc == 0
    assert (report["a"], report["b"]) == ("6", "2")
    assert report["Q"] == "176"
    assert report["Q_sqrtD_basis"] == "220"


def test_validate_rejects_d_off_the_allowlist(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("D = 4\na = 1\nb = 1\n", encoding="utf-8")
    assert main(["validate", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: D=4 is not on the class-number-one allowlist "
        "[2, 3, 5, 6, 7, 11, 13, 17, 19, 21, 29, 33, 37, 41, 57, 73]\n"
    )


def test_validate_non_primitive_warns(tmp_path, capsys):
    cfg = tmp_path / "np.cfg"
    cfg.write_text("D = 2\na = 2\nb = 0\n", encoding="utf-8")
    rc, report = run_json(capsys, ["validate", str(cfg), "--json"])
    assert rc == 0
    assert report["primitive"] is False
    assert report["warnings"]


def test_validate_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "unk.cfg"
    cfg.write_text("D = 2\na = 2\nb = 1\nmode = fast\n", encoding="utf-8")
    assert main(["validate", str(cfg)]) == 1


def test_validate_missing_key(tmp_path, capsys):
    cfg = tmp_path / "miss.cfg"
    cfg.write_text("D = 2\na = 2\n", encoding="utf-8")
    assert main(["validate", str(cfg)]) == 1


@pytest.mark.parametrize("config, omega, problem", [
    ("D = 2\na 2\nb = 1\n", "7,-1,2,1", ":2: expected key = value"),
    ("D = 2\na = 2\nb = 1\na = 3\n", "7,-1,2,1", ":4: duplicate key 'a'"),
    ("D = two\na = 2\nb = 1\n", "7,-1,2,1", "D, a, b must be integers"),
    ("D = 2\na = 2\nb = 1\nbasis = eta\n", "7,-1,2,1",
     "basis must be 'xi' or 'sqrtD', got 'eta'"),
    ("D = 2\na = 2\nb = 1\n", "7,-1,2", "omega must be four comma-separated integers"),
    ("D = 2\na = 2\nb = 1\n", "7,-1,x,1", "omega coordinates must be integers"),
], ids=["no-equals", "duplicate-key", "non-integer-D", "unknown-basis", "three-coordinates",
        "non-integer-coordinate"])
def test_config_and_omega_input_errors(tmp_path, capsys, config, omega, problem):
    cfg = tmp_path / "field.cfg"
    cfg.write_text(config, encoding="utf-8")
    assert main(["analyze", str(cfg), f"--omega={omega}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and problem in lines[0], lines


@pytest.mark.parametrize(
    "argv", [["validate"], ["gen", "--bits", "24"], ["analyze", "--omega", "7,-1,2,1"]]
)
def test_missing_config_is_input_error(tmp_path, capsys, argv):
    missing = str(tmp_path / "absent.cfg")
    assert main([argv[0], missing, *argv[1:]]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv", [[], ["gen"], ["gen", "CFG", "--bits", "abc"], ["bogus"], ["oracle", "--pmax", "x"],
             ["verify", "--self-test-corrupt"]]
)
def test_usage_error_is_input_error(capsys, field2_cfg, argv):
    argv = [field2_cfg if a == "CFG" else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cmgenus2")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_gen_deterministic(capsys, field2_cfg):
    rc1, rep1 = run_json(capsys, ["gen", field2_cfg, "--bits", "24", "--seed", "9", "--json"])
    rc2, rep2 = run_json(capsys, ["gen", field2_cfg, "--bits", "24", "--seed", "9", "--json"])
    assert rc1 == rc2 == 0
    assert rep1 == rep2
    assert abs(int(rep1["p_bits"]) - 24) <= 2


def test_gen_rejects_non_primitive(tmp_path, capsys):
    cfg = tmp_path / "np.cfg"
    cfg.write_text("D = 2\na = 2\nb = 0\n", encoding="utf-8")
    assert main(["gen", str(cfg), "--bits", "16"]) == 1


def test_gen_exhaustion_exit_code(monkeypatch, capsys, field2_cfg):
    # seed 0's first tested 24-bit candidate is composite (deterministic)
    monkeypatch.setattr(primegen, "MAX_CANDIDATES", 1)
    rc = main(["gen", field2_cfg, "--bits", "24", "--seed", "0"])
    assert rc == 2


@pytest.mark.parametrize(
    "argv", [["--bits", "4096"], ["--bits", "24", "--max-iter", "5"]]
)
def test_gen_unbounded_request_is_input_error(capsys, field2_cfg, argv):
    # a search beyond 1024 bits would run for hours; the candidate budget
    # is not an option
    assert main(["gen", field2_cfg, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_gen_solver_mismatch_exit_code(monkeypatch, capsys, field2_cfg):
    # c1 + 1 leaves xi-component 2*c2 != 0: the search's ring check must
    # report it as a computational failure, not a traceback
    real = primegen.solve_divisor_equation

    def off_by_one(field, c3, c4):
        return [(c1 + 1, c2) for c1, c2 in real(field, c3, c4)]

    monkeypatch.setattr(primegen, "solve_divisor_equation", off_by_one)
    assert main(["gen", field2_cfg, "--bits", "24", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_analyze_toy(capsys, field2_cfg):
    rc, report = run_json(
        capsys, ["analyze", field2_cfg, "--omega", "7,-1,2,1", "--json"]
    )
    assert rc == 0
    assert report["p"] == "71"
    assert report["frobenius_coeffs"] == ["1", "-28", "330", "-1988", "5041"]
    assert report["N"] == "3356"
    assert report["candidates"] == [["1", "1", "1", "3356"], ["1", "1", "2", "1678"]]
    assert report["guaranteed_cyclic"] == "1678"


def test_analyze_combinatorial_blowup_exit_code(monkeypatch, capsys, field2_cfg):
    # the toy omega has 2 candidate structures, more than a cap of 1
    monkeypatch.setattr(structure, "MAX_STRUCTURES", 1)
    assert main(["analyze", field2_cfg, "--omega", "7,-1,2,1", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "candidate structures" in lines[0]
    assert "Traceback" not in captured.err


def test_analyze_invalid_omega(capsys, field2_cfg):
    assert main(["analyze", field2_cfg, "--omega", "1,0,1,0"]) == 1


def test_analyze_omega_in_real_subfield(capsys, field5_cfg):
    # 1 - 2 xi = -sqrt(5) has rational norm 5, a prime, but lies in K0
    assert main(["analyze", field5_cfg, "--omega=1,-2,0,0"]) == 1
    assert capsys.readouterr().err == \
        "error: omega (1, -2, 0, 0) lies in the real subfield K0 (c3 = c4 = 0)\n"


def test_analyze_composite_norm(capsys, field5_cfg):
    # norm of (-8, 2, 1, 1) on this field is 86 = 2 * 43
    assert main(["analyze", field5_cfg, "--omega=-8,2,1,1"]) == 1


def test_analyze_sqrtd_omega(capsys, field5_cfg):
    # -7 + 4 sqrt(5) + (3 + sqrt(5)) eta = -11 + 8 xi + (2 + 2 xi) eta, norm 257
    rc, report = run_json(
        capsys,
        ["analyze", field5_cfg, "--omega=-7,4,3,1",
         "--omega-basis", "sqrtD", "--json"],
    )
    assert rc == 0
    assert report["p"] == "257"
    assert report["omega_xi"] == ["-11", "8", "2", "2"]
    assert report["gcd_c3_c4"] == "2"


def test_analyze_unfactorable_order_is_explicit(capsys, monkeypatch, field5_cfg):
    # the derived order of this element contains a hard semiprime; a tiny
    # factoring budget must fail loudly, not silently
    monkeypatch.setattr(integerkit, "RHO_ITERS", 1000)
    rc = main(
        ["analyze", field5_cfg,
         "--omega=-119599766860084,5279155,13860963299,4898901569",
         "--omega-basis", "sqrtD"],
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "not fully factored" in lines[0]
    assert "Traceback" not in captured.err


def test_analyze_json_round_trips(capsys, field2_cfg):
    rc, report = run_json(capsys, ["analyze", field2_cfg, "--omega", "7,-1,2,1", "--json"])
    assert rc == 0
    assert json.loads(json.dumps(report)) == report


def test_analyze_reports_reproducible(capsys, field2_cfg):
    main(["analyze", field2_cfg, "--omega", "7,-1,2,1", "--json"])
    first = capsys.readouterr().out
    main(["analyze", field2_cfg, "--omega", "7,-1,2,1", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_gen_feeds_analyze(capsys, field2_cfg):
    rc, gen_report = run_json(capsys, ["gen", field2_cfg, "--bits", "28", "--seed", "4", "--json"])
    assert rc == 0
    omega = ",".join(gen_report["omega_xi"])
    rc, analysis = run_json(
        capsys, ["analyze", field2_cfg, f"--omega={omega}", "--json"]
    )
    assert rc == 0
    assert analysis["p"] == gen_report["p"]
    assert analysis["hasse_weil_ok"] is True
    assert analysis["candidates"][0] == ["1", "1", "1", analysis["N"]]


def test_analyze_twist_matches_golden_example_1(capsys, field2_cfg):
    # analyze and verify share one pipeline: the twist of example 1 must
    # reproduce the candidates that verify pins
    ex = golden.EXAMPLE_1
    omega = ",".join(str(x) for x in ex.omega_xi)
    rc, report = run_json(capsys, ["analyze", field2_cfg, f"--omega={omega}", "--twist", "--json"])
    assert rc == 0
    N = ex.published_order
    assert report["N"] == str(N)
    got = tuple(tuple(int(x) for x in c) for c in report["candidates"])
    assert got == ex.expected_candidates
    assert report["guaranteed_cyclic"] == str(N // 14)


def test_analyze_json_report_of_golden_example_1_twist(capsys, field2_cfg):
    # every key of the report, so that a change to the pipeline that moves
    # any printed value, or adds or drops a key, shows here
    omega = ",".join(str(x) for x in golden.EXAMPLE_1.omega_xi)
    rc, report = run_json(capsys, ["analyze", field2_cfg, f"--omega={omega}", "--twist", "--json"])
    assert rc == 0
    N = "234519634968847474692278544362349582158321382804023011720188699330496198748"
    assert report == {
        "N": N,
        "N_factors": {"factors": [
            ["2", "2"], ["7", "3"], ["17", "1"], ["23", "1"], ["4993", "1"],
            ["87556173808919520163329861675989739433243040373597074857097140343", "1"]]},
        "admissible_odd_primes": [],
        "candidates": [
            ["1", "1", "1", N],
            ["1", "1", "2",
             "117259817484423737346139272181174791079160691402011505860094349665248099374"],
            ["1", "1", "7",
             "33502804995549639241754077766049940308331626114860430245741242761499456964"],
            ["1", "1", "14",
             "16751402497774819620877038883024970154165813057430215122870621380749728482"]],
        "excluded_odd_primes": {"7": ["7 exceeds the bound Q = 2"]},
        "field": {"D": "2", "Q": "2", "a": "2", "b": "1", "case": "2,3 mod 4",
                  "input_a": "2", "input_b": "1", "input_basis": "xi", "primitive": True},
        "frobenius_coeffs": [
            "1",
            "15653259812398349572",
            "91884203532916955984169665545896807946",
            "239714551759339910323163040351058372886278061529988304668",
            "234519634968847474452563992603009671743274138920047682834087712442212736561"],
        "gcd_c3_c4": "1",
        "guaranteed_cyclic":
            "16751402497774819620877038883024970154165813057430215122870621380749728482",
        "hasse_weil_ok": True,
        "omega_input": ["3913314953099587393", "-31", "4483312578", "6978049007"],
        "omega_input_basis": "xi",
        "omega_xi": ["-3913314953099587393", "31", "-4483312578", "-6978049007"],
        "p": "15314033922152826237436247359259334919",
        "p_bits": "124",
        "p_minus_1": {"factors": [["2", "1"], ["3", "1"], ["7", "1"], ["353", "1"],
                                  ["1032917437080320129329303072929943", "1"]]},
        "twist_order":
            "234519634968847474212849440843669761511995302101906265916326056645722890268",
        "warnings": ["analyzing the quadratic twist (negated omega)"],
    }


@pytest.mark.parametrize("cfg, ex, view", [
    # the rest after trial division is prime and listed as a factor
    ("field2_cfg", golden.EXAMPLE_1,
     {"factors": [["2", "1"], ["3", "1"], ["7", "1"], ["353", "1"],
                  ["1032917437080320129329303072929943", "1"]]}),
    # the rest is 5672833 * 23610911 * 22996185281, which analyze does not split
    ("field5_cfg", golden.EXAMPLE_2,
     {"factors": [["2", "2"], ["3", "3"], ["43", "1"]],
      "unfactored_cofactor": "3080126420516567685377503"}),
], ids=["example-1", "example-2"])
def test_analyze_p_minus_1_by_trial_division(request, capsys, cfg, ex, view):
    omega = ",".join(str(x) for x in ex.omega_xi)
    rc, report = run_json(capsys, ["analyze", request.getfixturevalue(cfg),
                                   f"--omega={omega}", "--twist", "--json"])
    assert rc == 0
    assert report["p_minus_1"] == view


def test_cli_import_leaves_cantor_unloaded():
    # gen and analyze never compose divisors; only oracle imports cantor
    code = "import sys, cmgenus2.cli; sys.exit('cmgenus2.cantor' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cantor.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _run_module(*args):
    env = {**os.environ, "PYTHONPATH": str(Path(cantor.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "cmgenus2.cli", *args], env=env,
                          capture_output=True, text=True)


def test_module_entry_point_verifies():
    done = _run_module("verify")
    assert done.returncode == 0
    assert done.stdout.endswith("2/2 examples verified\n")


def test_module_entry_point_reports_a_missing_config(tmp_path):
    done = _run_module("validate", str(tmp_path / "missing.cfg"))
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in done.stderr


def _assert_oracle_mismatch_ends_in_one_error(capsys, field2_cfg):
    # analyze checks the closed form on every run; the old flag changes nothing
    analyze = ["analyze", field2_cfg, "--omega", "7,-1,2,1"]
    for argv in (analyze, analyze + ["--check-oracle"], ["verify"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in captured.err


def test_oracle_mismatch_exit_code(monkeypatch, capsys, field2_cfg):
    # a change to any one of t3, t2, t1, t0 also moves P(1), so the one list
    # comparison is what checks the group order
    real = frobenius.char_poly_oracle
    for i in range(1, 5):
        def perturbed(u, field, i=i):
            coeffs = real(u, field)
            coeffs[i] += 1
            return coeffs

        monkeypatch.setattr(frobenius, "char_poly_oracle", perturbed)
        _assert_oracle_mismatch_ends_in_one_error(capsys, field2_cfg)


def test_analyze_and_verify_do_not_call_group_order_oracle(monkeypatch, capsys, field2_cfg):
    # the det(1 - omega) order is the tests' reference only; the oracle's
    # list already holds P(1) = det(I - M)
    argvs = (["analyze", field2_cfg, "--omega", "7,-1,2,1", "--json"], ["verify"])
    expected = []
    for argv in argvs:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)

    def unreachable(field, c):
        raise RuntimeError("group_order_oracle called")

    monkeypatch.setattr(frobenius, "group_order_oracle", unreachable)
    for argv, out in zip(argvs, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


def _negated_explicit(monkeypatch):
    real = cantor._explicit

    def negated(u1, v1, u2, v2, curve):
        out = real(u1, v1, u2, v2, curve)
        return out and cantor.negate(out, curve)

    monkeypatch.setattr(cantor, "_explicit", negated)


def _off_curve_doubling(monkeypatch):
    real = cantor.compose

    def compose(d1, d2, curve):
        return cantor.MumfordDivisor((0, 0, 1), (1,)) if d1 == d2 else real(d1, d2, curve)

    monkeypatch.setattr(cantor, "compose", compose)


def _zero_sums(monkeypatch):
    monkeypatch.setattr(cantor, "compose", lambda d1, d2, curve: cantor.IDENTITY)


def _order_five_negation(monkeypatch):
    order_five = cantor.MumfordDivisor((3, 5, 1), (2, 1))
    monkeypatch.setattr(cantor, "negate", lambda d, curve: order_five)


@pytest.mark.parametrize(
    "fault, seed, message",
    [(_negated_explicit, 9, "error: image size ratio is not a power of 3"),
     (_off_curve_doubling, 0,
      "error: MumfordDivisor(u=(0, 0, 1), v=(1,)) is not an enumerated divisor"),
     (_negated_explicit, 0, "error: the Sylow 2-subgroup exceeds 8 elements"),
     (_negated_explicit, 23, "error: cosets of the Sylow 3-subgroup overlap"),
     (_zero_sums, 0, "error: the Sylow 2-subgroup reaches 1 of 8 elements"),
     (_order_five_negation, 0,
      "error: MumfordDivisor(u=(3, 5, 1), v=(2, 1)) is not in the Sylow 2-subgroup")],
    ids=["negated-explicit", "off-curve-doubling", "sylow-exceeds", "sylow-cosets-overlap",
         "sylow-short", "sylow-membership"])
def test_oracle_cantor_fault_exit_code(monkeypatch, capsys, fault, seed, message):
    # a wrong group law fails the image-size check or the closure that
    # builds a Sylow subgroup, a sum off the curve the element lookup; all
    # are computation errors, not tracebacks.  Seed 9 draws N = 81 = 3^4,
    # mapped whole, whose 3-ladder adds.  At seed 0, N = 40 = 2^3 * 5, and
    # S_2 is built from the multiples [5]P, whose ladder adds: with sums
    # negated, <R> runs past 8 elements, and with every sum 0, S_2 stays
    # at the identity; a negation that returns a class of order 5 leaves
    # S_2.  The whole line is pinned, so the class repr in the lookup
    # faults cannot change unnoticed.
    fault(monkeypatch)
    assert main(["oracle", "--curves", "1", "--pmax", "11", "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize("factors, padded", [
    ([1, 2, 2, 2, 14], None),
    ([4, 4, 28], ["1", "4", "4", "28"]),
], ids=["five-factors", "n2-not-dividing-p-1"])
def test_oracle_counterexample_report(monkeypatch, capsys, factors, padded):
    # seed 10 at pmax 11 draws p = 11 with N = 112; five invariant factors
    # exceed the rank bound, and n2 = 4 of the chain [4, 4, 28] does not
    # divide p - 1 = 10, so the curve is reported as a counterexample
    monkeypatch.setattr(cantor, "enumerate_jacobian", lambda curve: (112, factors))
    assert main(["oracle", "--curves", "1", "--pmax", "11", "--seed", "10", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"counterexample": {
        "p": "11",
        "f": ["0", "6", "7", "9", "0", "1"],
        "order": "112",
        "invariant_factors": [str(d) for d in factors],
        "padded": padded,
        "ok": False,
    }}


def test_oracle_negated_explicit_still_caught_on_every_seed(monkeypatch, capsys):
    # maps run over all of J caught these ten seeds of 60; the maps over
    # S_q compose less, and the Sylow closure's own checks must make up
    # for it on every one of them
    _negated_explicit(monkeypatch)
    caught = set()
    for seed in range(60):
        if main(["oracle", "--curves", "1", "--pmax", "11", "--seed", str(seed)]) == 2:
            caught.add(seed)
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (seed, lines)
    assert {9, 17, 23, 24, 25, 34, 44, 45, 53, 56} <= caught


class _Hang(BaseException):
    """Raised by the alarm; main does not catch it, so the test fails."""


def _alarm(signum, frame):
    raise _Hang


def _first_operand_sums(monkeypatch):
    monkeypatch.setattr(cantor, "compose", lambda d1, d2, curve: d1)


@pytest.mark.parametrize("seed", [0, 8, 9])
@pytest.mark.parametrize("fault", [_zero_sums, _first_operand_sums],
                         ids=["identity", "first-operand"])
def test_oracle_broken_group_law_ends_in_one_error(monkeypatch, capsys, fault, seed):
    # every loop of the enumeration is bounded by the group order, so a
    # law that sends every sum to 0 or to its first operand ends in a
    # computation error within seconds.  Seed 0 draws N = 40, whose
    # Sylow 2-subgroup the closure builds; seeds 8 and 9 draw the 2-group
    # Z/4 x Z/4 and the 3-group Z/81, mapped whole, where 2P = 0 must
    # agree with P = -P
    fault(monkeypatch)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)
    try:
        rc = main(["oracle", "--curves", "1", "--pmax", "11", "--seed", str(seed)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_verify_passes(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2/2 examples verified" in out


def test_verify_json(capsys):
    rc, report = run_json(capsys, ["verify", "--json"])
    assert rc == 0
    assert report["failed"] == "0"
    assert all(c["ok"] for c in report["checks"])


def test_verify_corrupt_negative_control(capsys, monkeypatch):
    # one wrong printed coordinate must turn verify into a mismatch
    ex = golden.EXAMPLE_1
    printed = (ex.omega_printed[0], ex.omega_printed[1] + 1, *ex.omega_printed[2:])
    monkeypatch.setattr(golden, "EXAMPLES",
                        (dataclasses.replace(ex, omega_printed=printed), golden.EXAMPLE_2))
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "[MISMATCH] example-1: basis conversion" in out
    assert "1/2 examples verified" in out


def test_analyze_help_hides_the_old_oracle_flag(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    out = capsys.readouterr().out
    assert "--twist" in out and "--check-oracle" not in out


def test_verify_reports_a_wrong_recorded_factorization(capsys, monkeypatch):
    # a corrupted golden table is a verification mismatch (exit 2), not a crash
    ex = golden.EXAMPLE_2
    wrong = tuple((73, 1) if q == 71 else (q, e) for q, e in ex.order_factors)
    monkeypatch.setattr(golden, "EXAMPLES",
                        (golden.EXAMPLE_1, dataclasses.replace(ex, order_factors=wrong)))
    rc = main(["verify"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "[MISMATCH] example-2: published order factorization" in captured.out
    assert "1/2 examples verified" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_verify_reports_an_unsorted_p_minus_1_table(capsys, monkeypatch):
    # the p - 1 table is checked by value: out of order, it is a mismatch
    # of that check alone, not an input error that loses the report
    ex = golden.EXAMPLES[1]
    unsorted = dataclasses.replace(ex, pm1_factors=ex.pm1_factors[::-1])
    monkeypatch.setattr(golden, "EXAMPLES", (golden.EXAMPLES[0], unsorted))
    rc = main(["verify"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "[MISMATCH] example-2: p - 1 factorization" in captured.out
    assert captured.out.count("MISMATCH") == 1
    assert "Traceback" not in captured.out + captured.err


def test_oracle_deterministic(capsys):
    rc1 = main(["oracle", "--curves", "4", "--pmax", "11", "--seed", "5"])
    out1 = capsys.readouterr().out
    rc2 = main(["oracle", "--curves", "4", "--pmax", "11", "--seed", "5"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_cached_parser_keeps_no_state_between_calls(capsys, field2_cfg):
    # one parser serves every main() in the process; no flag may carry over
    assert build_parser() is build_parser()
    oracle = ["oracle", "--curves", "1", "--pmax", "11"]
    assert run_json(capsys, oracle + ["--json"])[0] == 0
    assert main(oracle) == 0
    assert capsys.readouterr().out.startswith("curves: 1\npmax: 11\n")
    analyze = ["analyze", field2_cfg, "--omega", "7,-1,2,1", "--json"]
    rc, twisted = run_json(capsys, analyze + ["--twist"])
    assert rc == 0 and twisted["omega_xi"] == ["-7", "1", "-2", "-1"]
    rc, plain = run_json(capsys, analyze)
    assert rc == 0 and plain["omega_xi"] == ["7", "-1", "2", "1"]
    assert plain["N"] == "3356" and plain["warnings"] == []
    assert main(["oracle", "--pmax"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_oracle_precondition(capsys):
    assert main(["oracle", "--pmax", "3"]) == 1
    assert main(["oracle", "--pmax", "67"]) == 1
    assert main(["oracle", "--curves", "0"]) == 1
