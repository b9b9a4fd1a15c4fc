"""Command-line surface: schemas, formats, exit codes, determinism."""

import dataclasses
import json
import shlex
import sys
from pathlib import Path

import pytest

from ztt import distributions, theta, verify
from ztt.cli import build_parser, main, parse_range, resolve_weights
from ztt.weights import OnesWeights, ZetaWeights


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range():
    assert parse_range("3") == [3]
    assert parse_range("2..5") == [2, 3, 4, 5]
    with pytest.raises(ValueError):
        parse_range("5..2")
    with pytest.raises(ValueError):
        parse_range("a..b")
    with pytest.raises(ValueError):
        parse_range("1..2..3")


def test_empty_range_is_usage_error(capsys):
    code, out, err = run(capsys, "theta", "--weights", "ones", "--n", "3",
                         "--k", "5..3")
    assert code == 2 and not out
    assert "empty range '5..3'" in err


def test_resolve_weights(tmp_path):
    assert resolve_weights("ones") == OnesWeights()
    assert resolve_weights("zeta:2") == ZetaWeights(2)
    p = tmp_path / "w.json"
    p.write_text('{"kind": "zeta", "m": 3}')
    assert resolve_weights(str(p)) == ZetaWeights(3)


def test_theta_basic(capsys):
    code, out, _ = run(capsys, "theta", "--weights", "ones", "--n", "3",
                       "--k", "2")
    assert code == 0
    assert "[3, 3]" in out
    assert "newton" in out


def test_theta_algo_all(capsys):
    code, out, _ = run(capsys, "theta", "--weights", "zeta:1", "--n", "2",
                       "--k", "2", "--algo", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + five algorithm rows
    assert all("[1/2, 5/4]" in line for line in lines[1:])
    assert all("yes" in line for line in lines[1:])


def test_theta_csv_schema(capsys):
    code, out, _ = run(capsys, "theta", "--weights", "ones", "--n", "3",
                       "--k", "2..3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,coeff_index,value"
    assert lines[1] == "3,2,0,3"
    assert "3,3,2,3" in lines


def test_theta_csv_rejects_algo_all(capsys):
    code, _, err = run(capsys, "theta", "--weights", "ones", "--n", "3",
                       "--k", "2", "--algo", "all", "--format", "csv")
    assert code == 2
    assert "CSV" in err


def test_theta_t_evaluation(capsys):
    code, out, _ = run(capsys, "theta", "--weights", "zeta:1", "--n", "2",
                       "--k", "2", "--t", "1", "--t", "1/2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,t,value"
    assert lines[1] == "2,2,1,7/4"
    assert lines[2] == "2,2,1/2,9/8"


def test_theta_oracle_algo(capsys):
    code, out, _ = run(capsys, "theta", "--weights", "ones", "--n", "4",
                       "--k", "3", "--algo", "oracle", "--format", "csv")
    assert code == 0
    assert "4,3,0,4" in out


def test_theta_json_schema(capsys):
    code, out, _ = run(capsys, "theta", "--weights", "zeta:2", "--n", "2",
                       "--k", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "theta"
    assert doc["config"]["weights"] == {"kind": "zeta", "m": 2}
    assert doc["rows"] == [{"n": 2, "k": 2, "algo": "newton",
                            "coefficients": ["1/4", "17/16"]}]


def test_custom_weights_range_error(tmp_path, capsys):
    p = tmp_path / "w.json"
    p.write_text('{"kind": "custom", "values": ["1", "2", "3"]}')
    for table in ("theta", "pmf", "moments"):
        code, _, err = run(capsys, table, "--weights", str(p), "--n", "50",
                           "--k", "2")
        assert code == 2
        assert "3 terms" in err


def test_hostile_zeta_order_is_usage_error(tmp_path, capsys):
    p = tmp_path / "w.json"
    p.write_text('{"kind": "zeta", "m": 1000000}')
    for weights, order in (("zeta:1001", 1001), ("zeta:1000000", 1000000), (str(p), 1000000)):
        code, out, err = run(capsys, "theta", "--weights", weights, "--n", "3", "--k", "2")
        assert code == 2 and not out
        assert err == f"error: zeta order {order} is outside 1..1000\n"


def test_oversized_rational_is_usage_error(capsys):
    code, out, err = run(capsys, "theta", "--weights", "ones", "--n", "2",
                         "--k", "2", "--t", "1e1001")
    assert code == 2 and not out
    assert "exponent 1001" in err


def test_deep_json_weights_is_usage_error(tmp_path, capsys):
    p = tmp_path / "w.json"
    p.write_text("[" * 100_000)
    code, out, err = run(capsys, "theta", "--weights", str(p), "--n", "2",
                         "--k", "2")
    assert code == 2 and not out
    assert err.count("error:") == 1 and len(err.splitlines()) == 1


def test_unknown_weights_exit_code(capsys):
    code, _, err = run(capsys, "theta", "--weights", "fancy", "--n", "2",
                       "--k", "2")
    assert code == 2
    assert "error:" in err


def test_bad_flag_exit_code(capsys):
    code, _, _ = run(capsys, "theta", "--weights", "ones", "--n", "2")
    assert code == 2
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "theta" in out


def test_pmf_rows(capsys):
    code, out, _ = run(capsys, "pmf", "--weights", "ones", "--n", "3",
                       "--k", "2", "--precision", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,j,probability,approx"
    assert lines[1] == "3,2,0,1/2,0.500"
    assert lines[2] == "3,2,1,1/2,0.500"


def test_moments_rows(capsys):
    code, out, _ = run(capsys, "moments", "--weights", "ones", "--n", "3",
                       "--k", "2", "--smax", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,mean,variance,fm1,fm2"
    assert lines[1] == "3,2,1/2,1/4,1/2,0"


def test_precision_validation(capsys):
    # 1075 digits would only pad the exact expansion of a double with zeros
    for precision in ("0", "1075"):
        code, _, err = run(capsys, "pmf", "--weights", "ones", "--n", "3",
                           "--k", "2", "--precision", precision)
        assert code == 2, precision
        assert "precision" in err


def test_partitions_output(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "3", "--limit", "5",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "index,count"
    assert out.splitlines()[-1] == "5,5"


def test_limits_csv_schema(capsys):
    code, out, _ = run(capsys, "limits", "--regime", "dn_zeta1", "--grid",
                       "5,10", "--format", "csv", "--precision", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "regime,param,value,distance"
    assert lines[1].startswith("dn_zeta1,")
    code2, _, err = run(capsys, "limits", "--grid", "5,10")
    assert code2 == 2
    assert "regime" in err


def test_empty_limits_grid_is_usage_error(tmp_path, capsys):
    # an empty --grid is a malformed grid, not a request for the default one
    for regime in ("dn_zeta1", "all"):
        code, out, err = run(capsys, "limits", "--regime", regime, "--grid", "")
        assert code == 2, (regime, out)
        assert "grid" in err
        code, _, err = run(capsys, "export", "--table", "limits", "--regime", regime,
                           "--grid", "", "--out", str(tmp_path / "scan.csv"))
        assert code == 2, regime
        assert "grid" in err
    assert not (tmp_path / "scan.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (("theta", "--n", "0", "--k", "2"), "needs n >= 1, got 0"),
    (("theta", "--n", "0..3", "--k", "2", "--algo", "all"), "needs n >= 1, got 0"),
    (("theta", "--n", "0", "--k", "2", "--algo", "oracle"), "needs n >= 1, got 0"),
    (("theta", "--n", "2", "--k=-1..2"), "needs k >= 0, got -1"),
    (("limits", "--regime", "poisson_multiset", "--grid", "-5"),
     "needs grid point >= 1, got -5"),
    (("limits", "--regime", "normal_multiset", "--grid", "1"),
     "needs grid point >= 2, got 1"),
    (("limits", "--regime", "sum_theorem_negbin", "--grid", "1"),
     "needs grid point >= 2, got 1"),
    (("partitions", "--n", "3", "--limit", "-1"), "needs limit >= 0, got -1"),
], ids=["theta-n0", "theta-all-n0", "theta-oracle-n0", "theta-negative-k",
        "limits-negative-grid", "limits-normal-grid1", "limits-negbin-grid1",
        "partitions-negative-limit"])
def test_out_of_range_cell_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err == f"error: {message}\n"


def test_one_table_entry_adds_a_regime(capsys, monkeypatch):
    # a REGIMES entry alone reaches limits, limits --regime all and the verify suite
    toy = distributions.Regime(lambda p: (f"n={p}", float(p), 1 / p), (2, 4, 8),
                               "toy regime distance decreasing", grid_min=2)
    monkeypatch.setitem(distributions.REGIMES, "toy", toy)
    expected = [["toy", "n=2", "2.000000000000", "0.500000000000"],
                ["toy", "n=4", "4.000000000000", "0.250000000000"],
                ["toy", "n=8", "8.000000000000", "0.125000000000"]]
    code, out, err = run(capsys, "limits", "--regime", "toy")
    assert code == 0 and not err
    assert [line.split() for line in out.splitlines()[1:]] == expected
    code, out, _ = run(capsys, "limits", "--regime", "all")
    assert code == 0
    assert [line.split() for line in out.splitlines() if line.startswith("toy")] == expected
    code, out, _ = run(capsys, "verify", "--suite", "limits")
    assert code == 0
    assert "PASS  toy regime distance decreasing\n" in out
    assert out.endswith("8/8 checks passed\n")
    code, out, err = run(capsys, "limits", "--regime", "toy", "--grid", "1")
    assert code == 2 and not out
    assert err == "error: needs grid point >= 2, got 1\n"
    monkeypatch.setitem(distributions.REGIMES, "toy",
                        dataclasses.replace(toy, final_below=0.1))
    code, out, _ = run(capsys, "verify", "--suite", "limits")
    assert code == 1
    assert "FAIL  toy regime distance decreasing" in out
    assert "final distance 0.125 not below 0.1" in out


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sumtheorem")
    assert code == 0
    assert "PASS" in out
    assert "checks passed" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sumtheorem",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["result"] == "PASS"


def test_verify_rejects_empty_grids(capsys):
    # every sized loop would be empty, so a PASS here would be vacuous
    for suite, max_n, max_k in (("marginals", "1", "0"), ("identities", "0", "4"),
                                ("identities", "-3", "4"), ("sumtheorem", "4", "0")):
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--max-n", max_n, "--max-k", max_k)
        assert code == 2, (suite, max_n, max_k, out)
        assert "max_n >= 2 and max_k >= 1" in err
    code, out, _ = run(capsys, "verify", "--suite", "identities",
                       "--max-n", "2", "--max-k", "1")
    assert code == 0
    assert "12/12 checks passed" in out


def test_nonpositive_budget_flag_is_usage_error(capsys, monkeypatch):
    code, out, err = run(capsys, "theta", "--n", "3", "--k", "2", "--algo", "oracle",
                         "--budget", "0")
    assert code == 2, out
    assert "budget must be >= 1" in err
    # verify takes no budget flag; a bad ZTT_BUDGET is refused before any check runs
    monkeypatch.setenv("ZTT_BUDGET", "-2")
    code, out, err = run(capsys, "verify", "--suite", "marginals", "--max-n", "3",
                         "--max-k", "3")
    assert code == 2 and not out
    assert "ZTT_BUDGET must be >= 1" in err


def test_verify_needs_at_most_462_multisets(capsys, monkeypatch):
    # the oracle checks cap n and k at 6, so C(11, 6) = 462 multisets suffice at any size
    monkeypatch.setenv("ZTT_BUDGET", "462")
    code, out, _ = run(capsys, "verify")
    assert code == 0 and "24/24 checks passed" in out
    code, out, _ = run(capsys, "verify", "--suite", "marginals", "--max-n", "12",
                       "--max-k", "12")
    assert code == 0 and "4/4 checks passed" in out
    monkeypatch.setenv("ZTT_BUDGET", "461")
    code, out, _ = run(capsys, "verify")
    assert code == 1 and "22/24 checks passed" in out
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [line.split("  ")[1] for line in fails] == [
        "brute-force oracle agreement", "marginal law versus enumeration"]
    assert all("462 multisets for n=6, k=6" in line for line in fails)
    # no subcommand takes a flag it would ignore
    for argv in (("verify", "--budget", "5"), ("verify", "--precision", "3"),
                 ("partitions", "--n", "3", "--precision", "3")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out, argv
        assert "unrecognized arguments" in err


def _perturbed(fn):
    def wrong(*args, **kwargs):
        value = fn(*args, **kwargs)
        if isinstance(value, theta.ThetaPoly):
            return dataclasses.replace(value, poly=value.poly + 1)
        return value + 1
    return wrong


@pytest.mark.parametrize("module, subject, check, point", [
    (theta, "theta_partial_fraction",
     lambda: verify._check_partial_fraction(verify.random_customs(1, 1, 2, 9), 2, 1),
     "n=1 k=1"),
    (theta, "theta_multi_eval",
     lambda: verify._check_oracle_tvec([(2, 1)], 1, 8), "n=2 k=1"),
    (theta, "theta_qt",
     lambda: verify._check_oracle_q(verify.BUILTIN_WEIGHTS[:1], [(2, 1)]), "n=2 k=1"),
    (theta, "closed_form_ones_bivariate",
     lambda: verify._check_bivariate(2, 1), "n=1 k=0"),
    (theta, "theta_ordered_partitions",
     lambda: verify._check_ordered_partitions(1, 2, 1), "m=1 n=1 k=1"),
    (distributions, "bernstein_pgf",
     lambda: verify._check_sum_theorem(3), "n=2 k=3"),
], ids=["partial-fraction", "oracle-tvec", "oracle-q", "bivariate",
        "ordered-partitions", "sum-theorem"])
def test_verify_check_detects_perturbation(monkeypatch, module, subject, check, point):
    assert check() is None
    monkeypatch.setattr(module, subject, _perturbed(getattr(module, subject)))
    detail = check()
    assert detail is not None and point in detail, detail


def test_budget_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("ZTT_BUDGET", "5")
    code, _, err = run(capsys, "theta", "--weights", "ones", "--n", "4",
                       "--k", "4", "--algo", "oracle")
    assert code == 2
    assert "budget" in err.lower()
    # the flag wins over the environment
    code2, out, _ = run(capsys, "theta", "--weights", "ones", "--n", "4",
                        "--k", "4", "--algo", "oracle", "--budget", "100")
    assert code2 == 0
    assert "oracle" in out


def test_determinism(capsys):
    args = ("limits", "--regime", "sum_theorem_negbin", "--grid", "8,16",
            "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    args = ("theta", "--weights", "zeta:1", "--n", "1..4", "--k", "0..4",
            "--format", "csv")
    _, out3, _ = run(capsys, *args)
    _, out4, _ = run(capsys, *args)
    assert out3 == out4


def test_export_csv(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "export", "--table", "theta", "--weights",
                       "ones", "--n", "2..3", "--k", "2", "--out",
                       str(out_path), "--format", "csv")
    assert code == 0
    assert "wrote" in out
    text = out_path.read_text()
    assert text.splitlines()[0] == "n,k,coeff_index,value"


def test_export_json_round_trip(tmp_path, capsys):
    from fractions import Fraction

    from ztt.exact import Poly, parse_rational
    from ztt.theta import ThetaPoly, theta_newton

    out_path = tmp_path / "table.json"
    code, _, _ = run(capsys, "export", "--table", "theta", "--weights",
                     "zeta:1", "--n", "2..4", "--k", "1..3", "--out",
                     str(out_path), "--format", "json")
    assert code == 0
    doc = json.loads(out_path.read_text())
    seq = ZetaWeights(1)
    assert doc["config"]["weights"] == {"kind": "zeta", "m": 1}
    for row in doc["rows"]:
        coeffs = [parse_rational(c) for c in row["coefficients"]]
        rebuilt = ThetaPoly(row["n"], row["k"], seq, Poly(coeffs))
        assert rebuilt == theta_newton(seq, row["n"], row["k"])


def test_export_limits(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "export", "--table", "limits", "--regime",
                     "sum_theorem_negbin", "--grid", "8", "--out",
                     str(out_path), "--format", "csv")
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "regime,param,value,distance"


def test_export_io_failure(tmp_path, capsys):
    code, _, err = run(capsys, "export", "--table", "partitions", "--n", "3",
                       "--out", str(tmp_path / "no" / "dir" / "f.csv"),
                       "--format", "csv")
    assert code == 1
    assert "cannot write" in err


def test_export_precision_rendering(tmp_path, capsys):
    out_path = tmp_path / "p.csv"
    code, _, _ = run(capsys, "export", "--table", "pmf", "--weights", "ones",
                     "--n", "3", "--k", "2", "--precision", "3", "--out",
                     str(out_path), "--format", "csv")
    assert code == 0
    assert "0.500" in out_path.read_text()


@pytest.mark.parametrize("table, flags, foreign", [
    ("partitions", ("--n", "3"), ("--precision", "3")),
    ("partitions", ("--n", "3"), ("--budget", "5")),
    ("theta", ("--n", "3", "--k", "2"), ("--smax", "3")),
    ("pmf", ("--n", "3", "--k", "2"), ("--regime", "dn_zeta1")),
    ("limits", (), ("--weights", "ones")),
    ("moments", ("--n", "3", "--k", "2"), ("--t", "1/2")),
], ids=["partitions-precision", "partitions-budget", "theta-smax", "pmf-regime",
        "limits-weights", "moments-t"])
def test_export_refuses_flags_its_table_does_not_read(tmp_path, capsys, table, flags,
                                                      foreign):
    out_path = tmp_path / "t.json"
    code, out, err = run(capsys, "export", "--table", table, *flags, *foreign,
                         "--out", str(out_path))
    assert code == 2 and not out
    assert f"unrecognized arguments: {' '.join(foreign)}" in err
    assert not out_path.exists()


def test_export_parser_declares_only_its_own_flags():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == ["theta", "pmf", "moments", "verify", "limits",
                                 "partitions", "export"]
    flags = {s for a in sub.choices["export"]._actions for s in a.option_strings}
    assert flags == {"-h", "--help", "--table", "--out", "--format"}


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "p.csv"
    monkeypatch.setattr(sys, "argv", ["ztt", "export", "--table", "partitions", "--n",
                                      "3", "--format", "csv", "--out", str(out_path)])
    code = main()
    out = capsys.readouterr().out
    assert code == 0 and out == f"wrote 4 rows to {out_path}\n"
    assert out_path.read_text() == "index,count\n0,1\n1,1\n2,2\n3,3\n"


def test_malformed_budget_env_only_affects_oracle(capsys, monkeypatch):
    monkeypatch.setenv("ZTT_BUDGET", "abc")
    code, out, _ = run(capsys, "theta", "--n", "3", "--k", "2")
    assert code == 0
    assert "[3, 3]" in out
    code, _, err = run(capsys, "theta", "--n", "3", "--k", "2", "--algo", "oracle")
    assert code == 2
    assert "ZTT_BUDGET" in err


def test_export_algo_all_reports_disagreement(tmp_path, capsys, monkeypatch):
    from ztt import theta
    from ztt.exact import Poly

    def wrong(seq, n, k):
        tp = theta.theta_newton(seq, n, k)
        return theta.ThetaPoly(n, k, seq, tp.poly + Poly.one())

    monkeypatch.setitem(theta.ALGORITHMS, "det", wrong)
    code, _, _ = run(capsys, "theta", "--n", "3", "--k", "2", "--algo", "all")
    assert code == 1
    out_path = tmp_path / "theta.json"
    code, _, _ = run(capsys, "export", "--table", "theta", "--n", "3", "--k", "2",
                     "--algo", "all", "--out", str(out_path), "--format", "json")
    assert code == 1
    rows = json.loads(out_path.read_text())["rows"]
    assert {row["agree"] for row in rows} == {"no"}


def _readme_commands() -> list:
    """Argument lists of the `ztt ...` examples in README's "Command line"
    block, with backslash continuations joined and `#` comments stripped."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["ztt"]:
            commands.append(words[1:])
    return commands


def test_readme_command_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the export example writes its file here
    commands = _readme_commands()
    assert len(commands) >= 9
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
