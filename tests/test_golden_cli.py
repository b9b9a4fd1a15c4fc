"""Golden CLI output: argv, exit code, stdout, stderr and written files.

Every case runs ``ztt.cli.main`` in-process and must reproduce
``tests/golden/cli.json`` byte for byte.  Weight files a case reads are
written into a temporary directory first; the directory path is replaced by
``{tmp}`` in argv and in the recorded output, so the file is portable.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ztt.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

WEIGHT_FILES = {
    "custom.json": '{"kind": "custom", "values": ["1", "1/2", "2/3", "3"]}',
    "qmod.json": '{"kind": "q_modified", "q": "1/2", "base": {"kind": "linear"}}',
}

THETA = ("theta", "--weights", "zeta:1", "--n", "2..3", "--k", "1..3")
T_FLAGS = ("--t", "1/2", "--t", "2")

CASES = {
    "theta_table": THETA,
    "theta_table_t": THETA + T_FLAGS,
    "theta_json": THETA + ("--format", "json"),
    "theta_json_t": THETA + T_FLAGS + ("--format", "json"),
    "theta_csv": THETA + ("--format", "csv"),
    "theta_csv_t": THETA + T_FLAGS + ("--format", "csv"),
    "theta_all_table": THETA + ("--algo", "all"),
    "theta_all_json": THETA + T_FLAGS + ("--algo", "all", "--format", "json"),
    "theta_oracle": ("theta", "--weights", "linear", "--n", "3", "--k", "0..3",
                     "--algo", "oracle"),
    "theta_budget_refusal": ("theta", "--n", "4", "--k", "4", "--algo",
                             "oracle", "--budget", "5"),
    "theta_custom_file": ("theta", "--weights", "{tmp}/custom.json", "--n",
                          "1..4", "--k", "2", "--format", "json"),
    "theta_qmod_file": ("theta", "--weights", "{tmp}/qmod.json", "--n", "3",
                        "--k", "0..2", "--t", "1/3"),
    "pmf_table": ("pmf", "--weights", "zeta:2", "--n", "2..3", "--k", "3",
                  "--precision", "5"),
    "pmf_json": ("pmf", "--weights", "linear", "--n", "3", "--k", "2",
                 "--format", "json"),
    "moments_csv": ("moments", "--weights", "ones", "--n", "2..4", "--k", "3",
                    "--format", "csv"),
    "moments_smax3": ("moments", "--weights", "zeta:1", "--n", "3", "--k",
                      "2..3", "--smax", "3"),
    "verify_identities": ("verify", "--suite", "identities", "--max-n", "3",
                          "--max-k", "3"),
    "verify_marginals": ("verify", "--suite", "marginals", "--max-n", "3",
                         "--max-k", "3", "--format", "json"),
    "verify_sumtheorem": ("verify", "--suite", "sumtheorem", "--max-k", "5",
                          "--format", "csv"),
    "limits_grid": ("limits", "--regime", "sum_theorem_negbin", "--grid",
                    "8,16", "--precision", "8"),
    "limits_all": ("limits", "--regime", "all"),
    "verify_limits": ("verify", "--suite", "limits", "--format", "json"),
    "verify_all": ("verify", "--suite", "all"),
    "limits_beta_grid": ("limits", "--regime", "beta_marginal", "--grid",
                         "3,7,50", "--format", "json"),
    "partitions": ("partitions", "--n", "4", "--limit", "9"),
    "partitions_json": ("partitions", "--n", "4", "--limit", "9", "--format",
                        "json"),
    "err_unknown_weights": ("theta", "--weights", "fancy", "--n", "2", "--k", "2"),
    "err_pmf_k0": ("pmf", "--n", "3", "--k", "0"),
    "err_smax0": ("moments", "--n", "3", "--k", "2", "--smax", "0"),
    "err_all_csv": ("theta", "--n", "3", "--k", "2", "--algo", "all",
                    "--format", "csv"),
}

EXPORTS = {
    "theta": ("--weights", "zeta:1", "--n", "2..3", "--k", "1..2"),
    "pmf": ("--weights", "ones", "--n", "3", "--k", "2..3", "--precision", "4"),
    "moments": ("--weights", "linear", "--n", "2", "--k", "2..3", "--smax", "3"),
    "limits": ("--regime", "sum_theorem_negbin", "--grid", "8"),
    "partitions": ("--n", "3", "--limit", "6"),
}
for _table, _flags in EXPORTS.items():
    for _fmt in ("json", "csv"):
        CASES[f"export_{_table}_{_fmt}"] = (
            ("export", "--table", _table) + _flags
            + ("--format", _fmt, "--out", f"{{tmp}}/out.{_fmt}"))


def run_case(argv, tmp: Path) -> dict:
    """Run one case in ``tmp``; return its portable record."""
    for name, text in WEIGHT_FILES.items():
        (tmp / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([a.replace("{tmp}", str(tmp)) for a in argv])
    record = {
        "argv": list(argv),
        "exit": code,
        "stdout": out.getvalue().replace(str(tmp), "{tmp}"),
        "stderr": err.getvalue().replace(str(tmp), "{tmp}"),
    }
    outs = sorted(tmp.glob("out.*"))
    if outs:
        record["file"] = outs[0].read_text()
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_cli(case, golden, tmp_path, monkeypatch):
    monkeypatch.delenv("ZTT_BUDGET", raising=False)
    assert run_case(CASES[case], tmp_path) == golden[case]


def regenerate() -> None:
    os.environ.pop("ZTT_BUDGET", None)
    out = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            out[case] = run_case(CASES[case], Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {GOLDEN}")


if __name__ == "__main__":
    regenerate()
