"""The command-line front end: report shapes, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import a6k3
from a6k3.cli import COMMANDS, REPORT_VERSION, build_report, main

REPORT_DIGEST = "ac027fccd946ffad638ccb95bdd9786a"
TEXT_REPORT_DIGEST = "ff41c0502feadfc73f6c33ed90b074b1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_all_json(capsys):
    code, out = run_cli(capsys, "all", "--format", "json")
    assert code == 0
    # the report is unchanged byte for byte across refactors of the engine
    assert hashlib.md5(out.encode()).hexdigest() == REPORT_DIGEST
    report = json.loads(out)
    assert report["version"] == REPORT_VERSION
    assert report["verdict"] == "M10_2"
    assert all(check["status"] == "pass" for check in report["checks"])
    for check in report["checks"]:
        assert {"id", "paper_ref", "status", "witnesses", "axioms_used"} <= set(check)


def test_all_text(capsys):
    code, out = run_cli(capsys, "all", "--format", "text")
    assert code == 0
    # rationals reach the text report through str(), so this pins their form
    assert hashlib.md5(out.encode()).hexdigest() == TEXT_REPORT_DIGEST


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "all", "--format", "json")
    _, second = run_cli(capsys, "all", "--format", "json")
    assert first == second
    _, t1 = run_cli(capsys, "all", "--format", "text")
    _, t2 = run_cli(capsys, "all", "--format", "text")
    assert t1 == t2


def test_decompose_text(capsys):
    code, out = run_cli(capsys, "decompose", "--format", "text")
    assert code == 0
    assert "multiplicity vector: (1, 1, 0, 0, 1, 0)" in out


def test_chartab_text(capsys):
    code, out = run_cli(capsys, "chartab", "--format", "text")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("chi")]
    assert len(lines) == 7
    header = next(l for l in out.splitlines() if "1A" in l)
    assert header.split() == ["1A", "2A", "3A", "3B", "4A", "5A", "5B"]


def test_exclude_verdict(capsys):
    code, out = run_cli(capsys, "exclude", "--format", "text")
    assert code == 0
    assert "VERDICT: M10_2" in out


def test_groups_and_lattice(capsys):
    for cmd in ("groups", "lattice"):
        code, out = run_cli(capsys, cmd, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is None
        assert all(check["status"] == "pass" for check in report["checks"])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "lattice", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["version"] == REPORT_VERSION


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    # exit 1 means a failed check; a path that cannot be written is exit 2,
    # one error line and no traceback
    target = tmp_path / "missing" / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--out", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"a6k3: error: cannot write the report to {target}: " in err
    assert "Traceback" not in err and not target.exists()


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["all", "--format", "yaml"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_report_commands_cover_all_stages():
    assert set(COMMANDS) == {"all", "groups", "chartab", "decompose", "exclude", "lattice"}
    report = build_report("all")
    ids = [check["id"] for check in report["checks"]]
    assert ids == [
        "groups.tower",
        "groups.overgroups",
        "groups.m10_coset",
        "ext.candidates",
        "ext.structure",
        "chartab.a6",
        "chartab.prime_stability",
        "lefschetz.rank",
        "decompose.solve",
        "exclude.sign_cases",
        "exclude.pipeline",
        "exclude.free_order4",
        "lattice.forms",
    ]


def test_verbose_goes_to_stderr(capsys):
    code = main(["lattice", "--format", "json", "-v"])
    captured = capsys.readouterr()
    assert code == 0
    json.loads(captured.out)  # stdout stays parseable


COUNT_PERM_PRODUCTS = """
import contextlib, io
from a6k3 import cli, permgrp

mul, count = permgrp.Perm.__mul__, [0]

def counting(p, q):
    count[0] += 1
    return mul(p, q)

permgrp.Perm.__mul__ = counting
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["all", "--format", "json"])
print(code, count[0])
"""


def test_cold_report_multiplies_through_the_index_tables():
    # group work runs on int tables and composed images, not on Perm
    # products; what is left is __pow__ and single-element checks
    env = dict(os.environ, PYTHONPATH=str(Path(a6k3.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", COUNT_PERM_PRODUCTS], capture_output=True, text=True, env=env, check=True
    ).stdout
    code, products = map(int, out.split())
    assert code == 0
    assert products <= 57


UNUSED_AT_START = ("dataclasses", "inspect", "typing", "traceback")

IMPORT_BUDGET = """
import sys
import a6k3.cli
print(*(m for m in %r if m in sys.modules))
""" % (UNUSED_AT_START,)

# one stage raises; without -v the report says so and nothing reads a traceback
STAGE_ERROR_WITHOUT_V = """
import contextlib, io, sys
from a6k3 import cli

def broken():
    raise RuntimeError("stage broke")

cli.stage_decompose = broken
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["all"])
print(code, "traceback" in sys.modules)
print(*(line for line in out.getvalue().splitlines() if line.startswith("[FAIL]")), sep="\\n")
"""


def run_isolated(code):
    # -S: no site module, so no .pth file of the host imports anything first
    env = dict(os.environ, PYTHONPATH=str(Path(a6k3.__file__).parent.parent))
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)


def test_import_path_skips_unused_stdlib_machinery():
    proc = run_isolated(IMPORT_BUDGET)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_stage_error_without_verbose_imports_no_traceback():
    proc = run_isolated(STAGE_ERROR_WITHOUT_V)
    assert proc.stderr == ""
    status, *fails = proc.stdout.splitlines()
    assert status == "1 False"
    assert fails == ["[FAIL] decompose.error: the decompose stage runs to completion"]
