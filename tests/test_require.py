"""One way to fail a check: `require` raises VerificationError, under -O too,
and every `require` the report reaches fails it cleanly."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from testkit import REPORT_DIGEST, SRC, clear_caches, package_modules

from a6k3 import cli, permgrp


def run_optimized(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run(
        [sys.executable, "-O", *args], capture_output=True, text=True, env=env, check=True
    ).stdout


def test_no_other_way_to_fail_a_check():
    found = []
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Assert):
                found.append(f"{where} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("AssertionError", "RuntimeError"):
                    found.append(f"{where} raise {exc.id}")
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name in ("require", "VerificationError"):
                    defined.append(node.name)
    assert found == []
    assert sorted(defined) == ["VerificationError", "require"]


CORRUPT_PGL29_TABLE = """
import sys
from a6k3 import chartab
from a6k3.permgrp import VerificationError
from a6k3.pgl9 import build_pgl29

verify = chartab._verify_orthogonality

def corrupted(table):
    rows = [list(row) for row in table.rows]
    rows[1][1] = rows[1][1] + 1
    table.rows = tuple(tuple(row) for row in rows)
    verify(table)

chartab._verify_orthogonality = corrupted
try:
    chartab.character_table(build_pgl29())
except VerificationError as exc:
    print("optimize", sys.flags.optimize, "VerificationError", exc)
else:
    print("optimize", sys.flags.optimize, "returned the corrupted table")
"""


def test_orthogonality_check_survives_optimize():
    out = run_optimized("-c", CORRUPT_PGL29_TABLE)
    assert out.startswith("optimize 1 VerificationError")
    assert "orthogonality fails" in out


def test_report_digest_under_optimize():
    out = run_optimized("-m", "a6k3.cli", "all", "--format", "json")
    assert hashlib.md5(out.encode()).hexdigest() == REPORT_DIGEST


def is_rational_call(node):
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "is_rational"


def unchecked_integer_reads(src):
    """(file name, line) of each int() call on an is_rational() result, given
    directly or through a name bound to one in the same function."""
    found = set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            bound = {
                t.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Assign) and is_rational_call(node.value)
                for t in node.targets
                if isinstance(t, ast.Name)
            }
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "int" and node.args:
                    arg = node.args[0]
                    if is_rational_call(arg) or getattr(arg, "id", None) in bound:
                        found.add((path.name, node.lineno))
    return sorted(found)


def test_no_unchecked_integer_read():
    # a rational integer is read with `exact._integer`, which requires one;
    # int() of an is_rational() result raises TypeError on an irrational value
    assert unchecked_integer_reads(SRC) == []


# the functions holding a require that no stage of the report calls
UNREACHED = {"conjugation_image"}
ALL_CLAIMS = cli.CLAIMS


def require_sites():
    """(file name, line) of each require call in the package, with the name
    of the top-level function or class around it."""
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require":
                    sites[path.name, node.lineno] = getattr(top, "name", None)
    return sites


def partial_report(monkeypatch, capsys, stages, claims):
    """`all` over the given stages, with `CLAIMS` cut to the given check ids,
    so that the report's own claims require holds when no check fails:
    (exit code, failed check ids, stderr, verdict)."""
    monkeypatch.setattr(cli, "STAGES", stages)
    monkeypatch.setattr(cli, "CLAIMS", {i: ALL_CLAIMS[i] for i in claims})
    code = cli.main(["all", "--format", "json"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    failed = [c["id"] for c in report["checks"] if c["status"] == "fail"]
    return code, failed, err, report["verdict"]


def fails_cleanly(code, failed, err, verdict):
    return code == 1 and bool(failed) and not err and verdict is None


def test_a_swallowed_require_leaves_a_partial_report_unclean(capsys, monkeypatch):
    # a forced require that the code around it swallows leaves every check
    # passing, as an unforced run does; over a strict subset of the stages
    # that run reads a verdict with the claims cut to those stages, but would
    # fail only `verdict.error` if every claim were required
    stages = ("lattice", "exclude")
    claims = [c["id"] for s in stages for c in getattr(cli, "stage_" + s)()]
    assert partial_report(monkeypatch, capsys, stages, claims) == (0, [], "", "M10_2")
    assert not fails_cleanly(*partial_report(monkeypatch, capsys, stages, claims))
    assert fails_cleanly(*partial_report(monkeypatch, capsys, stages, ALL_CLAIMS))


def test_every_reached_require_fails_the_report_cleanly(capsys, monkeypatch):
    # one unforced run records the stages that reach each site; then each
    # site is forced to fail in turn, from cold builders, and the stages that
    # reach it run together with `exclude`, the stage the verdict is read from,
    # and the claims are those of the stages run
    sites = require_sites()
    original = permgrp.require
    reached, forced, stage = {}, None, None

    def require(condition, message):
        caller = sys._getframe(1)
        site = (Path(caller.f_code.co_filename).name, caller.f_lineno)
        if stage:
            reached.setdefault(site, set()).add(stage)
        original(condition and site != forced, message)

    for module in package_modules():
        if "require" in vars(module):
            monkeypatch.setattr(module, "require", require)
    stages = cli.STAGES
    ids = {}
    clear_caches()
    for stage in stages:
        checks = getattr(cli, "stage_" + stage)()
        assert all(c["status"] == "pass" for c in checks)
        ids[stage] = [c["id"] for c in checks]
    # the report's own require reads the checks of every stage; a forced run
    # always includes `exclude`, so that stage stands for them
    stage = "exclude"
    assert cli.build_report("all")["verdict"] == "M10_2"
    stage = None
    capsys.readouterr()  # the stages print progress notes after a -v run
    assert reached.keys() <= sites.keys()
    assert {sites[s] for s in sites.keys() - reached.keys()} <= UNREACHED

    unclean = []
    for site, by in sorted(reached.items()):
        ran = tuple(s for s in stages if s in by or s == "exclude")
        clear_caches()
        forced = site
        result = partial_report(monkeypatch, capsys, ran, [i for s in ran for i in ids[s]])
        forced = None
        clear_caches()
        if not fails_cleanly(*result):
            unclean.append((site, *result))
    assert unclean == []
