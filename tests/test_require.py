"""One way to fail a check: `require` raises VerificationError, under -O too."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import a6k3

SRC = Path(a6k3.__file__).parent
REPORT_DIGEST = "ac027fccd946ffad638ccb95bdd9786a"


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
from a6k3 import VerificationError, chartab
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
