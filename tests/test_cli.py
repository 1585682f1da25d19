"""The command-line front end: report shapes, determinism, exit codes."""

import ast
import gc
import hashlib
import importlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from testkit import REPORT_DIGEST, TEXT_REPORT_DIGEST

import a6k3
from a6k3 import chartab, cli
from a6k3.chartab import character_table
from a6k3.cli import COMMANDS, REPORT_VERSION, build_report, main, render_table_text
from a6k3.exact import CycloNum, euler_phi
from a6k3.k3verify import NikulinTable, decomposition_system
from a6k3.pgl9 import build_psl29


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


# one term of a rendered value: [mag*]z<order>[^power], or a rational
TERM = re.compile(r"(?:(?P<mag>\d+(?:/\d+)?)\*)?z(?P<order>\d+)(?:\^(?P<power>\d+))?|(?P<rational>\d+(?:/\d+)?)")


def parse_value(text):
    """The value that a `CycloNum.render_text` string names, read
    independently of the renderer: a Fraction when no power of
    zeta is written, else a CycloNum of the one order its powers name."""
    pieces = re.split(r" ([+-]) ", text)
    signs = ["-" if pieces[0].startswith("-") else "+", *pieces[1::2]]
    bodies = [pieces[0].removeprefix("-"), *pieces[2::2]]
    orders, terms = set(), {}
    for sign, body in zip(signs, bodies):
        m = TERM.fullmatch(body)
        assert m is not None, f"{body!r} in {text!r} is not a term"
        if m["order"]:
            orders.add(int(m["order"]))
        power = int(m["power"] or 1) if m["order"] else 0
        assert power not in terms, f"power {power} written twice in {text!r}"
        mag = Fraction(m["rational"] or m["mag"] or 1)
        terms[power] = -mag if sign == "-" else mag
    assert len(orders) <= 1, f"{text!r} mixes orders"
    if not orders:
        return terms[0]
    (order,) = orders
    coeffs = [0] * euler_phi(order)
    for power, c in terms.items():
        coeffs[power] = c  # a power at or past phi(order) is no reduced form
    return CycloNum(order, coeffs)


def table_cells(text):
    """The cells of a rendered table, row by row: each column spans the
    dashes under its label, and its entries are right-justified there."""
    lines = text.splitlines()
    spans = [m.span() for m in re.finditer(r"-+", lines[1])]
    return [[line[a:b].strip() for a, b in spans] for line in lines[2:]]


def test_parser_reads_back_rendered_values():
    rng = random.Random(2718)
    for _ in range(300):
        order = rng.choice((1, 2, 3, 4, 5, 8, 12, 15, 60, 120))
        picks = (0, 1, -1, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(2, 5)))
        v = CycloNum(order, [rng.choice(picks) for _ in range(euler_phi(order))])
        assert parse_value(v.render_text()) == v


def test_printed_table_is_the_computed_table():
    table = character_table(build_psl29())
    cells = table_cells(render_table_text(table))
    assert len(cells) == len(table.rows)
    for row, printed in zip(table.rows, cells, strict=True):
        assert all(parse_value(text) == v for v, text in zip(row, printed, strict=True))


def test_printed_equations_are_the_computed_equations():
    report = build_report("decompose")
    solve = next(c for c in report["checks"] if c["id"] == "decompose.solve")
    equations = decomposition_system(character_table(build_psl29()), NikulinTable())
    printed = solve["witnesses"]["equations"]
    assert len(printed) == len(equations)
    for eq, text in zip(equations, printed):
        lhs, rhs = text.split(" = 1 + ")
        assert int(lhs) == eq.fixed_euler - 4
        parts = re.findall(r"(\([^)]*\)|[^ ()]+)\*a(\d)", rhs)
        assert [int(i) for _, i in parts] == list(range(2, 8))
        assert " + ".join(f"{c}*a{i}" for c, i in parts) == rhs  # nothing else is written
        for coeff, (c, _) in zip(eq.coeffs, parts, strict=True):
            assert parse_value(c.removeprefix("(").removesuffix(")")) == coeff


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


def test_warm_report_builds_no_golden_key():
    # the golden table's key is built once; a second report in the same
    # process finds it built
    build_report("all")
    misses = chartab._golden_key.cache_info().misses
    build_report("all")
    assert chartab._golden_key.cache_info().misses == misses


def test_verbose_goes_to_stderr(capsys):
    code = main(["lattice", "--format", "json", "-v"])
    captured = capsys.readouterr()
    assert code == 0
    json.loads(captured.out)  # stdout stays parseable


def test_verbose_holds_for_one_call(capsys):
    # -v is not left behind as process state: a later report is quiet
    assert main(["lattice", "-v"]) == 0
    capsys.readouterr()
    build_report("groups")
    assert capsys.readouterr().err == ""


def test_verbose_says_how_big_things_are(capsys):
    # -v names each candidate's order and the order of its centralizer of
    # A6, and each table's group order, class count and prime; stdout keeps
    # the report byte for byte
    assert main(["all", "--format", "json", "-v"]) == 0
    captured = capsys.readouterr()
    assert hashlib.md5(captured.out.encode()).hexdigest() == REPORT_DIGEST
    notes = captured.err.splitlines()
    for kind, centralizer in {"A6_4": 4, "S6_2": 2, "PGL29_2": 2, "M10_2": 2}.items():
        assert f"  {kind}: 1440 elements, centralizer of A6: {centralizer} elements" in notes
    checks = {check["id"]: check["witnesses"] for check in json.loads(captured.out)["checks"]}
    for prime in (checks["chartab.a6"]["prime"], checks["chartab.prime_stability"]["second_prime"]):
        assert f"  A6: 360 elements, 7 classes, prime {prime}" in notes


COUNT_PERM_WORK = """
import contextlib, io
from a6k3 import cli, permgrp

Perm, counts = permgrp.Perm, {"products": 0, "hashes": 0, "wraps": 0, "class_records": 0}

def counting(name, fn):
    def counted(*args):
        counts[name] += 1
        return fn(*args)
    return counted

Perm.__mul__ = counting("products", Perm.__mul__)
Perm.__hash__ = counting("hashes", Perm.__hash__)
Perm._raw = classmethod(counting("wraps", Perm._raw.__func__))
permgrp.ConjClassData.__new__ = counting("class_records", permgrp.ConjClassData.__new__)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["all", "--format", "json"])
print(code, *counts.values())
"""


def test_cold_report_multiplies_through_the_index_tables():
    # group work runs on index lists and composed images, not on Perm
    # products; what is left is __pow__ and single-element checks.  Perms
    # are wrapped and hashed only where a caller or the report reads one,
    # and class records are built only for PSL(2,9), whose character table
    # and Lefschetz sum read them: its 7 classes
    env = dict(os.environ, PYTHONPATH=str(Path(a6k3.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", COUNT_PERM_WORK], capture_output=True, text=True, env=env, check=True
    ).stdout
    code, products, hashes, wraps, class_records = map(int, out.split())
    assert code == 0
    assert products <= 57
    assert hashes <= 2000 and wraps <= 800
    assert class_records == 7


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


def test_closed_stdout_ends_without_a_traceback():
    # the reader is gone before the report is written: exit status 1, since
    # the report was not delivered, and nothing on stderr
    env = dict(os.environ, PYTHONPATH=str(Path(a6k3.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "a6k3.cli", "all", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait() == 1
    assert stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
def test_unwritable_stdout_is_one_stderr_line():
    # a write that fails for another reason than a closed pipe: exit status 1
    # and one line on stderr, no traceback
    env = dict(os.environ, PYTHONPATH=str(Path(a6k3.__file__).parent.parent))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "a6k3.cli", "all", "--format", "json"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["a6k3: cannot write the report: No space left on device"]


def test_report_is_the_same_under_any_hash_seed():
    # the groups are sets of bytes, whose iteration order follows the hash seed
    for seed in ("0", "1", "42"):
        env = dict(os.environ, PYTHONPATH=str(Path(a6k3.__file__).parent.parent), PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-m", "a6k3.cli", "all", "--format", "json"],
            capture_output=True, env=env, check=True,
        ).stdout
        assert hashlib.md5(out).hexdigest() == REPORT_DIGEST, seed


def run_isolated(code):
    # -S: no site module, so no .pth file of the host imports anything first
    env = dict(os.environ, PYTHONPATH=str(Path(a6k3.__file__).parent.parent))
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)


# the process entry: the run's objects end frozen, out of the exit's collection
FROZEN_EXIT = """
import contextlib, gc, io
from a6k3 import cli
before = gc.get_freeze_count()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["lattice", "--format", "json"])
print(code, before, gc.get_freeze_count())
"""


def test_run_freezes_the_objects_of_the_run():
    proc = run_isolated(FROZEN_EXIT)
    assert proc.stderr == ""
    code, before, after = map(int, proc.stdout.split())
    assert code == 0 and before == 0 and after > 0


def test_main_leaves_the_collector_alone(capsys):
    # an in-process caller keeps its collector: a long-lived process that
    # froze each report would grow its memory without bound
    before = gc.get_freeze_count()
    assert run_cli(capsys, "lattice", "--format", "json")[0] == 0
    assert gc.get_freeze_count() == before and gc.isenabled()


def test_no_finalizer_for_a_frozen_exit_to_skip():
    # frozen objects are never collected, so a __del__ on a cycle among them would never run
    finalizers = [
        (path.name, node.lineno)
        for path in sorted(Path(a6k3.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "__del__"
    ]
    assert finalizers == []


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["a6k3"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run


def test_import_path_skips_unused_stdlib_machinery():
    proc = run_isolated(IMPORT_BUDGET)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


# the package's modules that a fresh interpreter holds after one import
PACKAGE_MODULES = """
import sys
import %s
print(*sorted(m for m in sys.modules if m.startswith("a6k3.")))
"""


@pytest.mark.parametrize(
    "modules, loaded",
    [
        ("a6k3", []),
        ("a6k3.permgrp", ["a6k3.permgrp"]),
        ("a6k3.extbuild", ["a6k3.extbuild", "a6k3.permgrp", "a6k3.pgl9"]),
        ("a6k3.pgl9, a6k3.chartab", ["a6k3.chartab", "a6k3.exact", "a6k3.permgrp", "a6k3.pgl9"]),
    ],
)
def test_a_module_loads_only_the_modules_it_imports(modules, loaded):
    # the package namespace imports nothing, so a caller of one module
    # compiles only that module and its own imports
    proc = run_isolated(PACKAGE_MODULES % modules)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == loaded


@pytest.mark.parametrize("renderer, fmt", [("render_json", "json"), ("render_text", "text")])
def test_report_that_cannot_be_rendered_is_one_stderr_line(monkeypatch, capsys, renderer, fmt):
    def broken(*args):
        raise ValueError("no renderer")

    monkeypatch.setattr(cli, renderer, broken)
    assert main(["lattice", "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["a6k3: cannot render the report: ValueError: no renderer"]


def test_stage_error_without_verbose_imports_no_traceback():
    proc = run_isolated(STAGE_ERROR_WITHOUT_V)
    assert proc.stderr == ""
    status, *fails = proc.stdout.splitlines()
    assert status == "1 False"
    assert fails == ["[FAIL] decompose.error: the decompose stage runs to completion"]
