"""Command-line front end: builds the groups, runs every verification stage
and emits a deterministic text or JSON report.

Exit status: 0 when every check in scope passes, 1 when a check fails or
the report cannot be rendered or written to stdout, 2 on usage errors.  A
report that cannot be rendered prints one line on stderr and nothing on
stdout.  A closed stdout ends silently; any other failed write prints one
line on stderr.  The report carries a verdict only when every check in it
passed and, for `all`, its checks are the claims of `CLAIMS`, each once;
otherwise, or when the verdict cannot be read, a failing `verdict.error`
check stands in its place.  A stage that raises, or has no function, shows
up as one failing `<stage>.error` check, and the later stages still run;
its traceback goes to stderr with -v, and only then is the `traceback`
module imported.  The text report renders the A6 table after the stages
have run; a table that fails to render is a failing `render.error` check in
the same way, and voids the verdict.
Nothing mathematical is configurable; the fixtures are frozen and only the
presentation varies.  `run`, the process entry, returns the status of `main`
after `gc.freeze()`, so that the exit does not collect every object the run
made; `main` leaves the collector alone for in-process callers.

`CLAIMS` states each of the paper's claims once: the text a check prints and
the value it must compute.  A check passes exactly when its computed value
equals its claim.  The engine modules hold no expected answer; their
`require`s check only that a computation agrees with itself, so the verdict
M10_2 passes `exclude.pipeline` because the exclusion derived it.

This module alone knows the report's format.  The records of the other
modules carry data and nothing else: a namedtuple record enters the JSON
through `_asdict()`, its tuples written as lists, and the text forms of a
character table, a trace condition and the integrality argument's sample
are written here, each value in them by its own `CycloNum.render_text`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .chartab import CharacterTable, character_table, class_labels, match_reference_table
from .extbuild import (
    build_all_candidates,
    pairwise_nonisomorphic,
    verify_extension_structure,
)
from .k3verify import (
    AXIOMS,
    CONTRADICTION,
    K3_EULER_NUMBER,
    ClassEquation,
    NikulinTable,
    RANK_INVARIANT_H2,
    argument_free_c4,
    decomposition_system,
    euler_iota,
    lattice_checks,
    lefschetz_invariant_rank,
    nonpositive_sign_cases,
    perturb_identity_equation,
    run_exclusion,
    solve_decomposition,
)
from .permgrp import class_fusion, fingerprint, require
from .pgl9 import build_pgammal29, build_pgl29, build_psl29, classify_overgroups, m10_order4_class_check

REPORT_VERSION = "1"
COMMANDS = ("all", "groups", "chartab", "decompose", "exclude", "lattice")
STAGES = COMMANDS[1:]

_verbose = False


def _note(msg: str):
    if _verbose:
        print(msg, file=sys.stderr)


# check id -> (the text the report prints, the value the check must compute)
CLAIMS = {
    "groups.tower": ("PSL(2,9) < PGL(2,9) < PGammaL(2,9) have orders 360, 720, 1440", (360, 720, 1440)),
    # how many distinct overgroups, the order of each, the classes each
    # fuses, and whether the one labeled PGL(2,9) is the Moebius group
    "groups.overgroups": (
        "exactly three index-2 overgroups of PSL(2,9), separated by class fusion",
        (3, (720, 720, 720), {"s6": "swaps 5A/5B", "pgl": "swaps 3A/3B", "m10": "swaps both"}, True),
    ),
    "groups.m10_coset": (
        "the nontrivial M10 coset has no involutions; its order-4 elements form one class", (0, True)
    ),
    "ext.candidates": (
        "the four A6.mu4 groups have order 1440, distinct fingerprints, and identify() recovers each",
        ((1440, 1440, 1440, 1440), True),
    ),
    "ext.structure": (
        "each candidate splits over A6, embeds via (conjugation, alpha), and carries the central involution (1, -1)",
        True,
    ),
    "chartab.a6": (
        "the computed A6 table matches the golden 7x7 table with degrees (1,5,5,8,8,9,10)",
        ((1, 5, 5, 8, 8, 9, 10), True),
    ),
    "chartab.prime_stability": (
        "recomputation with the next admissible prime reproduces the identical exact table", (True, True)
    ),
    # the rank, and whether it less the degree-0 and degree-4 summands is RANK_INVARIANT_H2
    "lefschetz.rank": ("the A6-invariant part of the full K3 cohomology has rank 5", (5, True)),
    # the solutions, then those of the perturbed control system
    "decompose.solve": (
        "the trace conditions admit exactly one multiplicity vector: (1,1,0,0,1,0)", (((1, 1, 0, 0, 1, 0),), ())
    ),
    "exclude.sign_cases": (
        "exactly four sign triples give a nonpositive Euler number for the fixed locus of iota",
        {(-1, 1, -1), (1, -1, -1), (-1, -1, -1), (-1, -1, 1)},
    ),
    "exclude.pipeline": ("A6_4, S6_2 and PGL29_2 are excluded in every sign case; M10_2 survives", "M10_2"),
    # the argument's status, and the algebraic Euler number it read
    "exclude.free_order4": (
        "no free order-4 action: the algebraic Euler number 2 is not divisible by 4", (CONTRADICTION, 2)
    ),
    # each form's rank, determinant, parity and (positive, negative) signature
    "lattice.forms": (
        "U, E8, U^3+E8^2 and diag(6,6) have the stated rank, determinant, parity and signature",
        {"U": (2, -1, True, (1, 1)), "E8": (8, 1, True, (0, 8)), "U^3 + E8^2": (22, -1, True, (3, 19)),
         "T(F)": (2, 36, True, (2, 0))},
    ),
}


def _record(check_id: str, paper_ref: str, passed: bool, witnesses: dict, axioms=()) -> dict:
    return {
        "id": check_id,
        "paper_ref": paper_ref,
        "status": "pass" if passed else "fail",
        "witnesses": witnesses,
        "axioms_used": list(axioms),
    }


def _check(check_id: str, computed, witnesses: dict, axioms=()) -> dict:
    """A check passes exactly when it computed the value its claim states."""
    paper_ref, expected = CLAIMS[check_id]
    return _record(check_id, paper_ref, computed == expected, witnesses, axioms)


def _fusion_text(fusion) -> str:
    swapped = [pair for pair, swaps in zip(("3A/3B", "5A/5B"), fusion) if swaps]
    return "swaps " + ("both" if len(swapped) == 2 else swapped[0])


def stage_groups() -> list[dict]:
    _note("building the projective tower over GF(9)")
    pgl = build_pgl29()
    gam = build_pgammal29()
    psl = build_psl29()
    orders = {"psl": len(psl), "pgl": len(pgl), "pgammal": len(gam)}
    checks = [_check("groups.tower", tuple(orders.values()), orders)]
    split = classify_overgroups()
    over = {"s6": split.s6, "pgl": split.pgl, "m10": split.m10}
    fusion = {k: _fusion_text(class_fusion(H, psl)) for k, H in over.items()}
    moebius = split.pgl == pgl
    checks.append(
        _check(
            "groups.overgroups",
            (len({H.images for H in over.values()}), tuple(len(H) for H in over.values()), fusion, moebius),
            {"orders": {k: len(H) for k, H in over.items()}, "fusion": fusion, "pgl_matches_moebius_group": moebius},
        )
    )
    facts = m10_order4_class_check(split.m10, psl)
    checks.append(
        _check(
            "groups.m10_coset",
            (facts.involutions_outside, facts.order4_outside_one_class),
            {
                "involutions_outside": facts.involutions_outside,
                "order4_count": facts.order4_count,
                "order4_one_class": facts.order4_outside_one_class,
            },
        )
    )
    _note("building the four A6.mu4 candidates")
    cands = build_all_candidates()
    for kind, c in cands.items():
        _note(f"  {kind}: {len(c.group)} elements, centralizer of A6: {len(c.group) // c.conj_image_order} elements")
    prints = {kind: fingerprint(c.group) for kind, c in cands.items()}
    checks.append(
        _check(
            "ext.candidates",
            (tuple(len(c.group) for c in cands.values()), pairwise_nonisomorphic(cands.values())),
            {
                kind: {
                    "degree": c.group.degree,
                    "center_order": prints[kind].center_order,
                    "conj_image_order": c.conj_image_order,
                    "fusion": {"swaps_3": c.fusion.swaps_3, "swaps_5": c.fusion.swaps_5},
                }
                for kind, c in cands.items()
            },
        )
    )
    reports = {kind: verify_extension_structure(c) for kind, c in cands.items()}
    checks.append(
        _check(
            "ext.structure",
            all(r.passed for r in reports.values()),
            {
                kind: {**r._asdict(), "central_involution": r.central_involution.cycle_string(), "passed": r.passed}
                for kind, r in reports.items()
            },
        )
    )
    return checks


def stage_chartab() -> list[dict]:
    _note("computing the A6 character table (Dixon-Schneider)")
    psl = build_psl29()
    table = character_table(psl)
    _note(f"  A6: {len(psl)} elements, {len(table.classes)} classes, prime {table.prime}")
    checks = [
        _check(
            "chartab.a6",
            (table.degrees, match_reference_table(table)),
            {
                "degrees": list(table.degrees),
                "classes": list(class_labels(table.classes)),
                "prime": table.prime,
            },
        )
    ]
    _note("recomputing with the next admissible prime")
    again = character_table(psl, prime_index=1)
    _note(f"  A6: {len(psl)} elements, {len(again.classes)} classes, prime {again.prime}")
    same = all(
        v == w for r1, r2 in zip(table.rows, again.rows) for v, w in zip(r1, r2)
    )
    checks.append(
        _check(
            "chartab.prime_stability",
            (same, again.prime != table.prime),
            {"first_prime": table.prime, "second_prime": again.prime},
        )
    )
    return checks


def stage_decompose() -> list[dict]:
    nik = NikulinTable()
    psl = build_psl29()
    rank = lefschetz_invariant_rank(psl, nik)
    checks = [
        _check(
            "lefschetz.rank",
            (rank, rank - 2 == RANK_INVARIANT_H2),
            {
                "rank": str(rank),
                "accounting": f"{rank} = {RANK_INVARIANT_H2} (invariant H^2) + 2 (degree-0 and degree-4 parts)",
            },
        )
    ]
    table = character_table(psl)
    equations = decomposition_system(table, nik)
    sols = solve_decomposition(equations)
    control = solve_decomposition(perturb_identity_equation(equations, 21))
    checks.append(
        _check(
            "decompose.solve",
            (sols, control),
            {
                "solutions": [list(s) for s in sols],
                "equations": [_equation_text(eq) for eq in equations],
                "perturbed_control_solutions": len(control),
            },
        )
    )
    return checks


def _outcome_witness(outcome) -> dict:
    """An exclusion outcome as the report writes it: a `sample` value as text."""
    witnesses = {k: v.render_text() if k == "sample" else v for k, v in outcome.witnesses.items()}
    return {**outcome._asdict(), "witnesses": witnesses}


def stage_exclude() -> list[dict]:
    nik = NikulinTable()
    psl = build_psl29()
    table = character_table(psl)
    cands = build_all_candidates()
    cases = nonpositive_sign_cases()
    checks = [
        _check(
            "exclude.sign_cases",
            set(cases),
            {"cases": [list(c) for c in cases], "euler_values": [euler_iota(c) for c in cases]},
            axioms=("A1",),
        )
    ]
    _note("running the sign-case exclusion")
    report = run_exclusion(cands.values(), table, nik)
    checks.append(
        _check(
            "exclude.pipeline",
            report.verdict,
            {
                "verdict": report.verdict,
                "outcomes": [_outcome_witness(o) for o in report.outcomes],
                "notes": list(report.notes),
                "axioms": AXIOMS,
            },
            axioms=("A1", "A2"),
        )
    )
    # Noether's formula: chi(O_S) = (K^2 + e) / 12 with K^2 = 0
    require(K3_EULER_NUMBER % 12 == 0, f"K3 Euler number {K3_EULER_NUMBER} is not divisible by 12")
    euler = K3_EULER_NUMBER // 12
    free = argument_free_c4(euler)
    checks.append(_check("exclude.free_order4", (free.status, euler), free.witnesses))
    return checks


def stage_lattice() -> list[dict]:
    entries = lattice_checks()
    return [_check("lattice.forms", {e.name: e[1:] for e in entries}, {"entries": [e._asdict() for e in entries]})]


def _error_check(name: str, exc: Exception) -> dict:
    if _verbose:  # only -v reads the traceback, so only -v imports its module
        import traceback

        _note(traceback.format_exc())
    error = {"error": f"{type(exc).__name__}: {exc}"}
    return _record(f"{name}.error", f"the {name} stage runs to completion", False, error)


def build_report(command: str) -> dict:
    checks = []
    for name in STAGES if command == "all" else (command,):
        try:
            # looked up at call time, so a wrapped stage function is the one run
            checks.extend(globals()["stage_" + name]())
        except Exception as exc:
            checks.append(_error_check(name, exc))
    verdict = None
    if all(check["status"] == "pass" for check in checks):
        try:
            claims = sorted(c["id"] for c in checks) == sorted(CLAIMS)
            require(command != "all" or claims, "the checks are not the claims, each once")
            verdict = next((c["witnesses"]["verdict"] for c in checks if c["id"] == "exclude.pipeline"), None)
        except Exception as exc:
            checks.append(_error_check("verdict", exc))
    return {"version": REPORT_VERSION, "checks": checks, "verdict": verdict}


def render_table_text(table: CharacterTable) -> str:
    labels = class_labels(table.classes)
    body = [[v.render_text() for v in row] for row in table.rows]
    names = [f"chi{i+1}" for i in range(len(table.rows))]
    widths = [max(len(labels[j]), *(len(body[i][j]) for i in range(len(body)))) for j in range(len(labels))]
    name_w = max(len(n) for n in names)
    lines = [" " * name_w + "  " + "  ".join(l.rjust(w) for l, w in zip(labels, widths))]
    lines.append(" " * name_w + "  " + "  ".join("-" * w for w in widths))
    for name, row in zip(names, body):
        lines.append(name.ljust(name_w) + "  " + "  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _equation_text(eq: ClassEquation) -> str:
    names = [f"a{i}" for i in range(2, 8)]
    parts = []
    for c, n in zip(eq.coeffs, names):
        text = c.render_text()
        if " " in text or text.startswith("-"):
            text = f"({text})"
        parts.append(f"{text}*{n}")
    return f"{eq.fixed_euler - 4} = 1 + " + " + ".join(parts)


def render_text(command: str, report: dict) -> str:
    """The text report.  The A6 table is rendered first, so that a failure
    there is added to the report as a failing `render.error` check, which
    voids the verdict, before the check lines are written."""
    by_id = {check["id"]: check for check in report["checks"]}
    table_text = None
    if by_id.get("chartab.a6", {}).get("status") == "pass":
        try:
            # the table is cached on PSL(2,9) by the passing stage
            table_text = render_table_text(character_table(build_psl29()))
        except Exception as exc:
            report["checks"].append(_error_check("render", exc))
            report["verdict"] = None
    lines = [f"a6k3 verification report (command: {command})", ""]
    for check in report["checks"]:
        flag = "PASS" if check["status"] == "pass" else "FAIL"
        lines.append(f"[{flag}] {check['id']}: {check['paper_ref']}")
    if table_text is not None:
        lines.append("")
        lines.append("A6 character table:")
        lines.append(table_text)
    sys_check = by_id.get("decompose.solve")
    if sys_check:
        lines.append("")
        lines.append("trace conditions:")
        for eq in sys_check["witnesses"]["equations"]:
            lines.append("  " + eq)
        for sol in sys_check["witnesses"]["solutions"]:
            lines.append("multiplicity vector: (" + ", ".join(str(v) for v in sol) + ")")
    if report["verdict"]:
        lines.append("")
        lines.append(f"VERDICT: {report['verdict']}")
    lines.append("")
    return "\n".join(lines)


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def main(argv=None) -> int:
    global _verbose
    parser = argparse.ArgumentParser(
        prog="a6k3",
        description="Exact verification of which A6.mu4 extension acts on a K3 surface.",
    )
    parser.add_argument("command", choices=COMMANDS, help="pipeline stage to run")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="PATH", help="write the report to a file")
    parser.add_argument("-v", "--verbose", action="store_true", help="progress on stderr")
    args = parser.parse_args(argv)
    _verbose = args.verbose
    try:
        report = build_report(args.command)
        try:
            payload = render_json(report) if args.format == "json" else render_text(args.command, report)
        except Exception as exc:
            print(f"a6k3: cannot render the report: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    finally:
        _verbose = False
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            parser.error(f"cannot write the report to {args.out}: {exc.strerror}")
    else:
        try:
            sys.stdout.write(payload)
            sys.stdout.flush()
        except OSError as exc:  # not delivered; devnull takes the flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if not isinstance(exc, BrokenPipeError):  # a closed pipe has no reader to tell
                print(f"a6k3: cannot write the report: {exc.strerror}", file=sys.stderr)
            return 1
    return 0 if all(check["status"] == "pass" for check in report["checks"]) else 1


def run(argv=None) -> int:
    status = main(argv)
    gc.freeze()  # the OS frees this memory; the exit-time collection would walk it
    return status


if __name__ == "__main__":
    sys.exit(run())
