"""Command-line front end: builds the groups, runs every verification stage
and emits a deterministic text or JSON report.

Exit status: 0 when every check in scope passes (for `all` and `exclude`
this includes the verdict M10_2), 1 when a check fails, 2 on usage errors.
A stage that raises shows up as one failing `<stage>.error` check, and the
later stages still run; its traceback goes to stderr with -v, and only then
is the `traceback` module imported.
Nothing mathematical is configurable; the fixtures are frozen and only the
presentation varies.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chartab import (
    character_table,
    class_labels,
    match_reference_table,
    render_table_text,
)
from .extbuild import (
    build_all_candidates,
    pairwise_nonisomorphic,
    verify_extension_structure,
)
from .k3verify import (
    AXIOMS,
    CONTRADICTION,
    MultiplicityVector,
    NikulinTable,
    RANK_INVARIANT_H2,
    SignCase,
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
from .permgrp import fingerprint
from .pgl9 import build_pgammal29, build_pgl29, build_psl29, classify_overgroups, m10_order4_class_check

REPORT_VERSION = "1"
COMMANDS = ("all", "groups", "chartab", "decompose", "exclude", "lattice")
STAGES = COMMANDS[1:]

_verbose = False


def _note(msg: str):
    if _verbose:
        print(msg, file=sys.stderr)


def _check(check_id: str, claim: str, passed: bool, witnesses: dict, axioms=()) -> dict:
    return {
        "id": check_id,
        "paper_ref": claim,
        "status": "pass" if passed else "fail",
        "witnesses": witnesses,
        "axioms_used": list(axioms),
    }


def stage_groups() -> list[dict]:
    _note("building the projective tower over GF(9)")
    pgl = build_pgl29()
    gam = build_pgammal29()
    psl = build_psl29()
    checks = [
        _check(
            "groups.tower",
            "PSL(2,9) < PGL(2,9) < PGammaL(2,9) have orders 360, 720, 1440",
            len(psl) == 360 and len(pgl) == 720 and len(gam) == 1440,
            {"psl": len(psl), "pgl": len(pgl), "pgammal": len(gam)},
        )
    ]
    split = classify_overgroups()
    over = {"s6": split.s6, "pgl": split.pgl, "m10": split.m10}
    distinct = len({H.images for H in over.values()}) == 3
    checks.append(
        _check(
            "groups.overgroups",
            "exactly three index-2 overgroups of PSL(2,9), separated by class fusion",
            distinct and all(len(H) == 720 for H in over.values()),
            {
                "orders": {k: len(H) for k, H in over.items()},
                "fusion": {"s6": "swaps 5A/5B", "pgl": "swaps 3A/3B", "m10": "swaps both"},
                "pgl_matches_moebius_group": split.pgl == pgl,
            },
        )
    )
    facts = m10_order4_class_check(split.m10, psl)
    checks.append(
        _check(
            "groups.m10_coset",
            "the nontrivial M10 coset has no involutions; its order-4 elements form one class",
            facts.involutions_outside == 0 and facts.order4_outside_one_class,
            {
                "involutions_outside": facts.involutions_outside,
                "order4_count": facts.order4_count,
                "order4_one_class": facts.order4_outside_one_class,
            },
        )
    )
    _note("building the four A6.mu4 candidates")
    cands = build_all_candidates()
    prints = {kind: fingerprint(c.group) for kind, c in cands.items()}
    checks.append(
        _check(
            "ext.candidates",
            "the four A6.mu4 groups have order 1440, distinct fingerprints, and identify() recovers each",
            all(len(c.group) == 1440 for c in cands.values())
            and pairwise_nonisomorphic(cands.values()),
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
            "each candidate splits over A6, embeds via (conjugation, alpha), and carries the central involution (1, -1)",
            all(r.passed for r in reports.values()),
            {kind: r.to_json() for kind, r in reports.items()},
        )
    )
    return checks


def stage_chartab() -> list[dict]:
    _note("computing the A6 character table (Dixon-Schneider)")
    psl = build_psl29()
    table = character_table(psl)
    checks = [
        _check(
            "chartab.a6",
            "the computed A6 table matches the golden 7x7 table with degrees (1,5,5,8,8,9,10)",
            table.degrees == (1, 5, 5, 8, 8, 9, 10) and match_reference_table(table),
            {
                "degrees": list(table.degrees),
                "classes": list(class_labels(table.classes)),
                "prime": table.prime,
            },
        )
    ]
    _note("recomputing with the next admissible prime")
    again = character_table(psl, prime_index=1)
    same = all(
        v == w for r1, r2 in zip(table.rows, again.rows) for v, w in zip(r1, r2)
    )
    checks.append(
        _check(
            "chartab.prime_stability",
            "recomputation with the next admissible prime reproduces the identical exact table",
            same and again.prime != table.prime,
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
            "the A6-invariant part of the full K3 cohomology has rank 5",
            rank == 5,
            {
                "rank": str(rank),
                "accounting": f"5 = {RANK_INVARIANT_H2} (invariant H^2) + 2 (degree-0 and degree-4 parts)",
            },
        )
    ]
    table = character_table(psl)
    system = decomposition_system(table, nik)
    sols = solve_decomposition(system)
    control = solve_decomposition(perturb_identity_equation(system, 21))
    expected = (MultiplicityVector(1, 1, 0, 0, 1, 0),)
    checks.append(
        _check(
            "decompose.solve",
            "the trace conditions admit exactly one multiplicity vector: (1,1,0,0,1,0)",
            sols == expected and control == (),
            {
                "solutions": [list(s) for s in sols],
                "equations": [eq.render() for eq in system.equations],
                "perturbed_control_solutions": len(control),
            },
        )
    )
    return checks


def stage_exclude() -> list[dict]:
    nik = NikulinTable()
    psl = build_psl29()
    table = character_table(psl)
    cands = build_all_candidates()
    cases = nonpositive_sign_cases()
    checks = [
        _check(
            "exclude.sign_cases",
            "exactly four sign triples give a nonpositive Euler number for the fixed locus of iota",
            set(cases)
            == {
                SignCase(-1, 1, -1),
                SignCase(1, -1, -1),
                SignCase(-1, -1, -1),
                SignCase(-1, -1, 1),
            },
            {"cases": [list(c) for c in cases], "euler_values": [euler_iota(c) for c in cases]},
            axioms=("A1",),
        )
    ]
    _note("running the sign-case exclusion")
    report = run_exclusion(cands.values(), table, nik)
    checks.append(
        _check(
            "exclude.pipeline",
            "A6_4, S6_2 and PGL29_2 are excluded in every sign case; M10_2 survives",
            report.verdict == "M10_2",
            {
                "verdict": report.verdict,
                "outcomes": report.to_json()["outcomes"],
                "notes": list(report.notes),
                "axioms": AXIOMS,
            },
            axioms=("A1", "A2"),
        )
    )
    free = argument_free_c4(2)
    checks.append(
        _check(
            "exclude.free_order4",
            "no free order-4 action: the algebraic Euler number 2 is not divisible by 4",
            free.status == CONTRADICTION,
            free.witnesses,
        )
    )
    return checks


def stage_lattice() -> list[dict]:
    report = lattice_checks()
    return [
        _check(
            "lattice.forms",
            "U, E8, U^3+E8^2 and diag(6,6) have the stated rank, determinant, parity and signature",
            report.ok,
            {"entries": [e.to_json() for e in report.entries]},
        )
    ]


def build_report(command: str) -> dict:
    checks = []
    for name in STAGES if command == "all" else (command,):
        # looked up at call time, so a wrapped stage function is the one run
        stage = globals()["stage_" + name]
        try:
            checks.extend(stage())
        except Exception as exc:
            if _verbose:  # only -v reads the traceback, so only -v imports its module
                import traceback

                _note(traceback.format_exc())
            error = {"error": f"{type(exc).__name__}: {exc}"}
            checks.append(_check(f"{name}.error", f"the {name} stage runs to completion", False, error))
    verdict = None
    for check in checks:
        if check["id"] == "exclude.pipeline" and check["status"] == "pass":
            verdict = check["witnesses"]["verdict"]
    return {"version": REPORT_VERSION, "checks": checks, "verdict": verdict}


def render_text(command: str, report: dict) -> str:
    lines = [f"a6k3 verification report (command: {command})", ""]
    for check in report["checks"]:
        flag = "PASS" if check["status"] == "pass" else "FAIL"
        lines.append(f"[{flag}] {check['id']}: {check['paper_ref']}")
    by_id = {check["id"]: check for check in report["checks"]}
    if by_id.get("chartab.a6", {}).get("status") == "pass":
        # the table is cached on PSL(2,9) by the passing stage
        lines.append("")
        lines.append("A6 character table:")
        lines.append(render_table_text(character_table(build_psl29())))
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

    report = build_report(args.command)
    payload = render_json(report) if args.format == "json" else render_text(args.command, report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            parser.error(f"cannot write the report to {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(payload)

    ok = all(check["status"] == "pass" for check in report["checks"])
    if args.command in ("all", "exclude"):
        ok = ok and report["verdict"] == "M10_2"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
