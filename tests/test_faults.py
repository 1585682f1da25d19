"""Fault injection: a corrupted input or fixture must surface as FAIL lines
and exit status 1, never as a traceback or as the verdict M10_2."""

import ast
import hashlib
import json
from contextlib import contextmanager
from functools import partial

import pytest
from testkit import REPORT_DIGEST, SRC, clear_caches

from a6k3 import chartab, cli, exact, extbuild, k3verify, permgrp
from a6k3.exact import CycloNum
from a6k3.extbuild import build_all_candidates
from a6k3.k3verify import NikulinTable, run_exclusion
from a6k3.permgrp import FusionType, Perm, VerificationError
from a6k3.pgl9 import build_psl29

# Nikulin's table with 5 instead of 6 fixed points for order 3
COUNTS_ORDER3_IS_5 = tuple((o, 5 if o == 3 else n) for o, n in NikulinTable().counts)


def nikulin_order3(monkeypatch):
    monkeypatch.setattr(cli, "NikulinTable", partial(NikulinTable, counts=COUNTS_ORDER3_IS_5))


def k3_euler(monkeypatch):
    monkeypatch.setattr(cli, "NikulinTable", partial(NikulinTable, whole_surface_euler=25))


def rank_fixture(monkeypatch):
    # the invariant H^2 is given rank 4, so the computed rank 5 is no longer
    # it plus the degree-0 and degree-4 summands
    monkeypatch.setattr(cli, "RANK_INVARIANT_H2", 4)


def golden_entry(monkeypatch):
    golden = chartab.reference_a6_rows

    def corrupted():
        rows = [list(row) for row in golden()]
        rows[6][1] = CycloNum.from_rational(2)  # chi7(2A) is -2
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(chartab, "reference_a6_rows", corrupted)


def mu4_generator(monkeypatch):
    # an involution on the tail points instead of the 4-cycle representing
    # zeta4; another 4-cycle there would give a relabeled but valid candidate
    def involution(total_degree):
        d = total_degree - 4
        return Perm.from_cycles([(d, d + 1), (d + 2, d + 3)], total_degree)

    monkeypatch.setattr(extbuild, "mu4_cycle", involution)


def coset_position(monkeypatch):
    # alpha numbers the a6-cosets by their position, least member first,
    # instead of by the powers of gtilde
    def by_position(G, a6, gtilde):
        return extbuild.CosetExponents(permgrp._cosets(G, a6))

    monkeypatch.setattr(extbuild, "_coset_exponents", by_position)


def fusion_label(monkeypatch):
    labels = dict(extbuild._KIND_BY_FUSION)
    s6, pgl = FusionType(swaps_3=False, swaps_5=True), FusionType(swaps_3=True, swaps_5=False)
    labels[s6], labels[pgl] = labels[pgl], labels[s6]
    monkeypatch.setattr(extbuild, "_KIND_BY_FUSION", labels)


def eigenvalue_root(monkeypatch):
    # the eigenspace split loses the largest root of a characteristic polynomial
    roots = chartab._eigenvalues
    monkeypatch.setattr(chartab, "_eigenvalues", lambda S, p: roots(S, p)[:-1])


def charpoly_term(monkeypatch):
    # the characteristic polynomial's constant term is off by one, for the
    # class matrices and the lattice forms alike
    charpoly = exact._charpoly

    def shifted(S, p):
        coeffs = charpoly(S, p)
        return [*coeffs[:-1], coeffs[-1] + 1]

    for module in (chartab, k3verify):
        monkeypatch.setattr(module, "_charpoly", shifted)


def table_generator(monkeypatch):
    # the conjugation action multiplies by s^-1 where it should multiply by s,
    # for the first generator s of G that is not an involution
    action, rmul = permgrp._normal_action, permgrp._rmul

    def mutated(G, A, **kwargs):
        first = next((s.images for s in G.generators if s != s.inverse()), None)
        permgrp._rmul = lambda s: rmul(Perm(s).inverse().images if s == first else s)
        try:
            return action(G, A, **kwargs)
        finally:
            permgrp._rmul = rmul

    monkeypatch.setattr(permgrp, "_normal_action", mutated)


def centralizer_generator(monkeypatch):
    # the centralizer filter reads only the first generator of A
    centralizer = permgrp.centralizer_of_subgroup

    def first_only(G, A):
        return centralizer(G, permgrp.closure(A.generators[:1]))

    for module in (permgrp, extbuild, k3verify):
        monkeypatch.setattr(module, "centralizer_of_subgroup", first_only)


def normal_closure(monkeypatch):
    # Dimino's algorithm ignores its conjugation maps, so the derived subgroup
    # is the closure of the generator commutators, not their normal closure
    dimino = permgrp._dimino

    def closure_only(seeds, degree, conjugations=()):
        return dimino(seeds, degree)

    monkeypatch.setattr(permgrp, "_dimino", closure_only)


def inverse_table(monkeypatch):
    # x^-1 maps x[i] to i + 1 instead of i on byte images, so it is no
    # permutation; Dimino's cosets of such products meet the closed set
    invert = permgrp._invert

    def shifted(x):
        if type(x) is bytes:
            return bytes.maketrans(x, permgrp._TAILS[1][: len(x)])[: len(x)]
        return invert(x)

    monkeypatch.setattr(permgrp, "_invert", shifted)


def phi_term(monkeypatch):
    # the cyclotomic reduction loses the highest nonzero lower term of Phi_n
    terms = exact._phi_terms
    monkeypatch.setattr(exact, "_phi_terms", lambda n: terms(n)[:-1])


def power_map_entry(monkeypatch):
    # each order-5 class reads its square as its first power: power_map[2]
    # is power_map[1]
    classes = permgrp.conjugacy_classes

    def mutated(G):
        return tuple(
            c._replace(power_map=(*c.power_map[:2], c.power_map[1], *c.power_map[3:])) if c.element_order == 5 else c
            for c in classes(G)
        )

    for module in (permgrp, chartab, k3verify):
        monkeypatch.setattr(module, "conjugacy_classes", mutated)


def gauss_pivot(monkeypatch):
    # the elimination over F_p returns its rows doubled mod p, so the
    # eigenvectors read off the reduced bases of the class algebra are wrong
    gauss = exact._gauss_jordan

    def doubled(rows, p):
        rows, pivots = gauss(rows, p)
        return [[2 * v % p for v in row] for row in rows], pivots

    monkeypatch.setattr(chartab, "_gauss_jordan", doubled)


def rational_column_weight(monkeypatch):
    # the orthogonality check sums the classes on which every row is
    # rational, as on their inverses, without their sizes |C_i|: it checks
    # the table with those classes of size 1
    verify = chartab._verify_orthogonality

    def unweighted(table):
        rational = [all(v.is_rational() is not None for v in column) for column in zip(*table.rows)]
        classes = tuple(
            c._replace(size=1) if rational[i] and rational[c.power_map[c.element_order - 1]] else c
            for i, c in enumerate(table.classes)
        )
        verify(chartab.CharacterTable(table.group_order, classes, table.rows, table.exponent, table.prime))

    monkeypatch.setattr(chartab, "_verify_orthogonality", unweighted)


# each mutant with the checks it must fail
MUTANTS = {
    nikulin_order3: {"lefschetz.rank", "decompose.solve", "exclude.error"},
    k3_euler: {"lefschetz.rank", "decompose.solve", "exclude.error"},
    golden_entry: {"chartab.a6", "decompose.error", "exclude.error"},
    mu4_generator: {"groups.error", "exclude.error"},
    coset_position: {"groups.error"},
    fusion_label: {"ext.candidates", "exclude.error"},
    eigenvalue_root: {"chartab.error", "decompose.error", "exclude.error"},
    charpoly_term: {"chartab.error", "decompose.error", "exclude.error", "lattice.forms"},
    table_generator: {"groups.error", "chartab.error", "decompose.error", "exclude.error"},
    phi_term: {"chartab.error", "decompose.error", "exclude.error"},
    power_map_entry: {"chartab.error", "decompose.error", "exclude.error"},
    centralizer_generator: {"groups.error", "exclude.error"},
    normal_closure: {"groups.error", "exclude.error"},
    gauss_pivot: {"chartab.error", "decompose.error", "exclude.error"},
    rational_column_weight: {"chartab.error", "decompose.error", "exclude.error"},
    rank_fixture: {"lefschetz.rank"},
    inverse_table: {"groups.error", "chartab.error", "decompose.error", "exclude.error"},
}

@contextmanager
def applied(mutate):
    """Apply one mutant from cold memos, and drop what it built on undo, so
    that no memo hides the mutant or outlives it."""
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as monkeypatch:
            mutate(monkeypatch)
            yield
    finally:
        # after the undo, so that the scan finds the memos the mutant replaced
        clear_caches()


def memoized_functions():
    """(module, name) of each function in the package decorated with
    `cache` or `lru_cache`, at any depth."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            for d in getattr(node, "decorator_list", ()):
                d = d.func if isinstance(d, ast.Call) else d  # lru_cache(maxsize=...)
                if getattr(d, "id", getattr(d, "attr", None)) in ("cache", "lru_cache"):
                    found.add((path.stem, node.name))
    return found


def test_cache_reset_reaches_every_memo():
    # a memo that the module scan cannot reach, nested or on a method, would
    # survive a mutant's undo
    memos, found = clear_caches(), memoized_functions()
    assert len(memos) == len(found)
    assert {(fn.__module__.rpartition(".")[2], fn.__name__) for fn in memos} == found
    assert all(fn.cache_info().currsize == 0 for fn in memos)


@pytest.mark.parametrize("mutate", list(MUTANTS), ids=lambda m: m.__name__)
def test_mutant_fails_the_report(mutate, capsys):
    with applied(mutate):
        assert cli.main(["all", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = {c["id"] for c in report["checks"] if c["status"] == "fail"}
        assert failed == MUTANTS[mutate]
        assert report["verdict"] != "M10_2"
        for check in report["checks"]:
            if check["id"].endswith(".error"):
                assert set(check["witnesses"]) == {"error"}
        # the text report renders from the outcomes alone
        assert cli.main(["all"]) == 1
        text = capsys.readouterr().out
        assert "[FAIL]" in text and "VERDICT" not in text


@pytest.mark.parametrize("mutate", list(MUTANTS), ids=lambda m: m.__name__)
def test_undone_mutant_leaves_the_report_intact(mutate, capsys):
    with applied(mutate):
        assert cli.main(["all", "--format", "json"]) == 1
    capsys.readouterr()
    assert cli.main(["all", "--format", "json"]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == REPORT_DIGEST


@pytest.mark.parametrize(
    "name, value, failed",
    [
        # each overgroup printed with the fusion of 3A/3B and 5A/5B exchanged
        ("_fusion_text", lambda fusion, text=cli._fusion_text: text(fusion[::-1]), "groups.overgroups"),
        # e = 36 gives chi(O_S) = 3, which 4 does not divide either, but is not 2
        ("K3_EULER_NUMBER", 36, "exclude.free_order4"),
        # Noether's formula needs 12 | e
        ("K3_EULER_NUMBER", 30, "exclude.error"),
    ],
)
def test_printed_witness_is_the_compared_value(name, value, failed, monkeypatch, capsys):
    monkeypatch.setattr(cli, name, value)
    assert cli.main(["all", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c["id"] for c in report["checks"] if c["status"] == "fail"] == [failed]
    assert report["verdict"] is None


def test_text_table_that_fails_to_render_is_a_fail_line(monkeypatch, capsys):
    # the JSON report renders no table; the text report fails its rendering
    # as a check of its own, with exit 1 and no traceback.  The equations of
    # the decompose stage and the sample of the integrality argument are
    # rendered with the same method, so those stages fail too
    render = exact.CycloNum.render_text

    def rationals_only(v):
        if v.is_rational() is None:
            raise ValueError("cannot render an irrational value")
        return render(v)

    monkeypatch.setattr(exact.CycloNum, "render_text", rationals_only)
    assert cli.main(["all", "--format", "json"]) == 1
    assert "render.error" not in capsys.readouterr().out
    assert cli.main(["all"]) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines() if line.startswith("[FAIL]")] == [
        f"[FAIL] {stage}.error: the {stage} stage runs to completion" for stage in ("decompose", "exclude", "render")
    ]
    assert "A6 character table:" not in captured.out and "VERDICT" not in captured.out
    assert captured.err == ""


def test_stage_error_keeps_later_stages(monkeypatch, capsys):
    def broken():
        raise VerificationError("stage check failed")

    monkeypatch.setattr(cli, "stage_decompose", broken)
    report = cli.build_report("all")
    ids = [c["id"] for c in report["checks"]]
    assert "decompose.error" in ids and ids[-1] == "lattice.forms"
    error = next(c for c in report["checks"] if c["id"] == "decompose.error")
    assert error["status"] == "fail"
    assert error["witnesses"] == {"error": "VerificationError: stage check failed"}
    # the exclusion stage still ran, but a failed stage forfeits the verdict
    assert report["verdict"] is None
    assert cli.main(["decompose", "--format", "json", "-v"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["checks"][0]["id"] == "decompose.error"
    # the traceback goes to stderr, with the progress notes
    assert "Traceback" in captured.err


@pytest.mark.parametrize(
    "stages, failed",
    [
        # the groups stage skipped: every check that ran passes, but five claims went unchecked
        (cli.COMMANDS[2:], ["verdict.error"]),
        # the lattice stage run twice: one claim checked twice
        (cli.STAGES + ("lattice",), ["verdict.error"]),
        # a stage with no function: its lookup fails like the stage itself
        (cli.COMMANDS, ["all.error"]),
    ],
)
def test_report_checks_each_claim_once(stages, failed, monkeypatch, capsys):
    monkeypatch.setattr(cli, "STAGES", stages)
    assert cli.main(["all", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert [c["id"] for c in report["checks"] if c["status"] == "fail"] == failed
    assert report["verdict"] is None and err == ""


def test_unreadable_verdict_is_a_fail_line(monkeypatch, capsys):
    # the pipeline check passes but carries no verdict witness
    stage = cli.stage_exclude

    def without_verdict():
        checks = stage()
        for check in checks:
            check["witnesses"].pop("verdict", None)
        return checks

    monkeypatch.setattr(cli, "stage_exclude", without_verdict)
    assert cli.main(["all", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert [c for c in report["checks"] if c["status"] == "fail"] == [
        {
            "id": "verdict.error",
            "paper_ref": "the verdict stage runs to completion",
            "status": "fail",
            "witnesses": {"error": "KeyError: 'verdict'"},
            "axioms_used": [],
        }
    ]
    assert report["verdict"] is None and err == ""


def test_failed_check_voids_the_verdict(monkeypatch, capsys):
    # one groups-stage and one lattice-stage require fail; the exclusion
    # still finds M10_2, but no verdict stands over a failed check
    forced = ("no central involution with alpha = -1 found", "matrix not symmetric")

    def require(condition, message):
        permgrp.require(condition and message not in forced, message)

    for module in (extbuild, k3verify):
        monkeypatch.setattr(module, "require", require)
    assert cli.main(["all", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    status = {c["id"]: c["status"] for c in report["checks"]}
    assert {i for i, s in status.items() if s == "fail"} == {"groups.error", "lattice.error"}
    assert status["exclude.pipeline"] == "pass" and report["verdict"] is None
    assert cli.main(["all"]) == 1
    text = capsys.readouterr().out
    assert "[FAIL] groups.error" in text and "[FAIL] lattice.error" in text
    assert "VERDICT" not in text


def test_exclusion_reads_its_nikulin_table():
    table = chartab.character_table(build_psl29())
    cands = build_all_candidates().values()
    assert run_exclusion(cands, table, NikulinTable()).verdict == "M10_2"
    with pytest.raises(VerificationError, match="unique multiplicity vector"):
        run_exclusion(cands, table, NikulinTable(counts=COUNTS_ORDER3_IS_5))


def test_unexcluded_kind_voids_the_verdict(monkeypatch):
    # a square permutation without fixed points breaks the pigeonhole
    # argument; one fixed point still closes it
    table = chartab.character_table(build_psl29())
    for scan, verdict, open_kinds in (((0, 256, 720), None, {"A6_4", "S6_2"}), ((1, 256, 720), "M10_2", set())):
        monkeypatch.setattr(k3verify, "_min_fixed_of_square", lambda scan=scan: scan)
        report = run_exclusion(build_all_candidates().values(), table, NikulinTable())
        assert report.verdict == verdict
        assert {o.kind for o in report.outcomes if o.status == k3verify.NO_CONTRADICTION} == open_kinds


def test_unexcluded_kind_fails_the_pipeline_check(monkeypatch, capsys):
    # the verdict is compared with its claim in one check, which fails; the
    # exit status reads nothing but the checks
    monkeypatch.setattr(k3verify, "_min_fixed_of_square", lambda: (0, 256, 720))
    assert cli.main(["exclude", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    status = {c["id"]: c["status"] for c in report["checks"]}
    assert status["exclude.pipeline"] == "fail" and report["verdict"] is None
    assert not any(i.endswith(".error") for i in status)
