import sys

import pytest

import tracer


def span(name, start, end, parent=None, hot=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": 0, "hot": hot or {}}


def hand_built_tree():
    return [
        span("op", 0.0, 10.0, hot={"permgrp.perm_mul": [4, 0.5]}),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),  # nested: only its parent loses it
        span("b", 3.0, 6.0, parent=0),  # overlaps a on [3, 4]
        span("c", 9.0, 12.0, parent=0),  # runs past its parent's end
    ]


def test_self_times_nested_and_overlapping_children():
    got = tracer.self_times(hand_built_tree())
    # op: 10 - |[1,6] u [9,10]| - 0.5 hot = 10 - 6 - 0.5
    assert got == pytest.approx([3.5, 2.0, 1.0, 3.0, 3.0])


def test_covered_merges_and_clips():
    assert tracer.covered(0, 10, []) == 0
    assert tracer.covered(0, 10, [(2, 5), (1, 3), (4, 4.5)]) == pytest.approx(4.0)
    assert tracer.covered(0, 10, [(-5, 1), (9, 20)]) == pytest.approx(2.0)


def test_layer_totals_add_spans_and_hot_calls():
    totals = tracer.layer_totals(hand_built_tree() + [span("a", 20.0, 21.0)])
    assert totals["a"] == {"calls": 2, "self_s": pytest.approx(3.0), "dur_s": pytest.approx(4.0)}
    assert totals["permgrp.perm_mul"] == {"calls": 4, "self_s": 0.5, "dur_s": 0.5}


def test_layer_metrics_attribute_main_by_stage():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("cli.stage_groups", 0.5, 6.5, parent=0),
        span("permgrp.closure", 1.0, 2.0, parent=1, hot={"permgrp.perm_mul": [10, 0.25]}),
        span("cli.stage_chartab", 6.5, 9.0, parent=0),
        span("chartab.character_table", 7.0, 9.0, parent=3, hot={"exact.cyclo_mul": [3, 1.0]}),
        span("cli.render_json", 9.0, 9.5, parent=0),
    ]
    totals = tracer.merge_totals([tracer.layer_totals(spans)] * 2)
    m = tracer.layer_metrics(totals, ops=2, traced_op_s=11.0, untraced_op_s=10.0,
                             cache_hits=3, cache_calls=4)
    assert m["cli.stage_groups_s"] == pytest.approx(6.0)
    assert m["cli.uncovered_s"] == pytest.approx(1.0)
    assert m["permgrp.closure_s"] == pytest.approx(0.75)
    assert m["permgrp.perm_mul.count"] == 10
    assert m["chartab.character_table_s"] == pytest.approx(1.0)
    assert m["exact.cyclo_arith_s"] == pytest.approx(1.0)
    assert m["share.permgrp"] == pytest.approx(0.1)
    assert m["share.chartab_exact"] == pytest.approx(0.2)
    assert m["permgrp.cache_hit_ratio"] == 0.75
    assert m["trace.overhead_s"] == pytest.approx(1.0)


def package_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "a6k3" or name.startswith("a6k3.")
        for attr, value in vars(module).items()
    }


def test_install_rebinds_every_import_site_and_uninstall_restores():
    import a6k3.cli  # noqa: F401 - loads every module of the package

    originals = {id(getattr(sys.modules[m], attr)) for m, attr, _ in tracer.SPANS}
    before = package_bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        stale = [key for key, v in package_bindings().items() if id(v) in originals]
        assert stale == []
    finally:
        tr.uninstall()
    assert package_bindings() == before


def test_spans_through_from_imports_and_hot_counts():
    import a6k3.cli as cli
    from a6k3.permgrp import Perm

    tr = tracer.Tracer()
    hits_before = tracer.cache_counts()
    tr.install()
    try:
        with tr.span("cli.main", op=0):
            cli.stage_lattice()
            Perm((1, 0, 2)) * Perm((0, 2, 1))
    finally:
        tr.uninstall()
    assert tracer.cache_counts() == hits_before
    spans = tr.to_json()
    names = [s["name"] for s in spans]
    assert names == ["cli.main", "cli.stage_lattice", "k3verify.lattice_checks"]
    assert spans[2]["parent"] == 1
    assert spans[0]["hot"]["permgrp.perm_mul"][0] == 1
