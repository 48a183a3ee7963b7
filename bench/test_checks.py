"""Self-tests of the benchmark's own checks, references and tracer.

    python3 -m pytest bench/test_checks.py

They need nothing from ``src/``: every Betti vector here comes from the
benchmark's independent references, and each check is shown to reject a
corrupted one.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer  # noqa: E402
from checks import (  # noqa: E402
    Checker,
    OutputError,
    Solved,
    parse_compare,
    parse_compute,
    parse_sweep,
    property_problems,
)
from instances import (  # noqa: E402
    RANK2_CASES,
    RANK3_ONE,
    WORKLOADS,
    full,
    jobs_for,
    strictly_semistable,
)

R3 = full(*RANK3_ONE)
R2A = full(*RANK2_CASES["A"])


def betti_of(poly, dim):
    return tuple(poly.get(i, 0) for i in range(2 * dim + 1))


def solved(points, g, d, betti=None, route="closed"):
    dim = reference.moduli_dim(points, g)
    if betti is None:
        form = reference.rank2_subset_sum(points, g, d) if len(points[0][0]) == 2 \
            else reference.rank3_one_point(g)
        betti = betti_of(form, dim)
    return Solved(route, g, d, dim, not any(betti), tuple(betti), True)


def bump(betti, i, symmetric):
    b = list(betti)
    b[i] += 1
    if symmetric and i != len(b) - 1 - i:
        b[-1 - i] += 1
    return tuple(b)


def test_forms_reproduce_the_frozen_tables():
    for case, table in reference.RANK2_TABLES.items():
        pts = full(*RANK2_CASES[case])
        for g, half in table.items():
            dim = reference.moduli_dim(pts, g)
            got = reference.middle_of(reference.rank2_subset_sum(pts, g, 0), dim) \
                if dim >= 0 else [0]
            assert got == list(half), (case, g)
    for g, half in reference.RANK3_TABLES["A"].items():
        if g:
            assert reference.middle_of(reference.rank3_one_point(g), 3 + 8 * (g - 1)) \
                == list(half)
    for g, half in reference.RANK3_TABLES["B"].items():
        if g:
            assert reference.middle_of(reference.rank3_two_point_main(g), 6 + 8 * (g - 1)) \
                == list(half)
    for g, half in reference.RANK3_TABLES["C"].items():
        if g:
            assert reference.middle_of(reference.rank3_two_point_alt(g), 6 + 8 * (g - 1)) \
                == list(half)
    for name, form in (("A", reference.rank4_even), ("B", reference.rank4_odd)):
        for g, half in reference.RANK4_TABLES[name].items():
            if g:
                assert reference.middle_of(form(g), 6 + 15 * (g - 1)) == list(half)


def test_valid_vectors_pass_every_check():
    checker = Checker({})
    for g in range(2, 5):
        assert checker.check(solved(R3, g, 1), R3, "rank3-one") == []
        assert checker.check(solved(R3, g, 1, route="qclosed"), R3, "rank3-one") == []
        assert checker.check(solved(R2A, g, 1), R2A, "rank2-A") == []


@pytest.mark.parametrize("index", [2, 5])
def test_properties_reject_a_changed_coefficient(index):
    good = solved(R3, 3, 0)
    bad = Solved("closed", 3, 0, good.dim, False, bump(good.betti, index, False), True)
    assert any("duality" in p for p in property_problems(bad, R3))


def test_properties_reject_b0_b2_b3_and_dimension():
    good = solved(R3, 3, 0)
    for i, word in ((0, "b0"), (2, "b2"), (3, "b3"), (1, "b1")):
        bad = Solved("closed", 3, 0, good.dim, False, bump(good.betti, i, True), True)
        assert any(word in p for p in property_problems(bad, R3)), word
    neg = list(good.betti)
    neg[7] = -neg[7]
    neg[-8] = -neg[-8]
    bad = Solved("closed", 3, 0, good.dim, False, tuple(neg), True)
    assert any("negative" in p for p in property_problems(bad, R3))
    bad = Solved("closed", 3, 0, good.dim + 1, False, good.betti, True)
    assert any("dim" in p for p in property_problems(bad, R3))


def test_frozen_table_rejects_a_symmetric_change():
    good = solved(R3, 3, 0)
    bad = Solved("closed", 3, 0, good.dim, False, bump(good.betti, 9, True), True)
    problems = Checker({}).check(bad, R3, "rank3-one")
    assert any("frozen table" in p for p in problems)
    assert not any("duality" in p for p in problems)


def test_closed_forms_reject_a_symmetric_change_beyond_the_tables():
    good = solved(R3, 5, 2)
    bad = Solved("closed", 5, 2, good.dim, False, bump(good.betti, 20, True), True)
    problems = Checker({}).check(bad, R3, "rank3-one")
    assert any("closed form" in p for p in problems)
    assert not any("frozen table" in p for p in problems)
    good2 = solved(R2A, 7, 1)
    bad2 = Solved("closed", 7, 1, good2.dim, False, bump(good2.betti, 8, True), True)
    assert any("closed form" in p for p in Checker({}).check(bad2, R2A, "rank2"))


def test_recursion_reference_rejects_a_symmetric_change():
    good = solved(R3, 4, 1)
    refs = {"x": {"route": "recursion", "genus": 4, "degree": 1, "dim": good.dim, "betti": list(good.betti),
                  "points": [{"multiplicities": list(m), "weights": list(w)} for m, w in R3]}}
    assert Checker(refs).check(good, R3, "x") == []
    bad = Solved("closed", 4, 1, good.dim, False, bump(good.betti, 11, True), True)
    assert any("recursion reference" in p for p in Checker(refs).check(bad, R3, "x"))


def test_cross_route_rejects_a_symmetric_change():
    checker = Checker({})
    good = solved(R3, 4, 1)
    assert checker.check(good, R3, "no-reference") == []
    bad = Solved("qclosed", 4, 1, good.dim, False, bump(good.betti, 6, True), True)
    assert any("differs from closed" in p for p in checker.check(bad, R3, "no-reference"))


def test_parsers_read_the_cli_formats():
    [s] = parse_compute(json.dumps({
        "dim": 1, "betti": [1, 2, 1], "polynomial": [[0, 1], [1, 2], [2, 1]],
        "empty": False, "ss_eq_stable": True, "method": "closed", "timing": None,
    }), "closed", 2, 0)
    assert s.betti == (1, 2, 1) and s.complete
    with pytest.raises(OutputError):
        parse_compute(json.dumps({"dim": 1, "betti": [1, 2, 1],
                                  "polynomial": [[0, 1], [1, 3], [2, 1]], "empty": False}),
                      "closed", 2, 0)
    routes = parse_compare("closed     dim=1 betti=1,2,1\nrank2      dim=1 betti=1,2,1\n"
                           "verdict: AGREE\n", 2, 0)
    assert [r.route for r in routes] == ["closed", "rank2"]
    with pytest.raises(OutputError):
        parse_compare("closed  dim=1 betti=1,2,1\nverdict: DISAGREE closed vs rank2 first at t^1\n",
                      2, 0)
    cells, errors = parse_sweep("g,d,dim,empty,b0,b1,error\n0,0,-2,true,0,,\n1,0,1,false,1,2,\n"
                                "2,0,,,,,StrictSemistable: x\n")
    assert [c.betti for c in cells] == [(0,), (1, 2)] and len(errors) == 1


def test_instances_are_seeded_and_stable():
    for workload in WORKLOADS:
        for seed in (0, 1, 7):
            jobs = jobs_for(workload, seed)
            assert jobs == jobs_for(workload, seed)
            for job in jobs:
                assert not any(strictly_semistable(job.points, d) for _, d in job.cells())
        assert jobs_for(workload, 1) != jobs_for(workload, 2)

        def shape(seed):
            return [(j.command, sorted(m for m, _ in j.points), j.cells(), j.tag)
                    for j in jobs_for(workload, seed)]

        assert shape(0) == shape(3)
    assert strictly_semistable(full(("0", "1/2"), ("0", "1/2")), 0)
    assert not strictly_semistable(full(("0", "1/3")), 0)


def test_self_time_subtracts_children_and_the_union_of_remote_children():
    main = {"base": 0, "names": ["cli.sweep", "a"], "name": [0, 1], "parent": [-1, 0],
            "start": [0, 10], "end": [100, 20], "counts": {}, "max_bits": 0}
    w1 = {"base": 2, "names": ["cli.sweep", "a"], "name": [1], "parent": [0],
          "start": [30], "end": [60], "counts": {}, "max_bits": 0}
    w2 = {"base": 2, "names": ["cli.sweep", "a"], "name": [1, 1], "parent": [0, 2],
          "start": [40, 45], "end": [70, 50], "counts": {}, "max_bits": 0}
    own = tracer.self_times([main, w1, w2])
    assert own["cli.sweep"] == 100 - 10 - 40  # [10,20] in-process, [30,70] remote union
    assert own["a"] == 10 + 30 + (30 - 5) + 5


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run

    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
