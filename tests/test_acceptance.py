"""End-to-end acceptance suite.

Each test pins one externally visible guarantee: reference tables through
the command line, higher-rank tables through the engine, closed-form
identities, cross-method agreement, the mass identity, deterministic
identity sweeps, point-count conversion, and the brute-force oracles.
"""

import io
import json
import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from fixtures import (
    RANK2_CASES,
    RANK2_TABLES,
    RANK3_CASES,
    RANK3_TABLES,
    RANK4_CASES,
    RANK4_TABLES,
    RANK4_WEIGHTS,
    RANK4_WEIGHTS_ALT,
    full_table,
    rank3_one_point_form,
    rank3_two_point_alt_form,
    rank3_two_point_main_form,
    rank4_even_form,
    rank4_odd_form,
)
from parbetti import (
    Instance,
    LaurentSeries,
    NonDivisible,
    compare_methods,
    compute,
    flag_dim,
    make_data,
    moduli_dim,
)
from parbetti.parabolic import (
    _compositions,
    _integer_block,
    _strata,
)
from parbetti.rank2 import family_formula
from parbetti.recursion import siegel_check
from parbetti.cli import parse_args
from oracles import (
    CountExpr,
    brute_flag_count,
    brute_grassmann_count,
    brute_partitions,
    brute_subdata,
    evaluate,
    evaluate_q,
    flag_count,
    grassmann_count,
    poincare_from_count,
)
from strata import (
    coinv_count,
    degree_at_slope,
    head,
    hom_euler,
    inv_count,
    linear_offset,
    partitions,
    prefix_data,
    split_inversions,
    stratum_exponent,
    tail,
    term_exponent,
    subdata,
    weight_sum,
)


def _run_cli(argv):
    command, args = parse_args(argv)
    buf = io.StringIO()
    code = command(args, out=buf)
    return code, buf.getvalue()


def _rank2_doc(tag, tmp_path):
    doc = {
        "genus": 0,
        "degree": 0,
        "points": [
            {"weights": list(w), "multiplicities": [1, 1]}
            for w in RANK2_CASES[tag]
        ],
    }
    path = tmp_path / f"rank2_{tag}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_01_rank2_tables_through_sweep(tmp_path):
    start = time.perf_counter()
    for tag, table in RANK2_TABLES.items():
        path = _rank2_doc(tag, tmp_path)
        code, out = _run_cli(
            ["sweep", path, "--genus-range", "0..3", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["g", "d", "dim", "empty"]
        for row in lines[1:]:
            cells = row.split(",")
            g = int(cells[0])
            want = list(table[g])
            if want == [0]:
                assert cells[3] == "true"
                assert cells[4] == "0"
                continue
            assert cells[3] == "false"
            got = [int(c) for c in cells[4 : 4 + len(want)]]
            assert got == want, (tag, g)
            rest = cells[4 + len(want) : -1]
            assert all(c == "" for c in rest)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"rank-2 sweeps took {elapsed:.2f}s"


def test_02_rank3_tables():
    start = time.perf_counter()
    for tag, cfg in RANK3_CASES.items():
        data = make_data([((1, 1, 1), w) for w in cfg["points"]])
        for g, half in RANK3_TABLES[tag].items():
            want = full_table(half)
            for d in cfg["degrees"]:
                res = compute(Instance(g, d, data), "closed")
                if not want:
                    assert res.empty
                else:
                    assert list(res.betti) == want, (tag, g, d)
    a3 = compute(
        Instance(3, 0, make_data([((1, 1, 1), RANK3_CASES["A"]["points"][0])])),
        "closed",
    )
    assert a3.betti[19] == 2160
    two = make_data([((1, 1, 1), w) for w in RANK3_CASES["B"]["points"]])
    assert compute(Instance(3, 0, two), "closed").betti[22] == 15210
    assert compute(Instance(3, 1, two), "closed").betti[22] == 11984
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"rank-3 tables took {elapsed:.2f}s"


def test_03_rank4_tables():
    start = time.perf_counter()
    for tag, cfg in RANK4_CASES.items():
        data = make_data([((1, 1, 1, 1), cfg["weights"])])
        for g, half in RANK4_TABLES[tag].items():
            want = full_table(half)
            for d in cfg["degrees"]:
                res = compute(Instance(g, d, data), "closed")
                if not want:
                    assert res.empty
                else:
                    assert list(res.betti) == want, (tag, g, d)
    alt = make_data([((1, 1, 1, 1), RANK4_WEIGHTS_ALT)])
    for g in (0, 1, 2):
        for d, tag in ((0, "A"), (2, "A"), (1, "B"), (3, "B")):
            res = compute(Instance(g, d, alt), "closed")
            want = full_table(RANK4_TABLES[tag][g])
            if not want:
                assert res.empty
            else:
                assert list(res.betti) == want, (g, d, tag)
    data = make_data([((1, 1, 1, 1), RANK4_WEIGHTS)])
    assert compute(Instance(2, 0, data), "closed").betti[21] == 3816
    assert compute(Instance(2, 3, data), "closed").betti[21] == 2760
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"rank-4 tables took {elapsed:.2f}s"


RANK2_FAMILY_PLAN = (
    ("one_point", "A", (0, 1)),
    ("two_points", "B", (0, 1)),
    ("three_points_outer", "C", (0, 2)),
    ("three_points_inner", "D", (0, 1)),
    ("four_points_outer", "E", (0, 2)),
    ("four_points_inner", "F", (0, 1)),
)


def test_04_closed_form_identities():
    # rank-2 family forms against the general engine
    for tag, case, degrees in RANK2_FAMILY_PLAN:
        data = make_data([((1, 1), w) for w in RANK2_CASES[case]])
        for g in range(4):
            form = family_formula(tag, g)
            order = max(2 * moduli_dim(data, g) + 2, 2)
            for d in degrees:
                res = compute(Instance(g, d, data), "closed")
                assert form.expand(order) == LaurentSeries(res.poly.coeffs, order), (tag, g, d)
                assert form.to_laurent_poly() == res.poly, (tag, g, d)

    # rank-3 forms
    r3_one = make_data([((1, 1, 1), RANK3_CASES["A"]["points"][0])])
    r3_two = make_data([((1, 1, 1), w) for w in RANK3_CASES["B"]["points"]])
    for g in range(4):
        one = rank3_one_point_form(g).to_laurent_poly()
        for d in (0, 1, 2):
            assert one == compute(Instance(g, d, r3_one), "closed").poly
        main = rank3_two_point_main_form(g).to_laurent_poly()
        for d in (0, 2):
            assert main == compute(Instance(g, d, r3_two), "closed").poly
        alt = rank3_two_point_alt_form(g).to_laurent_poly()
        assert alt == compute(Instance(g, 1, r3_two), "closed").poly

    # rank-4 forms, including the repaired tail coefficient
    r4 = make_data([((1, 1, 1, 1), RANK4_WEIGHTS)])
    for g in range(4):
        even = rank4_even_form(g).to_laurent_poly()
        odd = rank4_odd_form(g).to_laurent_poly()
        if g < 3:
            for d in (0, 1, 2):
                assert even == compute(Instance(g, d, r4), "closed").poly
            assert odd == compute(Instance(g, 3, r4), "closed").poly
        else:
            # keep g=3 as a polynomial-certification check only
            assert even.min_exp() >= 0 and odd.min_exp() >= 0
    with pytest.raises(NonDivisible):
        rank4_odd_form(1, uncorrected=True).to_laurent_poly()
    with pytest.raises(NonDivisible):
        rank4_odd_form(2, uncorrected=True).to_laurent_poly()

    # same moduli, different weights: even degrees repeat the degree-0
    # polynomial, odd degrees repeat the degree-3 polynomial
    alt = make_data([((1, 1, 1, 1), RANK4_WEIGHTS_ALT)])
    for g in (0, 1, 2):
        p = {d: compute(Instance(g, d, r4), "closed").poly for d in (0, 3)}
        q = {d: compute(Instance(g, d, alt), "closed").poly for d in range(4)}
        assert q[0] == q[2] == p[0]
        assert q[1] == q[3] == p[3]


def _agreement_grid():
    w2 = RANK2_CASES["A"]
    w2b = RANK2_CASES["B"]
    w3 = RANK3_CASES["A"]["points"][0]
    w3two = RANK3_CASES["B"]["points"]
    grid = []
    rank1 = make_data([((1,), ("0",))])
    for g in range(4):
        for d in (0, 1):
            grid.append(Instance(g, d, rank1))
    r2 = make_data([((1, 1), w) for w in w2])
    for g in range(4):
        for d in (0, 1):
            grid.append(Instance(g, d, r2))
    r2two = make_data([((1, 1), w) for w in w2b])
    for g in range(3):
        for d in (0, 1):
            grid.append(Instance(g, d, r2two))
    plain = make_data([((2,), ("0",))])
    for g in (1, 2, 3):
        grid.append(Instance(g, 1, plain))
    r3 = make_data([((1, 1, 1), w3)])
    for g in range(3):
        for d in (0, 1, 2):
            grid.append(Instance(g, d, r3))
    r3two = make_data([((1, 1, 1), w) for w in w3two])
    for g in (0, 1):
        for d in (0, 1):
            grid.append(Instance(g, d, r3two))
    r4 = make_data([((1, 1, 1, 1), RANK4_WEIGHTS)])
    for g in (0, 1):
        for d in (0, 3):
            grid.append(Instance(g, d, r4))
    return grid


def test_05_cross_method_agreement():
    grid = _agreement_grid()
    assert len(grid) >= 30
    for inst in grid:
        results, mismatch = compare_methods(inst)
        assert mismatch is None, (inst.genus, inst.degree, mismatch)
        assert len(results) >= 3
        assert all(r.ss_eq_stable for r in results.values())


SIEGEL_DATA = (
    (((1, 1), ("0", "1/3")),),
    (((1, 1), ("0", "1/3")), ((1, 1), ("0", "1/4"))),
    (((1, 1, 1), ("0", "1/12", "1/4")),),
    (((1, 1, 1), ("0", "1/12", "1/4")), ((1, 1, 1), ("1/12", "5/12", "1/2"))),
)


def test_06_mass_identity():
    for spec in SIEGEL_DATA:
        data = make_data(spec)
        for genus in (0, 1, 2):
            order = max(2 * moduli_dim(data, genus) + 2, 2)
            ok, first = siegel_check(data, genus, 0, order)
            assert ok, (spec, genus, first)


def _identity_datasets():
    ladders = (
        ("0", "1/7", "2/7", "3/7"),
        ("1/11", "4/11", "6/11", "9/11"),
    )
    out = []
    for n in range(1, 5):
        shapes = [c for r in range(1, n + 1) for c in _compositions(n, r)]
        for shape in shapes:
            out.append(make_data([(shape, ladders[0][: len(shape)])]))
        for s1, s2 in product(shapes, repeat=2):
            out.append(
                make_data(
                    [
                        (s1, ladders[0][: len(s1)]),
                        (s2, ladders[1][: len(s2)]),
                    ]
                )
            )
    return out


def test_07_identity_sweep_and_engine_properties():
    # exhaustive splitting identities over every partition of every shape
    # with rank at most four and at most two marked points
    degs_pool = ((2, -1, 1, 0), (0, 1, -2, 3))
    lams = (Fraction(1, 2), Fraction(2, 3))
    checked = 0
    for data in _identity_datasets():
        n = data.rank
        for part in partitions(data):
            r = part.length
            drop = flag_dim(data) - sum(flag_dim(b) for b in part.blocks())
            assert inv_count(part) + coinv_count(part) == drop
            for degs in degs_pool:
                dv = degs[:r]
                pairwise = sum(
                    part.cols[i] * part.cols[j]
                    for i in range(r)
                    for j in range(i + 1, r)
                )
                for g in (0, 2):
                    assert stratum_exponent(part, dv, g) + term_exponent(
                        part, dv
                    ) == -(g - 1) * pairwise
                    merged = ((part.cols[0], n - part.cols[0]),
                              (dv[0], sum(dv) - dv[0]))
                    if r >= 2:
                        assert hom_euler(*merged, g) + hom_euler(
                            part.cols[1:], dv[1:], g
                        ) == hom_euler(part.cols, dv, g)
            if r < 2:
                continue
            for k in range(1, r):
                assert inv_count(part) == (
                    inv_count(head(part, k))
                    + inv_count(tail(part, k))
                    + split_inversions(data, prefix_data(part, k))
                )
            dv = degs_pool[0][:r]
            d = sum(dv)
            sub = prefix_data(part, 1)
            a1 = weight_sum(sub)
            lam1 = Fraction(dv[0] + a1, part.cols[0])
            assert term_exponent(part, dv) - term_exponent(
                tail(part, 1), dv[1:]
            ) == part.cols[0] * (n * lam1 - d) - n * a1 - split_inversions(
                data, sub
            )
            for lam in lams:
                for k in range(1, r):
                    front = sum(part.cols[:k])
                    dk = degree_at_slope(prefix_data(part, k), lam)
                    lhs = linear_offset(head(part, k), dk) + linear_offset(
                        tail(part, k), d - dk
                    )
                    rhs = (
                        linear_offset(part, d)
                        - (2 * front - n - part.cols[k - 1] + part.cols[-1])
                        * dk
                        - part.cols[k - 1]
                        - part.cols[k]
                        + split_inversions(data, prefix_data(part, k))
                        + front * d
                    )
                    assert lhs == rhs
            checked += 1
    assert checked > 500

    # certified output shape on a pinned grid
    shape_grid = (
        ("A", 2, 0), ("B", 2, 1), ("D", 0, 0), ("F", 1, 0),
    )
    for tag, g, d in shape_grid:
        data = make_data([((1, 1), w) for w in RANK2_CASES[tag]])
        res = compute(Instance(g, d, data), "closed")
        bet = list(res.betti)
        assert bet == bet[::-1]
        assert all(isinstance(b, int) and b >= 0 for b in bet)
        assert (bet[:1] or [0])[0] in (0, 1)
    empty = compute(Instance(0, 0, make_data([((1, 1), RANK2_CASES["A"][0])])),
                    "closed")
    assert empty.empty and all(b == 0 for b in empty.betti)

    # degree shift by the rank changes nothing
    r3 = make_data([((1, 1, 1), RANK3_CASES["A"]["points"][0])])
    periodic = (
        (Instance(2, 0, make_data([((1, 1), RANK2_CASES["A"][0])])), 2),
        (Instance(1, 1, r3), 3),
        (Instance(1, 0, make_data([((1, 1, 1, 1), RANK4_WEIGHTS)])), 4),
    )
    for inst, n in periodic:
        shifted = Instance(inst.genus, inst.degree + n, inst.data)
        assert compute(inst, "closed").poly == compute(shifted, "closed").poly

    # rank-2 degree dependence: none with up to two flagged points, none in
    # the inner chambers, parity-only in the outer chambers
    for case in ("A", "B", "D", "F"):
        data = make_data([((1, 1), w) for w in RANK2_CASES[case]])
        polys = [compute(Instance(1, d, data), "closed").poly
                 for d in range(-2, 3)]
        assert all(p == polys[0] for p in polys)
    for case in ("C", "E"):
        data = make_data([((1, 1), w) for w in RANK2_CASES[case]])
        polys = {d: compute(Instance(1, d, data), "closed").poly
                 for d in range(-2, 3)}
        assert polys[0] == polys[2] == polys[-2]
        assert polys[1] == polys[-1]
        assert polys[0] != polys[1]


def test_08_point_counts_to_betti():
    line = poincare_from_count(grassmann_count(2, 1), 1, 0)
    assert [int(line.coeff(e)) for e in range(3)] == [1, 0, 1]

    for g in (1, 2, 3):
        jac = poincare_from_count(CountExpr(jac_power=1), g, g)
        for i in range(2 * g + 1):
            assert jac.coeff(i) == comb(2 * g, i)

    full3 = poincare_from_count(CountExpr(poly=flag_count((1, 1, 1))), 3, 0)
    assert [int(full3.coeff(2 * i)) for i in range(4)] == [1, 2, 2, 1]
    assert all(full3.coeff(2 * i + 1) == 0 for i in range(3))


def test_09_brute_force_oracles():
    start = time.perf_counter()
    for q in (2, 3):
        for n in (1, 2, 3):
            for k in range(n + 1):
                assert evaluate_q(grassmann_count(n, k), q) == \
                    brute_grassmann_count(q, n, k)
        assert evaluate(flag_count((1, 1, 1)), q) == \
            brute_flag_count(q, 3, (1, 1, 1))
        assert evaluate(flag_count((2, 1)), q) == brute_flag_count(q, 3, (2, 1))
        assert evaluate(flag_count((1, 2)), q) == brute_flag_count(q, 3, (1, 2))

    shapes = (
        [(1, 1, 1)],
        [(2, 1)],
        [(3,)],
        [(1, 2), (1, 1, 1)],
        [(2, 1), (3,)],
        [(1, 1), (2,)],
    )
    ladder = ("0", "1/7", "2/7")
    for shape in shapes:
        data = make_data([(m, ladder[: len(m)]) for m in shape])
        mine = {
            (cols, tables)
            for cols, per_point in _strata(shape, _integer_block(data)[1][1], 1, {})
            for tables in product(*([t[0] for t in ts] for ts in per_point))
        }
        assert mine == brute_partitions([tuple(m) for m in shape])
        subs = {tuple(pt.mults for pt in s.points) for s in subdata(data)}
        assert subs == brute_subdata([tuple(m) for m in shape])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle comparisons took {elapsed:.2f}s"
