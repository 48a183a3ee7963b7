"""End-to-end checks of the command line interface."""

import contextlib
import io
import json
import os
import signal
from pathlib import Path

import pytest

from parbetti import cli, engine
from parbetti.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_REFUSED,
    DocumentError,
    emit_document,
    main,
    parse_document,
)
from parbetti.engine import StrictSemistable, compute
from parbetti.parabolic import Instance
from parbetti.result import NonPolynomialResult

CASE_A = {
    "genus": 2,
    "degree": 0,
    "points": [{"weights": ["0", "1/3"], "multiplicities": [1, 1]}],
}

CASE_F = {
    "genus": 1,
    "degree": 0,
    "points": [
        {"weights": ["0", "1/2"], "multiplicities": [1, 1]},
        {"weights": ["0", "1/3"], "multiplicities": [1, 1]},
        {"weights": ["0", "1/4"], "multiplicities": [1, 1]},
        {"weights": ["0", "1/5"], "multiplicities": [1, 1]},
    ],
}

TRIVIAL_FLAGS = {
    "genus": 2,
    "degree": 0,
    "points": [{"weights": ["0"], "multiplicities": [2]}],
}


def _doc(tmp_path, obj, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# -- document parsing ------------------------------------------------------


def test_parse_document_roundtrip():
    instance, options = parse_document(CASE_A)
    emitted = emit_document(instance, options)
    again, options2 = parse_document(emitted)
    assert again == instance
    assert options2 == options
    assert emit_document(again, options2) == emitted


def test_parse_document_defaults():
    _, options = parse_document(CASE_A)
    assert options == {"method": "closed", "truncation": None, "force": False}


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda d: d.pop("genus"), "genus"),
        (lambda d: d.update(genus="2"), "integer"),
        (lambda d: d.update(genus=True), "integer"),
        (lambda d: d.update(points=[]), "non-empty"),
        (lambda d: d.update(extra=1), "unknown"),
        (lambda d: d["points"][0]["weights"].append("1/2"), "weights"),
        (lambda d: d["points"][0].update(weights=["0.333", "1/3"]), "decimal"),
        (lambda d: d["points"][0].update(weights=["1e-3", "1/3"]), "decimal"),
        (lambda d: d["points"][0].update(weights=[0.25, "1/3"]), "string"),
        (lambda d: d["points"][0].update(weights=["x/y", "1/3"]), "fraction"),
        (lambda d: d["points"][0].update(weights=["1/3", "1/3"]), "increasing"),
        (lambda d: d["points"][0].update(weights=["0", "7/3"]), "outside"),
        (lambda d: d.update(options={"method": "magic"}), "method"),
        (lambda d: d.update(options={"speed": 9}), "unknown"),
        (lambda d: d.update(options={"force": "yes"}), "force"),
        (lambda d: d.update(options="x"), "object"),
        (lambda d: d.update(options=[]), "object"),
        (lambda d: d.update(options={"truncation": -5}), "truncation"),
    ],
)
def test_parse_document_rejects(mangle, fragment):
    doc = json.loads(json.dumps(CASE_A))
    mangle(doc)
    with pytest.raises(DocumentError, match=fragment):
        parse_document(doc)


# -- compute ---------------------------------------------------------------


def test_compute_json(tmp_path, capsys):
    path = _doc(tmp_path, CASE_A)
    assert main(["compute", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["dim"] == 4
    assert out["betti"] == [1, 0, 2, 4, 2, 4, 2, 0, 1]
    assert out["polynomial"][0] == [0, 1]
    assert out["polynomial"] == sorted(out["polynomial"])
    assert out["empty"] is False
    assert out["ss_eq_stable"] is True
    assert out["method"] == "closed"
    assert out["timing"] is None


def test_compute_method_flag(tmp_path, capsys):
    path = _doc(tmp_path, CASE_A)
    for method in ("closed", "qclosed", "recursion", "rank2"):
        assert main(["compute", path, "--method", method]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == method
        assert out["betti"] == [1, 0, 2, 4, 2, 4, 2, 0, 1]


def test_compute_formats(tmp_path, capsys):
    path = _doc(tmp_path, CASE_A)
    assert main(["compute", path, "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "dim,empty,b0,b1,b2,b3,b4,b5,b6,b7,b8"
    assert lines[1] == "4,false,1,0,2,4,2,4,2,0,1"

    assert main(["compute", path, "--format", "text"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "dimension: 4" in text
    assert "betti: 1 0 2 4 2 4 2 0 1" in text
    assert "poincare: 1 + 2*t^2 + 4*t^3 + 2*t^4 + 4*t^5 + 2*t^6 + t^8" in text

    assert main(["compute", path, "--format", "latex"]) == EXIT_OK
    tex = capsys.readouterr().out
    assert "\\begin{tabular}" in tex
    assert "$\\beta_{0}$ & $1$" in tex
    assert "$\\beta_{4}$ & $2$" in tex
    assert "$\\beta_{5}$" not in tex  # stops at the middle dimension


def test_compute_timing_flag(tmp_path, capsys):
    path = _doc(tmp_path, CASE_A)
    assert main(["compute", path, "--timing"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert isinstance(out["timing"], float) and out["timing"] > 0


def test_compute_deterministic_bytes(tmp_path, capsys):
    path = _doc(tmp_path, CASE_A)
    main(["compute", path])
    first = capsys.readouterr().out
    main(["compute", path])
    assert capsys.readouterr().out == first


def test_compute_invalid_inputs(tmp_path, capsys):
    bad = json.loads(json.dumps(CASE_A))
    bad["points"][0]["weights"][1] = "0.333"
    path = _doc(tmp_path, bad)
    assert main(["compute", path]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "points[0].weights[1]" in err

    assert main(["compute", str(tmp_path / "missing.json")]) == EXIT_INVALID
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["compute", str(broken)]) == EXIT_INVALID
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("raw, fragment", [
    (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
    (b'{"genus": 2, "degree": 0, "points": [], "options": {"truncation": '
     + b"9" * 5000 + b"}}", "invalid JSON number"),
    (b'{"genus": 2, "degree": 0, "points": "\xff"}', "not UTF-8 text at byte 37"),
], ids=["deep-array", "long-integer", "non-utf8"])
def test_compute_undecodable_document_one_line(tmp_path, capsys, raw, fragment):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["compute", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {path}: ")
    assert fragment in captured.err
    assert "Traceback" not in captured.err


def test_compute_strictly_semistable(tmp_path, capsys):
    path = _doc(tmp_path, TRIVIAL_FLAGS)
    assert main(["compute", path]) == EXIT_REFUSED
    assert "force" in capsys.readouterr().err
    # forcing evaluates the formula, which then fails certification
    assert main(["compute", path, "--force"]) == EXIT_INTERNAL
    capsys.readouterr()


def test_compute_rank2_integral_gap(tmp_path, capsys):
    # signed gap sum over the subset {second point} is an integer
    doc = {
        "genus": 1,
        "degree": 0,
        "points": [
            {"weights": ["0", "4/5"], "multiplicities": [1, 1]},
            {"weights": ["0", "1/5"], "multiplicities": [1, 1]},
            {"weights": ["0", "1/5"], "multiplicities": [1, 1]},
            {"weights": ["0", "1/5"], "multiplicities": [1, 1]},
        ],
    }
    path = _doc(tmp_path, doc)
    assert main(["compute", path, "--method", "rank2"]) == EXIT_REFUSED
    capsys.readouterr()
    # the general routes handle the same instance fine
    assert main(["compute", path, "--method", "closed"]) == EXIT_OK
    capsys.readouterr()


def test_compute_method_inapplicable(tmp_path, capsys):
    doc = {
        "genus": 1,
        "degree": 0,
        "points": [{"weights": ["0", "1/12", "1/4"], "multiplicities": [1, 1, 1]}],
    }
    path = _doc(tmp_path, doc)
    assert main(["compute", path, "--method", "rank2"]) == EXIT_INVALID
    capsys.readouterr()


def test_compute_truncation_too_small(tmp_path, capsys):
    path = _doc(tmp_path, CASE_A)
    assert main(["compute", path, "--method", "recursion", "--truncation", "4"]) \
        == EXIT_INTERNAL
    capsys.readouterr()


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_compute_truncation_beyond_limit(tmp_path, capsys):
    path = _doc(tmp_path, CASE_A)
    argv = ["compute", path, "--method", "recursion", "--truncation", "30000"]
    assert main(argv) == EXIT_INVALID
    assert "exceeds" in _one_line_error(capsys)


def test_negative_truncation_flag_rejected(tmp_path, capsys):
    path = _doc(tmp_path, CASE_A)
    argv = ["compute", path, "--method", "recursion", "--truncation", "-5"]
    assert main(argv) == EXIT_INVALID
    assert "--truncation" in _one_line_error(capsys)


# -- compare ---------------------------------------------------------------


def test_compare_four_methods_agree(tmp_path, capsys):
    path = _doc(tmp_path, CASE_F)
    assert main(["compare", path]) == EXIT_OK
    out = capsys.readouterr().out
    for method in ("closed", "qclosed", "recursion", "rank2"):
        assert method in out
    assert "verdict: AGREE" in out
    assert out.count("dim=4") == 4
    assert out.count("betti=1,0,5,2,8,2,5,0,1") == 4


def test_compare_three_methods_higher_rank(tmp_path, capsys):
    doc = {
        "genus": 1,
        "degree": 0,
        "points": [{"weights": ["0", "1/12", "1/4"], "multiplicities": [1, 1, 1]}],
    }
    path = _doc(tmp_path, doc)
    assert main(["compare", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rank2" not in out
    assert "verdict: AGREE" in out


# -- sweep -----------------------------------------------------------------


def test_sweep_latex_table(tmp_path, capsys):
    path = _doc(tmp_path, CASE_A)
    assert main(["sweep", path, "--genus-range", "0..3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert " & $g=0$ & $g=1$ & $g=2$ & $g=3$ \\\\" in out
    assert "$\\beta_{0}$ & $0$ & $1$ & $1$ & $1$ \\\\" in out
    assert "$\\beta_{2}$ & - & - & $2$ & $2$ \\\\" in out
    assert "$\\beta_{7}$ & - & - & - & $12$ \\\\" in out


def test_sweep_csv(tmp_path, capsys):
    path = _doc(tmp_path, CASE_A)
    assert main(["sweep", path, "--genus-range", "1..2",
                 "--degree-range", "0..1", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "g,d,dim,empty,b0,b1,b2,b3,b4,error"
    assert lines[1] == "1,0,1,false,1,0,,,,"
    assert lines[2] == "1,1,1,false,1,0,,,,"
    assert lines[3].startswith("2,0,4,false,1,0,2,4,2,")
    assert lines[4].startswith("2,1,4,false,1,0,2,4,2,")


def test_sweep_cell_error_annotated(tmp_path, capsys):
    # d=0 with trivial flags is strictly semistable, d=1 is fine
    path = _doc(tmp_path, TRIVIAL_FLAGS)
    assert main(["sweep", path, "--degree-range", "0..1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "!" in out
    assert "% error" in out
    assert "StrictSemistable" in out


def test_sweep_all_cells_refused(tmp_path, capsys):
    path = _doc(tmp_path, TRIVIAL_FLAGS)
    assert main(["sweep", path, "--degree-range", "0..0"]) == EXIT_REFUSED
    capsys.readouterr()


def test_sweep_all_cells_invalid(tmp_path, capsys):
    """Every cell failing on invalid input exits 1, as ``compute`` does."""
    rank3 = [{"weights": ["0", "1/3", "1/2"], "multiplicities": [1, 1, 1]}]
    doc = dict(CASE_A, points=rank3, options={"method": "rank2"})
    path = _doc(tmp_path, doc)
    assert main(["sweep", path, "--genus-range", "1..2"]) == EXIT_INVALID
    assert capsys.readouterr().err.count("MethodInapplicable") == 2


def test_sweep_negative_degree_range(tmp_path, capsys):
    path = _doc(tmp_path, CASE_A)
    assert main(["sweep", path, "--degree-range=-2..-1",
                 "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("2,-2,4,false,")
    assert lines[2].startswith("2,-1,4,false,")


def test_sweep_bad_range(tmp_path, capsys):
    path = _doc(tmp_path, CASE_A)
    assert main(["sweep", path, "--genus-range", "3..1"]) == EXIT_INVALID
    assert main(["sweep", path, "--genus-range", "x..y"]) == EXIT_INVALID
    capsys.readouterr()


def test_sweep_negative_genus_rejected_before_any_cell(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(cli, "sweep", refuse)
    path = _doc(tmp_path, CASE_A)
    for text in ("-3..-1", "-1..1", "-2"):
        assert main(["sweep", path, f"--genus-range={text}"]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: --genus-range: genus must be >= 0")


def test_sweep_refuses_oversized_grid_before_building_it(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the sweep started work")

    monkeypatch.setattr(cli, "sweep", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    path = _doc(tmp_path, CASE_A)
    assert main(["sweep", path, "--degree-range", "0..100000000000"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: sweep of 100000000001 cells exceeds the limit of {cli.MAX_SWEEP_CELLS}\n"
    )
    assert cli.MAX_SWEEP_CELLS == 10_000


def test_sweep_parallel_matches_serial(tmp_path, capsys, monkeypatch):
    path = _doc(tmp_path, CASE_A)
    argv = ["sweep", path, "--genus-range", "0..2", "--degree-range", "0..1",
            "--format", "csv"]
    monkeypatch.delenv("PARBETTI_WORKERS", raising=False)
    assert main(argv) == EXIT_OK
    serial = capsys.readouterr().out
    monkeypatch.setenv("PARBETTI_WORKERS", "2")
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == serial


RANK4 = [{"weights": ["0", "1/8", "1/4", "1/2"], "multiplicities": [1, 1, 1, 1]}]


def test_sweep_walks_block_classes_once_per_degree(tmp_path, capsys, monkeypatch):
    """A closed sweep finds each degree's block classes once for all its
    genera, and a degree d + n reuses those of d."""
    walks = []
    walk = engine._block_classes

    def counted(den, block, d, *terms):
        walks.append(d)
        return walk(den, block, d, *terms)

    monkeypatch.setattr(engine, "_block_classes", counted)
    path = _doc(tmp_path, dict(CASE_A, points=RANK4))
    argv = ["sweep", path, "--genus-range", "0..4", "--degree-range", "0..3", "--format", "csv"]
    assert main(argv) == EXIT_OK
    assert walks == [0, 1, 2, 3]
    walks.clear()
    path = _doc(tmp_path, CASE_A)
    assert main(["sweep", path, "--genus-range", "0..4", "--degree-range=-2..1"]) == EXIT_OK
    assert walks == [-2, -1]
    capsys.readouterr()


def test_sweep_starts_no_process(tmp_path, capsys, monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setenv("PARBETTI_WORKERS", "64")
    path = _doc(tmp_path, dict(CASE_A, points=RANK4))
    argv = ["sweep", path, "--genus-range", "0..4", "--degree-range", "0..3", "--format", "csv"]
    assert main(argv) == EXIT_OK
    assert forks == []
    capsys.readouterr()


def _sweep_csv_from_computes(data, genera, degrees, method, force):
    """The csv a sweep prints, built from one ``compute`` per cell."""
    rows = []
    for g in genera:
        for d in degrees:
            try:
                res = compute(Instance(g, d, data), method, force=force)
            except (StrictSemistable, NonPolynomialResult) as exc:
                rows.append(([str(g), str(d), "", ""], [], f"{type(exc).__name__}: {exc}"))
            else:
                mid = [0] if res.empty else list(res.middle_betti())
                rows.append(([str(g), str(d), str(res.dim), str(res.empty).lower()], mid, ""))
    depth = max(len(mid) for _, mid, error in rows if not error)
    lines = [["g", "d", "dim", "empty"] + [f"b{i}" for i in range(depth)] + ["error"]]
    for head, mid, error in rows:
        lines.append(head + [str(b) for b in mid] + [""] * (depth - len(mid)) + [error])
    return "".join(",".join(line) + "\n" for line in lines)


SWEEP_DATA = {
    # strictly semistable at even degrees
    "rank2": [{"weights": ["0", "1/3"], "multiplicities": [1, 1]}] * 2,
    "rank3-two": [
        {"weights": ["0", "1/12", "3/12"], "multiplicities": [1, 1, 1]},
        {"weights": ["1/12", "5/12", "6/12"], "multiplicities": [1, 1, 1]},
    ],
    "rank4-partial": [
        {"weights": ["0", "1/7", "2/7"], "multiplicities": [2, 1, 1]},
        {"weights": ["1/11", "2/13", "5/17"], "multiplicities": [1, 1, 2]},
    ],
}


@pytest.mark.parametrize("name, method, force", [
    (name, method, False) for name in SWEEP_DATA for method in ("closed", "qclosed")
] + [("rank2", "closed", True)])
def test_sweep_csv_equals_per_cell_computes(tmp_path, capsys, name, method, force):
    """Sharing each degree's work across genera changes no byte: g - 1 <= 0
    turns the per-class genus term's sign, and d runs over more than one
    period of the rank."""
    doc = dict(CASE_A, points=SWEEP_DATA[name], options={"method": method, "force": force})
    instance, _ = parse_document(doc)
    n = instance.data.rank
    path = _doc(tmp_path, doc)
    argv = ["sweep", path, "--genus-range", "0..6", f"--degree-range=-2..{n + 1}",
            "--format", "csv"]
    assert main(argv) == EXIT_OK
    want = _sweep_csv_from_computes(instance.data, range(7), range(-2, n + 2), method, force)
    assert capsys.readouterr().out == want
    if name == "rank2":
        assert ("NonPolynomialResult" if force else "StrictSemistable: sub-datum") in want


@pytest.mark.parametrize("argv, fragment", [
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["compute"], "the following arguments are required: input"),
    (["compute", "inst.json", "--method", "nope"], "argument --method: invalid choice: 'nope'"),
    (["sweep", "inst.json", "--degree-range", "-3..-1"],
     "argument --degree-range: expected one argument"),
])
def test_usage_error_exits_1_with_one_line(capsys, argv, fragment):
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and fragment in captured.err


def _readme_usage():
    """The block of the README's "Four subcommands" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Four subcommands:\n\n```\n", 1)[1]
    return section.split("```", 1)[0]


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["compute", "--help"], ["sweep", "inst.json", "-h"], ["check", "-h"],
])
def test_help_prints_the_readme_usage(capsys, argv):
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == _readme_usage() == cli.USAGE
    assert captured.err == ""


@pytest.mark.parametrize("argv, value", [
    (["--method", "rank2"], "rank2"),
    (["--method=rank2"], "rank2"),
    (["--truncation=12"], 12),
    (["--truncation", "-5"], -5),
])
def test_option_value_forms(argv, value):
    """``--opt value`` and ``--opt=value`` parse alike, and a negative
    number is a value, as under argparse."""
    command, args = cli.parse_args(["compute", "inst.json"] + argv)
    name = argv[0].partition("=")[0][2:]
    assert command is cli.cmd_compute and getattr(args, name) == value


@pytest.mark.parametrize("command", ["compute", "compare", "sweep", "check"])
def test_commands_parse_through_the_module_parse_document(tmp_path, monkeypatch, command):
    """Every command parses its document through the module-level
    ``parse_document`` looked up at call time, so a wrapper put there sees
    the call (the benchmark times start-up up to it)."""
    calls = []
    parse = cli.parse_document

    def recorded(obj):
        calls.append(obj)
        return parse(obj)

    monkeypatch.setattr(cli, "parse_document", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, _doc(tmp_path, CASE_A)]) == EXIT_OK
    assert calls == [CASE_A]


def test_sweep_negative_degree_range_with_equals(tmp_path, capsys):
    """A range that starts negative is passed as ``--degree-range=-3..-1``."""
    path = _doc(tmp_path, CASE_A)
    assert main(["sweep", path, "--degree-range=-3..-1", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [["2", "-3"], ["2", "-2"], ["2", "-1"]]


# -- check -----------------------------------------------------------------


def test_check_stable_everywhere(tmp_path, capsys):
    path = _doc(tmp_path, CASE_A)
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rank: 2" in out
    assert "dimension: 4" in out
    assert "ss_equals_stable: true" in out
    assert "stable_for_all_degrees: true" in out
    assert "exists_stable: true" in out


def test_check_witness(tmp_path, capsys):
    path = _doc(tmp_path, TRIVIAL_FLAGS)
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ss_equals_stable: false" in out
    assert "witness_sub_multiplicities: [[1]]" in out
    assert "witness_degree: 0" in out
    assert "stable_for_all_degrees: false" in out


def test_check_genus_zero_nonexistence(tmp_path, capsys):
    doc = {
        "genus": 0,
        "degree": 0,
        "points": [{"weights": ["0", "1/3"], "multiplicities": [1, 1]}],
    }
    path = _doc(tmp_path, doc)
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "exists_stable: false" in out


def test_check_higher_rank_no_existence_line(tmp_path, capsys):
    doc = {
        "genus": 1,
        "degree": 0,
        "points": [{"weights": ["0", "1/12", "1/4"], "multiplicities": [1, 1, 1]}],
    }
    path = _doc(tmp_path, doc)
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rank: 3" in out
    assert "exists_stable" not in out


# -- work bounded before it starts ------------------------------------------

HUGE_GENUS = dict(CASE_A, genus=100_000)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the test if the block runs past seconds, so a
    route that starts the work fails the test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("method", ["closed", "qclosed", "recursion", "rank2"])
def test_compute_refuses_dimension_past_truncation_limit(tmp_path, capsys, method):
    """Twice the dimension (599 996 here) is past MAX_TRUNCATION, so
    every route refuses at once with one line instead of building
    numerators of that degree."""
    path = _doc(tmp_path, HUGE_GENUS)
    with _deadline(1.0):
        assert main(["compute", path, "--method", method]) == EXIT_INVALID
    err = _one_line_error(capsys)
    assert "twice the dimension, 599996, exceeds the truncation limit 20000" in err


def test_compare_and_sweep_refuse_dimension_past_truncation_limit(tmp_path, capsys):
    path = _doc(tmp_path, HUGE_GENUS)
    with _deadline(1.0):
        assert main(["compare", path]) == EXIT_INVALID
        assert "truncation limit" in _one_line_error(capsys)
        assert main(["sweep", path, "--format", "csv"]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "TruncationLimit" in err
