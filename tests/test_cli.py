"""End-to-end checks of the command line interface."""

import json
import os

import pytest

from parbetti import cli
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
    def refuse(payload):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(cli, "_sweep_cell", refuse)
    path = _doc(tmp_path, CASE_A)
    for text in ("-3..-1", "-1..1", "-2"):
        assert main(["sweep", path, f"--genus-range={text}"]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: --genus-range: genus must be >= 0")


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


def _count_forks(monkeypatch, cpus):
    """Report cpus CPUs, and record the pid of every child os.fork starts."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return forks


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_sweep_pool_no_larger_than_its_jobs(tmp_path, capsys, monkeypatch):
    path = _doc(tmp_path, CASE_A)
    argv = ["sweep", path, "--genus-range", "1..2", "--format", "csv"]
    monkeypatch.delenv("PARBETTI_WORKERS", raising=False)
    assert main(argv) == EXIT_OK
    serial = capsys.readouterr().out
    forks = _count_forks(monkeypatch, cpus=64)
    monkeypatch.setenv("PARBETTI_WORKERS", "64")
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == serial
    assert len(forks) == 1
    _assert_reaped(forks)


def test_sweep_forks_no_more_than_the_cpus(tmp_path, capsys, monkeypatch):
    path = _doc(tmp_path, CASE_A)
    argv = ["sweep", path, "--genus-range", "0..2", "--format", "csv"]
    monkeypatch.delenv("PARBETTI_WORKERS", raising=False)
    assert main(argv) == EXIT_OK
    serial = capsys.readouterr().out
    forks = _count_forks(monkeypatch, cpus=2)
    monkeypatch.setenv("PARBETTI_WORKERS", "1000")
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == serial
    assert len(forks) == 1
    _assert_reaped(forks)


def test_sweep_without_fork_runs_serially(tmp_path, capsys, monkeypatch):
    path = _doc(tmp_path, CASE_A)
    argv = ["sweep", path, "--genus-range", "1..2", "--format", "csv"]
    monkeypatch.delenv("PARBETTI_WORKERS", raising=False)
    assert main(argv) == EXIT_OK
    serial = capsys.readouterr().out
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setenv("PARBETTI_WORKERS", "2")
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("failure, message", [
    ("exit", "sweep worker 1 exited with status 9"),
    ("garble", "sweep worker 1 sent unreadable output"),
])
def test_sweep_dead_worker_exits_3(tmp_path, capsys, monkeypatch, failure, message):
    parent, real_dump = os.getpid(), json.dump

    def die(payload):
        if os.getpid() != parent:
            os._exit(9)
        return {"middle": [1], "dim": 0, "empty": False, "error": None}

    def garble(obj, fh):
        if os.getpid() == parent:
            return real_dump(obj, fh)
        fh.write("[{not json")

    forks = _count_forks(monkeypatch, cpus=2)
    if failure == "exit":
        monkeypatch.setattr(cli, "_sweep_cell", die)
    else:
        monkeypatch.setattr(json, "dump", garble)
    monkeypatch.setenv("PARBETTI_WORKERS", "2")
    path = _doc(tmp_path, CASE_A)
    assert main(["sweep", path, "--genus-range", "1..2"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal check failed: {message}\n"
    assert len(forks) == 1
    _assert_reaped(forks)


def test_sweep_bad_worker_var(tmp_path, capsys, monkeypatch):
    path = _doc(tmp_path, CASE_A)
    monkeypatch.setenv("PARBETTI_WORKERS", "many")
    assert main(["sweep", path]) == EXIT_INVALID
    capsys.readouterr()


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
