"""Command line interface: instance documents, emitters, sweeps.

Exit codes: 0 success, 1 invalid input or usage, 2 refusal on strictly
semistable input (or an integral gap sum on the rank-2 route), 3 a failed
certificate, routes that disagree under compare, or a dead sweep worker.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .engine import (
    METHODS,
    MethodInapplicable,
    StrictSemistable,
    TruncationTooSmall,
    applicable_methods,
    compare_methods,
    compute,
)
from .laurent import TruncationLimit
from .parabolic import (
    Instance,
    make_data,
    moduli_dim,
    slope_coincidence_witness,
    ss_equals_stable,
)
from .rank2 import IntegralPsi, exists_stable_rank2, profile_from_instance
from .result import NonPolynomialResult

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_REFUSED = 2
EXIT_INTERNAL = 3

WORKERS_VAR = "PARBETTI_WORKERS"


class DocumentError(ValueError):
    """Invalid instance document; message names the offending field."""


def _parse_weight(text, where):
    if not isinstance(text, str):
        raise DocumentError(f"{where}: weight must be a fraction string like '1/3'")
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise DocumentError(
            f"{where}: decimal weights are not accepted, write an exact fraction"
        )
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{where}: cannot parse {text!r} as a fraction") from exc


def _require_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{where}: expected an integer, got {value!r}")
    return value


def _require_truncation(value, where):
    if _require_int(value, where) < 0:
        raise DocumentError(f"{where}: truncation must be >= 0, got {value}")
    return value


_TOP_KEYS = {"genus", "degree", "points", "options"}
_OPTION_KEYS = {"method", "truncation", "force"}


def parse_document(obj):
    """Validate a raw instance document.  Returns (Instance, options dict)."""
    if not isinstance(obj, dict):
        raise DocumentError("document root must be an object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise DocumentError(f"unknown top-level fields {sorted(unknown)}")
    for field in ("genus", "degree", "points"):
        if field not in obj:
            raise DocumentError(f"missing field '{field}'")
    genus = _require_int(obj["genus"], "genus")
    degree = _require_int(obj["degree"], "degree")
    points = obj["points"]
    if not isinstance(points, list) or not points:
        raise DocumentError("points: expected a non-empty list")
    specs = []
    for i, pt in enumerate(points):
        where = f"points[{i}]"
        if not isinstance(pt, dict) or set(pt) != {"weights", "multiplicities"}:
            raise DocumentError(
                f"{where}: expected an object with 'weights' and 'multiplicities'"
            )
        weights = pt["weights"]
        mults = pt["multiplicities"]
        if not isinstance(weights, list) or not isinstance(mults, list):
            raise DocumentError(f"{where}: weights and multiplicities must be lists")
        if len(weights) != len(mults):
            raise DocumentError(
                f"{where}: {len(weights)} weights against {len(mults)} multiplicities"
            )
        parsed_w = [_parse_weight(w, f"{where}.weights[{j}]") for j, w in enumerate(weights)]
        parsed_m = [_require_int(m, f"{where}.multiplicities[{j}]") for j, m in enumerate(mults)]
        specs.append((tuple(parsed_m), tuple(parsed_w)))
    options = {} if obj.get("options") is None else obj["options"]
    if not isinstance(options, dict):
        raise DocumentError("options: expected an object")
    unknown = set(options) - _OPTION_KEYS
    if unknown:
        raise DocumentError(f"options: unknown fields {sorted(unknown)}")
    method = options.get("method", "closed")
    if method not in METHODS:
        raise DocumentError(f"options.method: unknown method {method!r}")
    truncation = options.get("truncation")
    if truncation is not None:
        truncation = _require_truncation(truncation, "options.truncation")
    force = options.get("force", False)
    if not isinstance(force, bool):
        raise DocumentError("options.force: expected true or false")
    try:
        instance = Instance(genus, degree, make_data(specs))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    return instance, {"method": method, "truncation": truncation, "force": force}


def emit_document(instance, options=None):
    """Serialize an instance back into document form; inverse of parsing."""
    opts = {"method": "closed", "truncation": None, "force": False}
    if options:
        opts.update(options)
    return {
        "genus": instance.genus,
        "degree": instance.degree,
        "points": [
            {
                "weights": [str(w) for w in pt.weights],
                "multiplicities": list(pt.mults),
            }
            for pt in instance.data.points
        ],
        "options": opts,
    }


def _load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_document(obj)


def _poly_str(poly):
    if poly.is_zero():
        return "0"
    parts = []
    for e, c in sorted(poly.items()):
        if e == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            parts.append(f"{head}t^{e}" if e != 1 else f"{head}t")
    return " + ".join(parts).replace("+ -", "- ")


def result_document(res, timing=None):
    return {
        "dim": res.dim,
        "betti": list(res.betti),
        "polynomial": [[e, c] for e, c in sorted(res.poly.items())],
        "empty": res.empty,
        "ss_eq_stable": res.ss_eq_stable,
        "method": res.method,
        "timing": timing,
    }


def _emit_result(res, fmt, out, timing=None, label=None):
    if fmt == "json":
        out.write(json.dumps(result_document(res, timing), indent=2))
        out.write("\n")
    elif fmt == "csv":
        cols = ["dim", "empty"] + [f"b{i}" for i in range(len(res.betti))]
        row = [str(res.dim), "true" if res.empty else "false"] + [
            str(b) for b in res.betti
        ]
        out.write(",".join(cols) + "\n")
        out.write(",".join(row) + "\n")
    elif fmt == "latex":
        out.write(_latex_table([(label or "", _cell_from_result(res))]))
    elif fmt == "text":
        out.write(f"method: {res.method}\n")
        out.write(f"dimension: {res.dim}\n")
        out.write(f"empty: {'true' if res.empty else 'false'}\n")
        out.write(f"ss_eq_stable: {'true' if res.ss_eq_stable else 'false'}\n")
        out.write("betti: " + " ".join(str(b) for b in res.betti) + "\n")
        out.write("poincare: " + _poly_str(res.poly) + "\n")
        if timing is not None:
            out.write(f"timing: {timing:.3f}s\n")
    else:
        raise DocumentError(f"unknown format {fmt!r}")


def _cell_from_result(res):
    middle = [0] if res.empty else list(res.middle_betti())
    return {"middle": middle, "dim": res.dim, "empty": res.empty, "error": None}


def _latex_table(columns):
    """Betti table for side-by-side genus comparison: one row per Betti
    number up to the middle dimension, a dash above a column's top."""
    depth = max(len(c["middle"]) for _, c in columns if c["error"] is None)
    lines = []
    lines.append("\\begin{tabular}{|c|" + "c" * len(columns) + "|}")
    lines.append("\\hline")
    lines.append(" & " + " & ".join(label for label, _ in columns) + " \\\\")
    lines.append("\\hline")
    for i in range(depth):
        row = [f"$\\beta_{{{i}}}$"]
        for _, cell in columns:
            if cell["error"] is not None:
                row.append("!")
            elif i < len(cell["middle"]):
                row.append(f"${cell['middle'][i]}$")
            else:
                row.append("-")
        lines.append(" & ".join(row) + " \\\\")
    lines.append("\\hline")
    lines.append("\\end{tabular}")
    for label, cell in columns:
        if cell["error"] is not None:
            lines.append(f"% error {label.strip()}: {cell['error']}")
    return "\n".join(lines) + "\n"


def cmd_compute(args, out=None):
    out = out or sys.stdout
    instance, options = _load_document(args.input)
    method = args.method or options["method"]
    truncation = options["truncation"]
    if args.truncation is not None:
        truncation = _require_truncation(args.truncation, "--truncation")
    force = args.force or options["force"]
    start = time.perf_counter()
    res = compute(instance, method, truncation=truncation, force=force)
    elapsed = time.perf_counter() - start
    _emit_result(
        res,
        args.format,
        out,
        timing=elapsed if args.timing else None,
        label=f"$g={instance.genus}$",
    )
    return EXIT_OK


def cmd_compare(args, out=None):
    out = out or sys.stdout
    instance, options = _load_document(args.input)
    results, mismatch = compare_methods(
        instance, truncation=options["truncation"], force=options["force"]
    )
    width = max(len(m) for m in results)
    for m, res in results.items():
        betti = ",".join(str(b) for b in res.betti)
        out.write(f"{m:<{width}}  dim={res.dim} betti={betti}\n")
    if mismatch is None:
        out.write("verdict: AGREE\n")
        return EXIT_OK
    base, other, exp = mismatch
    out.write(f"verdict: DISAGREE {base} vs {other} first at t^{exp}\n")
    return EXIT_INTERNAL


def _parse_range(text, fallback):
    if text is None:
        return [fallback]
    s = text.strip()
    if ".." in s:
        a, b = s.split("..", 1)
        try:
            lo, hi = int(a), int(b)
        except ValueError as exc:
            raise DocumentError(f"bad range {text!r}") from exc
        if hi < lo:
            raise DocumentError(f"bad range {text!r}: end below start")
        return list(range(lo, hi + 1))
    try:
        return [int(s)]
    except ValueError as exc:
        raise DocumentError(f"bad range {text!r}") from exc


def _sweep_cell(payload):
    genus, degree, specs, method, truncation, force = payload
    try:
        instance = Instance(genus, degree, make_data(specs))
        res = compute(instance, method, truncation=truncation, force=force)
    except Exception as exc:  # rendered as a table annotation
        return {
            "middle": [],
            "dim": None,
            "empty": None,
            "error": f"{type(exc).__name__}: {exc}",
        }
    return _cell_from_result(res)


def _forked_cells(jobs, w):
    """Cells of jobs in order over w stripes: forked child k (0 < k < w) runs
    jobs[k::w] and pipes its cells back as one JSON list; stripe 0 runs here."""
    children, outputs, codes = [], [], []
    try:
        for k in range(1, w):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # only _exit: never unwind the caller's stack or flush its stdio
                try:
                    with open(wfd, "w", encoding="utf-8") as fh:
                        json.dump([_sweep_cell(job) for job in jobs[k::w]], fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(wfd)
            children.append((pid, open(rfd, encoding="utf-8")))
        cells = [None] * len(jobs)
        cells[::w] = [_sweep_cell(job) for job in jobs[::w]]
        outputs = [fh.read() for _, fh in children]
    finally:
        for pid, fh in children:
            fh.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for k, (code, raw) in enumerate(zip(codes, outputs), 1):
        if code != 0:
            raise ChildProcessError(f"sweep worker {k} exited with status {code}")
        try:
            cells[k::w] = json.loads(raw)
        except (ValueError, TypeError) as exc:  # not JSON, or not a list of one cell per job
            raise ChildProcessError(f"sweep worker {k} sent unreadable output") from exc
    return cells


def _worker_count():
    raw = os.environ.get(WORKERS_VAR)
    if raw is None or not raw.strip():
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise DocumentError(f"{WORKERS_VAR} must be an integer, got {raw!r}") from exc
    return max(n, 1)


def cmd_sweep(args, out=None):
    out = out or sys.stdout
    instance, options = _load_document(args.input)
    genus_list = _parse_range(args.genus_range, instance.genus)
    if genus_list[0] < 0:
        raise DocumentError(f"--genus-range: genus must be >= 0, got {genus_list[0]}")
    degree_list = _parse_range(args.degree_range, instance.degree)
    specs = tuple(
        (tuple(pt.mults), tuple(str(w) for w in pt.weights))
        for pt in instance.data.points
    )
    jobs = [
        (g, d, specs, options["method"], options["truncation"], options["force"])
        for g in genus_list
        for d in degree_list
    ]
    workers = min(_worker_count(), len(jobs), os.cpu_count() or 1)
    if workers >= 2 and hasattr(os, "fork"):
        cells = _forked_cells(jobs, workers)
    else:
        cells = [_sweep_cell(job) for job in jobs]
    columns = []
    for (g, d, *_), cell in zip(jobs, cells):
        if len(degree_list) == 1:
            label = f"$g={g}$"
        elif len(genus_list) == 1:
            label = f"$d={d}$"
        else:
            label = f"$g={g},d={d}$"
        columns.append((label, cell))
    if all(c["error"] is not None for _, c in columns):
        for label, cell in columns:
            sys.stderr.write(f"error {label}: {cell['error']}\n")
        refusals = ("StrictSemistable", "IntegralPsi")
        if all(c["error"].split(":")[0] in refusals for _, c in columns):
            return EXIT_REFUSED
        return EXIT_INTERNAL
    if args.format == "latex":
        out.write(_latex_table(columns))
    else:
        depth = max(len(c["middle"]) for _, c in columns if c["error"] is None)
        header = ["g", "d"] + ["dim", "empty"] + [f"b{i}" for i in range(depth)] + ["error"]
        out.write(",".join(header) + "\n")
        for (g, d, *_), cell in zip(jobs, cells):
            if cell["error"] is not None:
                row = [str(g), str(d)] + [""] * (depth + 2) + [cell["error"]]
            else:
                mid = cell["middle"]
                row = (
                    [str(g), str(d), str(cell["dim"]),
                     "true" if cell["empty"] else "false"]
                    + [str(b) for b in mid]
                    + [""] * (depth - len(mid))
                    + [""]
                )
            out.write(",".join(row) + "\n")
    return EXIT_OK


def cmd_check(args, out=None):
    out = out or sys.stdout
    instance, _ = _load_document(args.input)
    data = instance.data
    out.write(f"rank: {data.rank}\n")
    out.write(f"points: {data.num_points}\n")
    out.write(f"genus: {instance.genus}\n")
    out.write(f"degree: {instance.degree}\n")
    out.write(f"dimension: {moduli_dim(data, instance.genus)}\n")
    wit = slope_coincidence_witness(data, instance.degree)
    if wit is None:
        out.write("ss_equals_stable: true\n")
    else:
        sub, e = wit
        out.write("ss_equals_stable: false\n")
        out.write(
            "witness_sub_multiplicities: "
            + json.dumps([list(pt.mults) for pt in sub.points])
            + "\n"
        )
        out.write(f"witness_degree: {e}\n")
    all_d = all(ss_equals_stable(data, rho) for rho in range(data.rank))
    out.write(f"stable_for_all_degrees: {'true' if all_d else 'false'}\n")
    if data.rank == 2:
        try:
            profile = profile_from_instance(instance)
            verdict = exists_stable_rank2(profile)
            out.write(f"exists_stable: {'true' if verdict else 'false'}\n")
        except IntegralPsi:
            out.write("exists_stable: indeterminate (integral signed gap sum)\n")
        except ValueError:
            pass
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="parbetti",
        description="Betti numbers of moduli of parabolic stable bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute the Betti polynomial of one instance")
    p.add_argument("input", help="instance document (JSON)")
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--format", choices=("json", "csv", "latex", "text"), default="json")
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("compare", help="run every applicable method and compare")
    p.add_argument("input")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="tabulate Betti numbers over genus/degree ranges")
    p.add_argument("input")
    p.add_argument("--genus-range", default=None)
    p.add_argument("--degree-range", default=None)
    p.add_argument("--format", choices=("latex", "csv"), default="latex")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("check", help="stability and existence report")
    p.add_argument("input")
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DocumentError, MethodInapplicable, TruncationLimit) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except (StrictSemistable, IntegralPsi) as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return EXIT_REFUSED
    except (NonPolynomialResult, TruncationTooSmall, ChildProcessError) as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
