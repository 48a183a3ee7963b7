"""Command line interface: instance documents, emitters, sweeps.

The argument grammar is the table ``COMMANDS``: each subcommand takes one
input document and its options, a choice, an integer, a string or a flag,
written ``--opt value`` or ``--opt=value``.  A value that starts with ``-``
must use the ``=`` form, unless it is a negative number.  ``-h`` or
``--help`` prints ``USAGE``.  A process imports only what its command runs:
the recursion and rank-2 routes load when they are used.

Exit codes: 0 success, 1 invalid input or usage, 2 refusal on strictly
semistable input (or an integral gap sum on the rank-2 route), 3 a failed
certificate or routes that disagree under compare.  Usage errors print
one ``error:`` line, as invalid documents do.  A sweep of more than
``MAX_SWEEP_CELLS`` = 10 000 (genus, degree) cells is refused with exit 1
before any cell runs.  So is, by ``engine.compute`` and for every route, an
instance whose twice-dimension is past the series limit ``MAX_TRUNCATION``
= 20 000: one ``error:`` line, before any numerator or series is built.
Sweeps run in this process (``engine.sweep``); one whose every cell fails
exits as its cells do: 2 if all were refusals, 1 if all were invalid input
(an inapplicable method or that limit), 3 otherwise.
"""

import json
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from .engine import (
    METHODS,
    MethodInapplicable,
    StrictSemistable,
    compare_methods,
    compute,
    sweep,
)
from .laurent import TruncationLimit, TruncationTooSmall
from .parabolic import (
    Instance,
    make_data,
    moduli_dim,
    slope_coincidence_witness,
    ss_equals_stable,
)
from .result import IntegralPsi, NonPolynomialResult

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_REFUSED = 2
EXIT_INTERNAL = 3

MAX_SWEEP_CELLS = 10_000


class DocumentError(ValueError):
    """Invalid document or argument; message names the offending field."""


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
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # an integer past the int-string digit limit
        raise DocumentError(f"{path}: invalid JSON number: {exc}") from exc
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
        out.write(_latex_table([(label or "", _cell(res))]))
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


def _cell(outcome):
    """A table cell: a result, or the exception raised in its place."""
    if isinstance(outcome, Exception):
        error = f"{type(outcome).__name__}: {outcome}"
        return {"middle": [], "dim": None, "empty": None, "error": error}
    middle = [0] if outcome.empty else list(outcome.middle_betti())
    return {"middle": middle, "dim": outcome.dim, "empty": outcome.empty, "error": None}


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
    """The inclusive range ``A..B`` or single value in text, as a range."""
    if text is None:
        return range(fallback, fallback + 1)
    s = text.strip()
    if ".." in s:
        a, b = s.split("..", 1)
        try:
            lo, hi = int(a), int(b)
        except ValueError as exc:
            raise DocumentError(f"bad range {text!r}") from exc
        if hi < lo:
            raise DocumentError(f"bad range {text!r}: end below start")
        return range(lo, hi + 1)
    try:
        lo = int(s)
    except ValueError as exc:
        raise DocumentError(f"bad range {text!r}") from exc
    return range(lo, lo + 1)


def cmd_sweep(args, out=None):
    out = out or sys.stdout
    instance, options = _load_document(args.input)
    genera = _parse_range(args.genus_range, instance.genus)
    if genera[0] < 0:
        raise DocumentError(f"--genus-range: genus must be >= 0, got {genera[0]}")
    degrees = _parse_range(args.degree_range, instance.degree)
    # stop - start, not len(): len() overflows past sys.maxsize
    cells = (genera.stop - genera.start) * (degrees.stop - degrees.start)
    if cells > MAX_SWEEP_CELLS:
        raise DocumentError(f"sweep of {cells} cells exceeds the limit of {MAX_SWEEP_CELLS}")
    grid = [(g, d) for g in genera for d in degrees]
    outcomes = sweep(instance.data, genera, degrees, options["method"],
                     options["truncation"], options["force"])
    columns = []
    for (g, d), outcome in zip(grid, outcomes):
        if len(degrees) == 1:
            label = f"$g={g}$"
        elif len(genera) == 1:
            label = f"$d={d}$"
        else:
            label = f"$g={g},d={d}$"
        columns.append((label, _cell(outcome)))
    if all(c["error"] is not None for _, c in columns):
        for label, cell in columns:
            sys.stderr.write(f"error {label}: {cell['error']}\n")
        kinds = {c["error"].split(":")[0] for _, c in columns}
        if kinds <= {"StrictSemistable", "IntegralPsi"}:
            return EXIT_REFUSED
        if kinds <= {"MethodInapplicable", "TruncationLimit"}:
            return EXIT_INVALID
        return EXIT_INTERNAL
    if args.format == "latex":
        out.write(_latex_table(columns))
    else:
        depth = max(len(c["middle"]) for _, c in columns if c["error"] is None)
        header = ["g", "d"] + ["dim", "empty"] + [f"b{i}" for i in range(depth)] + ["error"]
        out.write(",".join(header) + "\n")
        for (g, d), (_, cell) in zip(grid, columns):
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
        from .rank2 import exists_stable_rank2, profile_from_instance

        try:
            profile = profile_from_instance(instance)
            verdict = exists_stable_rank2(profile)
            out.write(f"exists_stable: {'true' if verdict else 'false'}\n")
        except IntegralPsi:
            out.write("exists_stable: indeterminate (integral signed gap sum)\n")
        except ValueError:
            pass
    return EXIT_OK


USAGE = """\
parbetti compute INPUT [--method M] [--format json|csv|latex|text]
                        [--truncation N] [--force] [--timing]
parbetti compare INPUT
parbetti sweep   INPUT [--genus-range A..B] [--degree-range A..B]
                        [--format latex|csv]
parbetti check   INPUT
"""


def cmd_help(args, out=None):
    (out or sys.stdout).write(USAGE)
    return EXIT_OK


# each subcommand's function and options; an option maps to (kind, default),
# with kind a tuple of choices, int or str (the option takes a value) or
# bool (a flag)
COMMANDS = {
    "compute": (cmd_compute, {
        "--method": (METHODS, None),
        "--format": (("json", "csv", "latex", "text"), "json"),
        "--truncation": (int, None),
        "--force": (bool, False),
        "--timing": (bool, False),
    }),
    "compare": (cmd_compare, {}),
    "sweep": (cmd_sweep, {
        "--genus-range": (str, None),
        "--degree-range": (str, None),
        "--format": (("latex", "csv"), "latex"),
    }),
    "check": (cmd_check, {}),
}

# argparse's rule: a token that reads as a negative number is a value
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _is_option(token):
    return token[:1] == "-" and token != "-" and not _NEGATIVE_NUMBER.fullmatch(token)


def _invalid_choice(name, text, choices):
    listed = ", ".join(map(repr, choices))
    return DocumentError(f"argument {name}: invalid choice: {text!r} (choose from {listed})")


def _option_value(name, kind, text):
    if kind is str:
        return text
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise DocumentError(f"argument {name}: invalid int value: {text!r}") from None
    if text not in kind:
        raise _invalid_choice(name, text, kind)
    return text


def parse_args(argv):
    """The command function that an argument list names and its arguments:
    ``input`` and one attribute per option of ``COMMANDS``.  ``-h`` or
    ``--help`` anywhere gives ``cmd_help``.  A usage error raises
    ``DocumentError`` in argparse's words."""
    if "-h" in argv or "--help" in argv:
        return cmd_help, None
    if not argv:
        raise DocumentError("the following arguments are required: command")
    if argv[0] not in COMMANDS:
        raise _invalid_choice("command", argv[0], COMMANDS)
    command, options = COMMANDS[argv[0]]
    values = {name: default for name, (_, default) in options.items()}
    inputs = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not _is_option(token):
            inputs.append(token)
            continue
        name, eq, text = token.partition("=")
        if name not in options:
            raise DocumentError(f"unrecognized arguments: {token}")
        kind = options[name][0]
        if kind is bool:
            if eq:
                raise DocumentError(f"argument {name}: ignored explicit argument {text!r}")
            values[name] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or _is_option(text):
                raise DocumentError(f"argument {name}: expected one argument")
        values[name] = _option_value(name, kind, text)
    if not inputs:
        raise DocumentError("the following arguments are required: input")
    if len(inputs) > 1:
        raise DocumentError(f"unrecognized arguments: {' '.join(inputs[1:])}")
    fields = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return command, SimpleNamespace(input=inputs[0], **fields)


def main(argv=None):
    try:
        command, args = parse_args(sys.argv[1:] if argv is None else argv)
        return command(args)
    except (DocumentError, MethodInapplicable, TruncationLimit) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except (StrictSemistable, IntegralPsi) as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return EXIT_REFUSED
    except (NonPolynomialResult, TruncationTooSmall) as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
