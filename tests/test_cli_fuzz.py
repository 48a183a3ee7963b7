"""Fuzzing of the command line: whatever the argument list or the document,
``main`` ends in a documented exit code with at most one line on standard
error and never a traceback."""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from parbetti import cli

DOCUMENTS = [
    {
        "genus": 1,
        "degree": 0,
        "points": [
            {"weights": ["0", "1/2"], "multiplicities": [1, 1]},
            {"weights": ["0", "1/3"], "multiplicities": [1, 1]},
        ],
    },
    {
        "genus": 0,
        "degree": 1,
        "points": [{"weights": ["0", "1/4", "1/2"], "multiplicities": [1, 1, 1]}],
        "options": {"method": "closed", "truncation": None, "force": False},
    },
    {  # strictly semistable: refused, or uncertified under force
        "genus": 2,
        "degree": 0,
        "points": [
            {"weights": ["0", "1/2"], "multiplicities": [1, 1]},
            {"weights": ["0", "1/2"], "multiplicities": [1, 1]},
        ],
    },
]

# values small enough that every route answers at once
JSON_VALUES = st.sampled_from(
    [0, 1, 3, -1, -4, True, None, "1", "1/3", "0.5", "x", [], {}, [1, 1], 1.5]
)
WEIGHTS = st.sampled_from(["0", "1/5", "1/2", "2/3", "1", "-1/3", "0.5", "1/0", "x", 3])
MULTIPLICITIES = st.sampled_from([0, 1, 2, -1, True, "1"])
METHOD_VALUES = ["closed", "qclosed", "recursion", "rank2", "nope", ""]


@st.composite
def documents(draw):
    """A valid document with a few fields changed, dropped or added."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["top", "drop", "extra", "weight", "mult", "option"]))
        if kind == "top":
            doc[draw(st.sampled_from(["genus", "degree", "points", "options"]))] = draw(JSON_VALUES)
        elif kind == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif kind == "extra":
            doc["stray"] = draw(JSON_VALUES)
        elif kind in ("weight", "mult") and isinstance(doc.get("points"), list) and doc["points"]:
            point = draw(st.sampled_from(doc["points"]))
            field = "weights" if kind == "weight" else "multiplicities"
            if isinstance(point, dict) and isinstance(point.get(field), list) and point[field]:
                i = draw(st.integers(0, len(point[field]) - 1))
                point[field][i] = draw(WEIGHTS if kind == "weight" else MULTIPLICITIES)
        elif kind == "option":
            options = doc.setdefault("options", {})
            if isinstance(options, dict):
                key = draw(st.sampled_from(["method", "truncation", "force", "other"]))
                options[key] = draw(st.sampled_from(METHOD_VALUES) if key == "method"
                                    else JSON_VALUES)
    return doc


OPTION_NAMES = sorted({name for _, options in cli.COMMANDS.values() for name in options})
VALUES = METHOD_VALUES + [
    "json", "csv", "latex", "text", "12", "0", "-5", "30000", "x", "1e3", "-.5", "-",
    "0..2", "1", "2..1", "-1..1", "-3..-1", "a..b", "0..20000", "1..2..3",
]
DOC = "DOC"  # stands for the path of the drawn document
TOKENS = st.one_of(
    st.sampled_from(list(cli.COMMANDS) + ["frobnicate", ""]),
    st.sampled_from(OPTION_NAMES + ["-h", "--help", "--meth", "-x", "--"]),
    st.builds("{}={}".format, st.sampled_from(OPTION_NAMES), st.sampled_from(VALUES)),
    st.sampled_from(VALUES),
    st.sampled_from([DOC, DOC, "missing.json"]),
)
ARGVS = st.one_of(
    st.lists(TOKENS, max_size=6),
    st.builds(lambda command, rest: [command, DOC] + rest,
              st.sampled_from(list(cli.COMMANDS)), st.lists(TOKENS, max_size=4)),
    st.builds(lambda rest: ["compute", DOC] + rest, st.lists(st.sampled_from(
        ["--force", "--method=recursion", "--method=rank2", "--truncation=0", "--format=text"]
    ), max_size=3)),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=ARGVS, doc=documents())
def test_cli_never_crashes(tmp_path, argv, doc):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if token == DOC else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()
    if argv[:1] == ["sweep"] and lines and all(line.startswith("error $") for line in lines):
        return  # a sweep whose every cell failed prints one line per cell
    assert len(lines) <= 1, lines
