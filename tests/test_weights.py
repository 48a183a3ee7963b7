"""Weights as ints: the weight grammar, and the records, integer blocks and
derived data built from the stored ratios, each against ``Fraction``."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parbetti.cli import DocumentError, _parse_weight
from parbetti.parabolic import (
    FlagPoint,
    _compositions,
    _derived,
    _integer_block,
    _parse_ratio,
    canonical_form,
    make_data,
    slope_coincidence_witness,
)

F = Fraction

# the one weight grammar of a document, whatever the interpreter: digits
# with an optional sign and an optional /digits denominator, whitespace
# around the whole and nowhere else
GRAMMAR = [
    ("0", (0, 1)),
    ("1/3", (1, 3)),
    (" 1/3\t", (1, 3)),
    ("+2/6", (1, 3)),
    ("-0", (0, 1)),
    ("-1/3", (-1, 3)),
    ("007/014", (1, 2)),
    ("١/٣", (1, 3)),  # Arabic-Indic digits, as int reads them
    ("1_0/3", None),
    ("1/3_0", None),
    ("1 /3", None),
    ("1/ 3", None),
    ("1/0", None),
    ("/3", None),
    ("1/", None),
    ("1/-3", None),
    ("1/+3", None),
    ("+-1", None),
    ("1/3/5", None),
    ("", None),
    (" ", None),
    ("0x1", None),
    ("1.5", None),
    ("1e3", None),
    ("²", None),  # a superscript is a digit to isdigit, not to int
    ("1" * 5000, None),  # past int's digit limit
]


@pytest.mark.parametrize("text, ratio", GRAMMAR)
def test_weight_grammar(text, ratio):
    if ratio is None:
        with pytest.raises(ValueError):
            _parse_ratio(text)
    else:
        assert _parse_ratio(text) == ratio


@pytest.mark.parametrize("text, message", [
    ("1_0/3", "cannot parse '1_0/3' as a fraction"),
    ("1/0", "cannot parse '1/0' as a fraction"),
    (" 1 / 3", "cannot parse ' 1 / 3' as a fraction"),
    ("0.5", "decimal weights are not accepted, write an exact fraction"),
    ("1E-3", "decimal weights are not accepted, write an exact fraction"),
])
def test_document_weight_errors(text, message):
    with pytest.raises(DocumentError) as info:
        _parse_weight(text, "w")
    assert str(info.value) == f"w: {message}"


def test_digit_limit_is_one_error_line():
    with pytest.raises(DocumentError) as info:
        _parse_weight("1/" + "3" * 5000, "w")
    assert str(info.value).startswith("w: cannot parse '1/333")


def _fraction_outcome(text):
    """``Fraction(text)`` as a ratio, or None where it raises."""
    try:
        w = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
    return w.numerator, w.denominator


def _outside_common_grammar(text):
    """Spellings the weight grammar leaves out while some ``Fraction`` reads
    them: underscores (3.11 on), decimals and exponents, and whitespace
    beside the slash (3.12 on)."""
    return any(c in text for c in "_.eE") or " /" in text or "/ " in text


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789/+- _.e٣", max_size=12))
def test_parser_matches_fraction(text):
    """Where the grammars agree, the parser accepts what ``Fraction``
    accepts, with the same value; elsewhere it rejects.  The document
    parser adds only the decimal message."""
    if _outside_common_grammar(text):
        expected = None
    else:
        expected = _fraction_outcome(text)
    try:
        got = _parse_ratio(text)
    except ValueError:
        got = None
    assert got == expected
    try:
        doc = _parse_weight(text, "w")
    except DocumentError as exc:
        doc = str(exc)
    if "." in text or "e" in text:
        assert doc == "w: decimal weights are not accepted, write an exact fraction"
    elif expected is None:
        assert doc == f"w: cannot parse {text!r} as a fraction"
    else:
        assert doc == expected


POOL = sorted({F(a, b) for b in range(1, 13) for a in range(b)})


@st.composite
def specs(draw, max_rank=4, max_points=3):
    """``(mults, weights)`` rows of valid data, zero rows included, weights
    as Fractions."""
    n = draw(st.integers(1, max_rank))
    rows = []
    for _ in range(draw(st.integers(1, max_points))):
        mults = list(draw(st.sampled_from(list(_compositions(n, draw(st.integers(1, n)))))))
        if draw(st.booleans()):
            mults.insert(draw(st.integers(0, len(mults))), 0)
        ws = draw(st.lists(st.sampled_from(POOL), min_size=len(mults), max_size=len(mults),
                           unique=True))
        rows.append((tuple(mults), tuple(sorted(ws))))
    return rows


def _spelled(draw, w):
    """w as one of the spellings a weight may take: the Fraction, its int
    when it has one, or a string, not always in lowest terms."""
    k = draw(st.integers(1, 4))
    forms = [w, str(w), f"{w.numerator * k}/{w.denominator * k}",
             f" +{w.numerator}/{w.denominator} "]
    if w.denominator == 1:
        forms.append(w.numerator)
    return draw(st.sampled_from(forms))


@settings(max_examples=150, deadline=None)
@given(rows=specs(), data=st.data())
def test_make_data_reads_every_spelling_alike(rows, data):
    reference = make_data(rows)
    spelled = make_data(
        [(m, tuple(_spelled(data.draw, w) for w in ws)) for m, ws in rows]
    )
    assert spelled == reference and hash(spelled) == hash(reference)
    assert repr(spelled) == repr(reference)
    for p, (m, ws) in zip(spelled.points, rows):
        assert p.weights == ws and all(type(w) is Fraction for w in p.weights)
        assert p.ratios == tuple((w.numerator, w.denominator) for w in ws)
    assert pickle.loads(pickle.dumps(spelled)) == reference


@settings(max_examples=150, deadline=None)
@given(rows=specs())
def test_integer_block_matches_fraction_reference(rows):
    data = make_data(rows)
    den = math.lcm(*(w.denominator for _, ws in rows for w in ws))
    nums = tuple(tuple(int(w * den) for w in ws) for _, ws in rows)
    assert _integer_block(data) == (den, (tuple(m for m, _ in rows), nums))


@settings(max_examples=150, deadline=None)
@given(rows=specs(), degree=st.integers(-4, 4))
def test_derived_rows_equal_checked_rows(rows, degree):
    """Canonical forms, sub-data and the stability witness's sub-datum,
    built from the stored ratios without checks, compare and hash equal to
    the same rows built through ``make_data``."""
    data = make_data(rows)
    kept = [tuple(zip(*[(m, w) for m, w in zip(ms, ws) if m])) for ms, ws in rows]
    for derived, checked in (
        (canonical_form(data), make_data(kept)),
        (_derived((p.mults, p.ratios) for p in data.points), data),
    ):
        assert derived == checked and hash(derived) == hash(checked)
        assert repr(derived) == repr(checked)
    witness = slope_coincidence_witness(data, degree)
    if witness is not None:
        sub = witness[0]
        checked = make_data([(p.mults, ws) for p, (_, ws) in zip(sub.points, rows)])
        assert sub == checked and hash(sub) == hash(checked)


def test_single_weight_repr_and_float_refusal():
    assert repr(FlagPoint((2,), ("0",))) == "FlagPoint(mults=(2,), weights=(Fraction(0, 1),))"
    with pytest.raises(TypeError, match="weight must be exact, got float"):
        make_data([((1, 1), (0, 0.5))])
