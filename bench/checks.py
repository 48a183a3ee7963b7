"""Parse the CLI's outputs and check every solved instance.

Each solved instance becomes a ``Solved`` record (route, genus, degree, dim,
empty flag, Betti numbers).  ``Checker.check`` holds it against

* the Betti-number properties every instance must have,
* every independent reference in ``reference.py`` that covers it, and
* every other route's answer for the same instance seen earlier in the run
  (cross-route agreement between separate processes).

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from reference import expected_sources, moduli_dim


@dataclass(frozen=True)
class Solved:
    route: str
    genus: int
    degree: int
    dim: int
    empty: bool
    betti: tuple  # every Betti number, or only those up to the middle
    complete: bool  # True when betti runs to 2 * dim


class OutputError(ValueError):
    """An output that does not parse as the subcommand's documented format."""


def parse_compute(text, method, genus, degree):
    doc = json.loads(text)
    betti = tuple(doc["betti"])
    poly = {e: c for e, c in doc["polynomial"]}
    if [poly.get(i, 0) for i in range(len(betti))] != list(betti) or any(
        e < 0 or e >= len(betti) for e in poly
    ):
        raise OutputError("polynomial and Betti vector disagree")
    return [Solved(method, genus, degree, doc["dim"], doc["empty"], betti, True)]


def parse_compare(text, genus, degree):
    lines = text.splitlines()
    if not lines or lines[-1] != "verdict: AGREE":
        raise OutputError(f"compare verdict {lines[-1] if lines else None!r}")
    out = []
    for line in lines[:-1]:
        route, dim_f, betti_f = line.split()
        dim = int(dim_f.removeprefix("dim="))
        betti = tuple(int(b) for b in betti_f.removeprefix("betti=").split(",") if b)
        out.append(Solved(route, genus, degree, dim, not any(betti), betti, True))
    return out


def parse_sweep(text):
    """Solved cells, and the error text of each cell the program failed on."""
    lines = text.splitlines()
    header = lines[0].split(",")
    if header[:4] != ["g", "d", "dim", "empty"] or header[-1] != "error":
        raise OutputError(f"unexpected sweep header {lines[0]!r}")
    out, errors = [], []
    for row in lines[1:]:
        cells = row.split(",")
        if cells[-1]:
            errors.append(f"sweep cell g={cells[0]} d={cells[1]}: {cells[-1]}")
            continue
        middle = tuple(int(c) for c in cells[4:-1] if c != "")
        out.append(Solved("closed", int(cells[0]), int(cells[1]), int(cells[2]),
                          cells[3] == "true", middle, False))
    return out, errors


def middle(s):
    return list(s.betti[: s.dim + 1]) if not s.empty else [0]


def property_problems(s, points):
    """Properties every answer must have, whatever the weights."""
    g = s.genus
    want_dim = moduli_dim(points, g)
    if s.dim != want_dim:
        return [f"dim {s.dim}, expected flag_dim + (n^2-1)(g-1) = {want_dim}"]
    b = list(s.betti)
    if s.empty:
        return [] if not any(b) else ["empty space with a nonzero Betti number"]
    probs = []
    length = 2 * s.dim + 1 if s.complete else s.dim + 1
    if len(b) != length:
        return [f"{len(b)} Betti numbers, expected {length}"]
    if b[0] != 1:
        probs.append(f"b0 = {b[0]}")
    if any(x < 0 for x in b):
        probs.append("negative Betti number")
    if s.complete and b != b[::-1]:
        probs.append("Poincare duality fails")
    if g >= 2:
        steps = 1 + sum(len(mults) - 1 for mults, _ in points)
        for i, want in ((1, 0), (2, steps), (3, 2 * g)):
            if i < len(b) and b[i] != want:
                probs.append(f"b{i} = {b[i]}, expected {want}")
    return probs


class Checker:
    """Checks solved instances against references and against each other."""

    def __init__(self, references):
        self.references = references
        self.seen = {}  # (points, g, d) -> first Solved for it

    def check(self, s, points, tag):
        probs = property_problems(s, points)
        got = middle(s)
        for source, want in expected_sources(tag, points, s.genus, s.degree, self.references):
            if got != list(want):
                probs.append(f"differs from the {source}")
        key = (points, s.genus, s.degree)
        first = self.seen.setdefault(key, s)
        if first is not s and (first.dim, middle(first)) != (s.dim, got):
            probs.append(f"{s.route} differs from {first.route} in another process")
        return [f"{s.route} g={s.genus} d={s.degree}: {p}" for p in probs]
