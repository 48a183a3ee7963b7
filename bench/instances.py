"""Workload make-up: the instance documents each workload sends to the CLI.

Seed 0 gives the fixed instances (the paper's tables and the ROADMAP ladder).
Any other seed redraws every weight vector inside its stability chamber (a
random common shift per point, see ``_redraw``) and reorders the points,
keeping the flag types, genera, degrees and ranges; a draw that is strictly
semistable at a degree the job solves is refused.  The program only ever
sees the generated documents.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction

WORKLOADS = ("tables", "closed-large", "recursion")

# -- seed-0 weights ----------------------------------------------------------

RANK2_CASES = {
    "A": (("0", "1/3"),),
    "B": (("0", "1/3"), ("0", "1/4")),
    "C": (("0", "3/4"), ("0", "1/4"), ("0", "1/5")),
    "D": (("0", "1/2"), ("0", "1/3"), ("0", "1/4")),
    "E": (("0", "4/5"), ("0", "1/5"), ("0", "1/7"), ("0", "1/11")),
    "F": (("0", "1/2"), ("0", "1/3"), ("0", "1/4"), ("0", "1/5")),
}
RANK3_ONE = (("0", "1/12", "3/12"),)
RANK3_TWO = (("0", "1/12", "3/12"), ("1/12", "5/12", "6/12"))
RANK4_W1 = (("0", "1/8", "1/4", "1/2"),)
RANK4_W2 = (("0", "1/5", "4/5", "9/10"),)

LADDER_R3 = ("0", "1/5", "3/7")
LADDER_R3_B = ("1/11", "2/9", "5/8")
LADDER_R3_C = ("0", "1/13", "7/17")
LADDER_R4 = ("0", "1/7", "2/7", "4/9")
LADDER_R4_B = ("1/11", "2/13", "5/17", "7/19")
LADDER_R5 = ("0", "1/11", "2/13", "3/17", "5/19")


def full(*weight_rows):
    """Points with full flags: multiplicity 1 on every weight."""
    return tuple(((1,) * len(w), tuple(w)) for w in weight_rows)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: a subcommand on one document.

    ``tag`` names the family whose reference values apply (redrawn weights
    stay in the same chamber, so the references hold for every seed).
    ``genus``/``degree`` are the document's own values; a sweep covers
    ``genera`` x ``degrees`` instead.
    """

    label: str
    command: str
    points: tuple
    genus: int
    degree: int
    method: str = "closed"
    genera: tuple = ()
    degrees: tuple = ()
    tag: str | None = None

    def document(self):
        return {
            "genus": self.genus,
            "degree": self.degree,
            "points": [
                {"weights": list(w), "multiplicities": list(m)} for m, w in self.points
            ],
            "options": {"method": self.method},
        }

    def argv(self, path):
        if self.command == "compute":
            return ["compute", path, "--method", self.method, "--format", "json"]
        if self.command == "compare":
            return ["compare", path]
        return [
            "sweep", path,
            "--genus-range", f"{self.genera[0]}..{self.genera[-1]}",
            "--degree-range", f"{self.degrees[0]}..{self.degrees[-1]}",
            "--format", "csv",
        ]

    def cells(self):
        """The (genus, degree) pairs this job solves."""
        if self.command == "sweep":
            return [(g, d) for g in self.genera for d in self.degrees]
        return [(self.genus, self.degree)]

    @property
    def operations(self):
        return len(self.cells())


def _seed0_jobs(workload):
    if workload == "tables":
        jobs = []
        for case, w in RANK2_CASES.items():
            jobs.append(Job(f"sweep rank2 {case}", "sweep", full(*w), 0, 0,
                            genera=tuple(range(9)), degrees=(0, 1), tag=f"rank2-{case}"))
        jobs.append(Job("sweep rank3 A", "sweep", full(*RANK3_ONE), 0, 0,
                        genera=tuple(range(6)), degrees=(0, 1, 2), tag="rank3-one"))
        jobs.append(Job("sweep rank3 B/C", "sweep", full(*RANK3_TWO), 0, 0,
                        genera=tuple(range(6)), degrees=(0, 1, 2), tag="rank3-two"))
        for name, w in (("W1", RANK4_W1), ("W2", RANK4_W2)):
            jobs.append(Job(f"sweep rank4 {name}", "sweep", full(*w), 0, 0,
                            genera=tuple(range(5)), degrees=(0, 1, 2, 3),
                            tag=f"rank4-{name}"))
        for case, w in RANK2_CASES.items():
            jobs.append(Job(f"compare rank2 {case}", "compare", full(*w), 3, 0,
                            tag=f"rank2-{case}"))
        # cross-route checks for the higher-rank sweeps, cheap enough at g=1
        jobs.append(Job("compare rank3 B/C", "compare", full(*RANK3_TWO), 1, 1,
                        tag="rank3-two"))
        jobs.append(Job("compare rank4 W1", "compare", full(*RANK4_W1), 1, 3,
                        tag="rank4-W1"))
        return jobs
    if workload == "closed-large":
        big = (
            ("rank4 2pt (2,1)", full(LADDER_R4, LADDER_R4_B), 2, 1),
            ("rank5 1pt (2,1)", full(LADDER_R5), 2, 1),
            ("rank3 3pt (4,1)", full(LADDER_R3, LADDER_R3_B, LADDER_R3_C), 4, 1),
            ("rank4 partial (2,1)",
             (((2, 1, 1), ("0", "1/7", "2/7")), ((1, 1, 2), ("1/11", "2/13", "5/17"))),
             2, 1),
        )
        return [
            Job(f"{method} {name}", "compute", pts, g, d, method=method, tag=name)
            for name, pts, g, d in big
            for method in ("closed", "qclosed")
        ]
    if workload == "recursion":
        r2_six = full(*[("0", f"{k}/{2 * k + 7}") for k in range(1, 7)])
        ladder = (
            ("rank3 3pt (2,1)", full(LADDER_R3, LADDER_R3_B, LADDER_R3_C), 2, 1),
            ("rank4 1pt (2,0)", full(LADDER_R4), 2, 0),
            ("rank3 2pt (3,0)", full(LADDER_R3, LADDER_R3_B), 3, 0),
            ("rank2 6pt (5,1)", r2_six, 5, 1),
        )
        return [
            Job(f"recursion {name}", "compute", pts, g, d, method="recursion", tag=name)
            for name, pts, g, d in ladder
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- seeds -------------------------------------------------------------------


def strictly_semistable(points, degree):
    """True when some proper sub-datum can sit exactly at the total slope.

    A sub-datum takes multiplicities m'_i <= m_i at every point with the same
    rank r at every point, 0 < r < n; it sits at slope lambda for an integer
    degree exactly when r * lambda - (its weight sum) is an integer.
    """
    n = sum(points[0][0])
    total_w = sum(Fraction(w) * m for mults, ws in points for m, w in zip(mults, ws))
    lam = (degree + total_w) / n
    per_point = []
    for mults, ws in points:
        subs = {}
        for sub in itertools.product(*(range(m + 1) for m in mults)):
            r = sum(sub)
            subs.setdefault(r, []).append(sum(Fraction(w) * k for k, w in zip(sub, ws)))
        per_point.append(subs)
    for r in range(1, n):
        for combo in itertools.product(*(pp[r] for pp in per_point)):
            if (r * lam - sum(combo)).denominator == 1:
                return True
    return False


_SHIFTS = sorted({Fraction(a, b) for b in range(2, 31) for a in range(-b + 1, b)})


def _redraw(points, degrees, rng):
    """New weights in the same stability chamber, points in a new order.

    Adding c to every weight at one point raises the weight sum of a rank-r
    sub-datum by r*c and the total slope by c, so r*lambda - (sub weight
    sum) is unchanged: the same sub-data destabilise, the moduli space and
    its Betti numbers are the same, and so is every slope comparison and
    floor the routes evaluate.  Only the new order of the points moves the
    work, by under 0.5 % in the traced counts.
    Fully random weights were tried first: the work then depends on the
    seed (the number of HN degree tuples follows the weights), and one
    recursion instance took 8.8 s on one seed and 12.2 s on another.
    """
    pts = []
    for mults, ws in points:
        ws = [Fraction(w) for w in ws]
        c = rng.choice([c for c in _SHIFTS if 0 <= ws[0] + c and ws[-1] + c < 1])
        pts.append((mults, tuple(str(w + c) for w in ws)))
    rng.shuffle(pts)
    pts = tuple(pts)
    if any(strictly_semistable(pts, d) for d in degrees):
        raise ValueError("a shifted weight vector left its stability chamber")
    return pts


def jobs_for(workload, seed):
    """The workload's jobs for a seed; seed 0 is the fixed make-up.

    Every job on the same seed-0 points gets the same redrawn points, so the
    cross-route compares still meet the sweeps they check.
    """
    jobs = _seed0_jobs(workload)
    if seed == 0:
        return jobs
    rng = random.Random(f"{workload}:{seed}")
    drawn = {}
    out = []
    for job in jobs:
        if job.points not in drawn:
            degrees = {d for j in jobs if j.points == job.points for _, d in j.cells()}
            drawn[job.points] = _redraw(job.points, sorted(degrees), rng)
        out.append(replace(job, points=drawn[job.points]))
    return out
