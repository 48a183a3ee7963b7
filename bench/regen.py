"""Regenerate bench/references.json, each workload's references made by a
route independent of the one the workload times.

    python3 bench/regen.py [closed-large] [recursion]

* closed-large (closed and qclosed) gets its references from the recursion
  route, which shares no block-sum code with them.  This took about 15
  minutes on one core, most of it for rank 4 with two points.  The rank-5
  instance has none: the recursion had not finished on it after 5 minutes,
  so it is checked by qclosed = closed and by the Betti-number properties
  only.
* recursion gets its references from the closed route (seconds).

With no argument both are rebuilt; otherwise only the named workloads'
entries are replaced.  Seeds keep every weight vector in its stability
chamber, so the seed-0 answers hold for every seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from instances import jobs_for  # noqa: E402
from reference import REFERENCES, load_references  # noqa: E402

ROOT = HERE.parent
ROUTES = {"closed-large": "recursion", "recursion": "closed"}
NO_REFERENCE = {"rank5 1pt (2,1)"}


def solve(job, route, env):
    doc = job.document()
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=HERE, delete=False) as fh:
        json.dump(doc, fh)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "parbetti.cli", "compute", fh.name,
             "--method", route, "--format", "json"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
    finally:
        os.unlink(fh.name)
    res = json.loads(out)
    return {"route": route, "genus": doc["genus"], "degree": doc["degree"],
            "points": doc["points"], "dim": res["dim"], "betti": res["betti"]}


def main(workloads):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    refs = load_references()
    for workload in workloads or ROUTES:
        route = ROUTES[workload]
        done = set(NO_REFERENCE)
        for job in jobs_for(workload, 0):
            if job.tag in done:
                continue
            done.add(job.tag)
            start = time.monotonic()
            refs[job.tag] = solve(job, route, env)
            print(f"{job.tag}: {route}, {time.monotonic() - start:.0f} s", flush=True)
    lines = ",\n".join(f"  {json.dumps(tag)}: {json.dumps(entry)}" for tag, entry in refs.items())
    REFERENCES.write_text('{"instances": {\n' + lines + "\n}}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
