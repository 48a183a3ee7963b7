"""Build a genus-by-genus Betti table with the sweep subcommand.

Four flagged points in rank 2 with weights 1/2, 1/3, 1/4, 1/5; genus runs
from 0 to 3 and the degree stays 0.  Output is a LaTeX tabular, one genus
per column, dashes above each column's middle dimension.
"""

import json
import os
import sys
import tempfile

from parbetti.cli import main

doc = {
    "genus": 0,
    "degree": 0,
    "points": [
        {"weights": ["0", "1/2"], "multiplicities": [1, 1]},
        {"weights": ["0", "1/3"], "multiplicities": [1, 1]},
        {"weights": ["0", "1/4"], "multiplicities": [1, 1]},
        {"weights": ["0", "1/5"], "multiplicities": [1, 1]},
    ],
}

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "instance.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code = main(["sweep", path, "--genus-range", "0..3", "--format", "latex"])

sys.exit(code)
