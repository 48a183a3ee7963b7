"""Instance documents end to end: parse, compute, compare, check."""

import json
import os
import tempfile

from parbetti.cli import emit_document, main, parse_document

doc = {
    "genus": 1,
    "degree": 0,
    "points": [
        {"weights": ["0", "1/12", "3/12"], "multiplicities": [1, 1, 1]},
        {"weights": ["1/12", "5/12", "6/12"], "multiplicities": [1, 1, 1]},
    ],
}

instance, options = parse_document(doc)
assert parse_document(emit_document(instance, options))[0] == instance
print("document round trip holds")
print()

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "instance.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)

    print("== compute, text format ==")
    main(["compute", path, "--format", "text"])
    print()
    print("== compare every applicable method ==")
    main(["compare", path])
    print()
    print("== stability report ==")
    main(["check", path])
