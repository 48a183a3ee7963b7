"""Run one parbetti CLI command in this fresh interpreter.

    python3 bench/child.py REPORT TRACE CLI-ARGS...

Behaves as ``python -m parbetti.cli CLI-ARGS...`` (``src`` comes from
PYTHONPATH) and exits with its code.  It also writes REPORT, a JSON object
with ``parsed_at``, the CLOCK_MONOTONIC time at which the instance document
had been parsed, so the caller can time interpreter start, import and
parsing.  With TRACE = 1 the layer spans of this process go to REPORT.trace
and those of each pool worker to REPORT.trace.<pid>.
"""

import json
import sys
import time


def main():
    report, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from parbetti import cli

    if trace:
        import tracer

        tracer.install()
        tracer.set_output(report + ".trace")
    parsed_at = []
    parse = cli.parse_document

    def parse_document(obj):
        out = parse(obj)
        if not parsed_at:
            parsed_at.append(time.monotonic())
        return out

    cli.parse_document = parse_document
    code = cli.main(argv)
    if trace:
        tracer.dump(report + ".trace")
    with open(report, "w") as fh:
        json.dump({"parsed_at": parsed_at[0] if parsed_at else None}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
