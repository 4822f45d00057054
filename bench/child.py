"""CLI job of a traced run: one retromech invocation, with or without spans.

    python bench/child.py SPANS_FILE|- CLI_ARG...

Runs ``retromech.cli.main(CLI_ARG...)`` in this process and exits with
the CLI's exit code. Given SPANS_FILE, it wraps the layer boundaries and
writes the recorded spans and the wall time of ``main`` there as JSON.
Given ``-``, it runs the same code without the wrappers, which is the
untraced side of the tracing-overhead pair.
"""

import json
import sys
import time

import spans


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    from retromech import cli

    if spans_file == "-":
        return cli.main(argv)
    tracer = spans.Tracer()
    spans.install(tracer)
    start = time.perf_counter_ns()
    code = cli.main(argv)
    wall = time.perf_counter_ns() - start
    with open(spans_file, "w") as handle:
        json.dump({"main_ns": wall, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
