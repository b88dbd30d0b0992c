"""Run one framephase CLI command with tracing, as ``python -m framephase``
would, and write the spans to a JSON file.

    python3 cli_launcher.py SPANS_FILE [framephase arguments...]

The file records when the interpreter reached this script (``started``,
on the monotonic clock the parent shares), the ``cli.import`` span around
``import framephase.cli`` and the ``cli.main`` span around ``cli.main(argv)``
with every traced library call nested inside it. Standard output, standard
error, report files and the exit code are those of the plain command.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.enabled = True
    code = 1
    try:
        with tracer.span("cli.import"):
            import framephase.cli
        restore = tracer.install()
        try:
            with tracer.span("cli.main"):
                code = framephase.cli.main(argv)
        finally:
            restore()
    finally:
        dump = tracer.dump()
        dump["started"] = STARTED
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
