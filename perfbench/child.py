"""Run one ``charclass`` command with spans around the engine's functions.

    python3 perfbench/child.py OUT_FILE COMMAND [ARGS...]

Installs the tracer, calls ``charclass.cli.run_command`` with the remaining
arguments, and writes the spans to OUT_FILE as JSON.  Exits with the
command's exit code.
"""

from __future__ import annotations

import sys

from charclass import cli

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with tracer:
        code = cli.run_command(argv)
    tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
