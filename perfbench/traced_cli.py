"""Run one optishape command with the tracer installed, then write its spans.

Usage: python traced_cli.py SPANS_PATH OP_ID ARGS...

ARGS are what ``python -m optishape`` would take.  Output and exit status
are the command's own; the spans are written even when the command fails.
"""

import sys

import tracer


def main() -> int:
    path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    trace = tracer.Tracer(op)
    trace.install("optishape")
    from optishape import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        sys.stdout.flush()
        trace.dump(path)


if __name__ == "__main__":
    sys.exit(main())
