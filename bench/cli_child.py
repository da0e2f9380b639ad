"""Traced stand-in for ``python -m hompoisson.cli``: cli_child.py ARGS...

Installs the span wrappers, runs the command exactly as the CLI entry point
does, writes the spans to the file named by ``BENCH_SPANS_FILE`` and exits
with the command's code.  An exception escaping the CLI still propagates
(traceback, exit 1), as it would under ``python -m``.
"""

import os
import sys

import library
import spans


def main():
    path, argv = os.environ["BENCH_SPANS_FILE"], sys.argv[1:]
    lib = library.load(with_cli=True)
    tracer = spans.Tracer()
    tracer.current_job = 0
    tracer.install(vars(lib))
    try:
        code = lib.cli.run_command(argv)
    finally:
        tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
