"""Run one nanotrap CLI command under the tracer in a fresh process.

Usage: python3 perfbench/launch.py SPANS.npz <nanotrap arguments...>

Imports nanotrap.cli, installs the tracer, calls ``nanotrap.cli.main(argv)``
and writes the spans to SPANS.npz at exit; the exit code is main's.
"""
import sys

import tracer

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import nanotrap.cli

    spans = tracer.Tracer()
    spans.install()
    try:
        code = nanotrap.cli.main(argv)
    finally:
        spans.uninstall()
        spans.end_job()
        spans.dump(spans_path)
    sys.exit(code)
