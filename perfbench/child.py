"""Run one `spinstat` command line under the tracer, for traced CLI runs.

Usage: python perfbench/child.py SPANS_PATH ARG...

Equivalent to `python -m spinstat ARG...`, but it times the import of
`spinstat.cli` and wraps the package's public functions before calling
`main`; the spans go to SPANS_PATH when the command ends.
"""

import sys
import time


def run(spans_path: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import spinstat.cli
    imported = time.perf_counter()
    # imported after the timed import, so that the tracer's own imports
    # do not make `import spinstat.cli` look cheaper
    from spans import Tracer

    tracer = Tracer()
    tracer.add_span("cli.import", start, imported)
    tracer.install()
    try:
        return spinstat.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1], sys.argv[2:]))
