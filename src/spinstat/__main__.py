"""Process entry point: ``python -m spinstat`` and the ``spinstat`` script."""

import gc

from .cli import main


def run() -> int:
    """Run the command line as a whole process.

    The heap is frozen on the way out, also when ``cli.parse_argv`` exits
    early with ``SystemExit`` (a usage error, ``--help`` or ``--version``),
    so the interpreter's final collection skips every object still alive:
    a sweep of json and all of spinstat that frees nothing the process
    needs.  Refcount teardown, atexit and stdio flushing run as
    before.  ``cli.main`` itself stays free of this side effect, because
    tests call it in process.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
