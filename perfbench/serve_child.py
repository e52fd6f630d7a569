"""The benchmark's server launcher: ``repro serve`` with an optional tracer.

Run from the checkout root::

    python3 perfbench/serve_child.py [--trace-out FILE] -- <repro serve arguments>

It imports the program from ``src/``, installs the tracer when
``--trace-out`` is given, and hands the remaining arguments to the
program's own ``repro serve`` command, which prints the bound address
and serves until interrupted.  On SIGINT/SIGTERM the server stops and
the spans are written to ``--trace-out``.
"""

from __future__ import annotations

import os
import signal
import sys


def main(argv: list) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    # SIGTERM takes the same orderly path as Ctrl-C, so the spans are
    # written whichever way the launcher stops this process.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    tracer = None
    if trace_out is not None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import repro.serve  # noqa: F401  (load every traced module first)
        import repro.experiments.runner  # noqa: F401
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *argv]) or 0
    except KeyboardInterrupt:
        return 0
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
