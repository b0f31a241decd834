"""One benchmark operation: a fresh process that runs ``fairmw run`` once.

    python3 child.py ROOT TIMINGS_JSON TRACE_PREFIX|- fairmw-run-args...

fairmw is imported from ``ROOT/src``.  The process records monotonic
timestamps around the single ``fairmw.cli.execute_trials`` call and when
``fairmw.cli.main`` returns (the parent records spawn and exit), plus the
peak RSS of itself and of its reaped worker processes, and writes them to
TIMINGS_JSON.  With a trace prefix it also wraps fairmw's public functions
(see tracing.py) and dumps the spans there.  With no run arguments it only
imports fairmw, which warms the bytecode and page caches.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    root, timings_path, trace_prefix, run_args = argv[0], argv[1], argv[2], argv[3:]
    sys.path.insert(0, str(Path(root, "src")))
    import fairmw.cli as cli

    if not run_args:
        return 0
    stamps = {}
    execute = cli.execute_trials

    def timed_execute(*args, **kwargs):
        stamps["exec_start"] = time.monotonic()
        try:
            return execute(*args, **kwargs)
        finally:
            stamps["exec_end"] = time.monotonic()

    cli.execute_trials = timed_execute
    tracer = None
    if trace_prefix != "-":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    rc = cli.main(run_args)
    stamps["main_return"] = time.monotonic()
    if tracer is not None:
        tracer.dump(trace_prefix)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    stamps.update(rc=rc, peak_rss_kb=peak_kb)
    Path(timings_path).write_text(json.dumps(stamps), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
