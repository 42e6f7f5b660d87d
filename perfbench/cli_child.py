"""One ``veronese-gb`` invocation under the benchmark's tracer.

Usage: python3 cli_child.py TRACE_OUT MODE INSTANCE -- CLI-ARGS...

MODE is ``spans`` or ``hot`` (see tracing.py).  The CLI runs exactly as
``python -m veronese_gb.cli CLI-ARGS`` would: same arguments, same stdout,
same exit code.  The trace goes to TRACE_OUT as JSON when the CLI returns.
"""

import json
import sys
import time
from pathlib import Path


def main():
    out_path, mode, instance, sep = sys.argv[1:5]
    if sep != "--" or mode not in ("spans", "hot"):
        print("usage: cli_child.py TRACE_OUT spans|hot INSTANCE -- ARGS...",
              file=sys.stderr)
        return 2
    argv = sys.argv[5:]
    t0 = time.perf_counter()
    import veronese_gb.cli as cli
    import_s = time.perf_counter() - t0

    import tracing  # found next to this file: sys.path[0]

    tracer = tracing.Tracer()
    tracer.instance = instance
    caches = tracing.veronese_caches()
    if mode == "spans":
        tracer.install_spans()
    else:
        tracer.install_hot()
    code = None
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        sys.stdout.flush()
        hits, misses = tracing.cache_totals(caches)
        trace = {"import_s": import_s, "exit": code,
                 "cache_hits": hits, "cache_misses": misses}
        if mode == "spans":
            trace.update(metrics=tracer.span_metrics(),
                         gb_calls=tracer.gb_calls,
                         spans=tracer.dump_spans())
        else:
            trace["metrics"] = tracer.hot_metrics()
        Path(out_path).write_text(json.dumps(trace))
    return code


if __name__ == "__main__":
    sys.exit(main())
