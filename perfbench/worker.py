"""One benchmark run in a fresh process: import the library, call the CLI once.

    python3 perfbench/worker.py RESULT_JSON SPAWN_T [CONFIG OUT_DIR [TRACE_JSON]]

SPAWN_T is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so `setup_s` covers interpreter
start, numpy and the library import: what a CLI user pays on every run.
`numpy_s`, the part up to `import numpy`, uses nothing of the library; the
benchmark uses it to tell how fast the machine ran while it measured.

Without CONFIG the worker only imports and exits (a set-up sample).  With
TRACE_JSON the tracer is installed after the import and its spans are written
there; the timings of a traced run are not used as end-to-end numbers.
"""
import time  # noqa: I001  (first, so nothing runs before the clock is importable)
import json
import resource
import sys


def main(argv) -> int:
    result_path, spawn_t = argv[0], float(argv[1])
    import numpy  # noqa: F401

    numpy_s = time.monotonic() - spawn_t
    import roughsew.cli

    result = {"numpy_s": numpy_s, "setup_s": time.monotonic() - spawn_t}
    if len(argv) > 2:
        config, out_dir = argv[2], argv[3]
        tracer = None
        if len(argv) > 4:
            from tracer import Tracer

            tracer = Tracer(run_id=config)
            tracer.install()
        c0, w0 = time.process_time(), time.perf_counter()
        code = roughsew.cli.main(["run", config, "--out", out_dir])
        w1, c1 = time.perf_counter(), time.process_time()
        result.update(exit_code=code, run_s=w1 - w0, cpu_s=c1 - c0)
        if tracer is not None:
            tracer.write(argv[4])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
