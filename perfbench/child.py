"""The part of the ragbench benchmark that runs in a fresh interpreter.

    python3 perfbench/child.py import
        times ``import ragbench.cli`` and prints the timing as JSON
    python3 perfbench/child.py sweep RESULT [--spans SPANS] -- ARGV...
        runs ``ragbench.cli.main(ARGV)`` and writes its exit code, timing
        and peak RSS to RESULT as JSON; with --spans, traces the call
        (see tracer.py) and writes the spans to SPANS

A timing holds the wall time, the CPU time of the main thread, and the CPU
seconds a fixed kernel took just before and just after the timed part
(``cal_s``), which gauge how fast the host ran at that moment.

``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time

_CAL_BYTES = bytes(range(256)) * 32
_CAL_ROWS = 600


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python kernel shaped like the program's
    hot loops: FNV-1a over bytes, then building rows of 256 floats and
    sorting their scores with a key function. It uses nothing of ragbench,
    so it measures the host, not the program."""
    t0 = time.thread_time()
    for _ in range(32):
        h = 0xCBF29CE484222325
        for b in _CAL_BYTES:
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    rows = [tuple(float((i * 7919 + j * 104729) % 1000) for j in range(256))
            for i in range(_CAL_ROWS)]
    for q in rows[:8]:
        scores = [sum(a * b for a, b in zip(row[:32], q)) for row in rows]
        sorted(range(_CAL_ROWS), key=lambda i: (-scores[i], i))
    return time.thread_time() - t0


def timed(fn) -> tuple[object, dict]:
    before = calibrate()
    t0, c0 = time.perf_counter(), time.thread_time()
    result = fn()
    wall, cpu = time.perf_counter() - t0, time.thread_time() - c0
    return result, {"wall_s": wall, "cpu_s": cpu, "cal_s": [before, calibrate()]}


def main(argv: list[str]) -> int:
    if argv[:1] == ["import"]:
        _, timing = timed(lambda: __import__("ragbench.cli"))
        print(json.dumps(timing))
        return 0

    if argv[:1] != ["sweep"] or "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    sep = argv.index("--")
    result_path, opts, cli_argv = argv[1], argv[2:sep], argv[sep + 1:]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    import ragbench.cli

    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    code, timing = timed(lambda: ragbench.cli.main(cli_argv))
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"exit": code, **timing,
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
