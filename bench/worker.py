"""One benchmark pass in a fresh interpreter.

Usage: python3 worker.py '<json spec>'

The spec gives the source directory, the fields to construct, the CLI
invocations of one pass and whether to trace.  The worker imports
``fibzeta.cli``, builds the fields with ``make_field`` (the set-up phase),
prints ``ready`` and then runs every invocation through ``fibzeta.cli.main``
in-process, one after another, with the program's standard output captured.
Before and after each call it times a short calibration loop.  Its last
line is a JSON object with the pass time, the calibration times, and the
time, exit code and output of each invocation, and, when tracing, the span
statistics.
"""

import cmath
import contextlib
import io
import json
import math
import sys
import time


MIN_CALIBRATION_CHUNKS = 8


class _Pair:
    __slots__ = ("root", "square")

    def __init__(self, root, square):
        self.root = root
        self.square = square


def calibration_chunk() -> float:
    """Seconds taken by a fixed pure-Python loop: a complex recurrence, then
    integer square roots that each allocate a small object.

    The mix follows the program's two kinds of work (complex series on the
    grids, exact integer tests in the Pell suite); the ratio of either to
    the mix moves less under contention than the ratio to one kind alone.
    The loop shares no code with fibzeta, so a change to the program cannot
    move it; only the speed the machine gives this process does.
    """
    t0 = time.perf_counter()
    acc, coeff, s = 0j, 1 + 0j, complex(-2.3, 7.1)
    for k in range(4000):
        j = k % 40
        u = cmath.exp(-(s + 2.0 * j) * 0.48)
        acc += coeff * u / (1.0 - u * u)
        coeff = 1 + 0j if j == 39 else coeff * (-s - j) / (j + 1.0)
    hits = 0
    for n in range(1, 3001):
        t = 5 * n * n + 4
        root = math.isqrt(t)
        hits += _Pair(root, root * root == t).square
    return time.perf_counter() - t0


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import fibzeta
    import fibzeta.cli as cli

    if not fibzeta.__file__.startswith(spec["src"]):
        print(f"imported fibzeta from {fibzeta.__file__}, not from {spec['src']}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    for d in spec["fields"]:
        fibzeta.make_field(d)
    print("ready", flush=True)

    # calibration chunks bracket every call, so that they sample the machine
    # over the same stretch of time as the pass
    calibration = [calibration_chunk()]
    codes, outputs, times = [], [], []
    for argv in spec["invocations"]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.root("cli." + argv[0], cli.main, argv)
        times.append(time.perf_counter() - t0)
        codes.append(code)
        outputs.append(buf.getvalue())
        calibration.append(calibration_chunk())
    while len(calibration) < MIN_CALIBRATION_CHUNKS:
        calibration.append(calibration_chunk())
    result = {"pass_s": sum(times), "times": times, "calibration": calibration,
              "codes": codes, "outputs": outputs}
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
