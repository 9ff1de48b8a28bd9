"""fibzeta benchmark: end-to-end and per-layer numbers for three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload grid-binomial --seed 1 --seconds 20 --trace 0

Workloads (the seed fixes every input):

- ``grid-binomial``: ``fibzeta grid --methods binomial --tol 1e-10`` on the
  box Re s in [-8, 4] step 0.5 x Im s in [-20, 20] step 1 (1025 points),
  for D in {5, 13, 29} x parity {odd, even, combined} and D = 3 combined
  (a norm +1 field, so the plus_one series).  The seed shifts the grid
  origin by a uniform sub-step offset on both axes.
- ``grid-poisson``: ``--methods poisson`` on D in {5, 13, 29} x parity
  {odd, even}, on the same box and offset and again on the box shifted by
  half a step on both axes (the antithetic origin, which halves the spread
  of work between seeds).  Each box is issued as 4 calls, one per band of
  Im rows, so that no timed call is long.
- ``verify-all``: the checks of ``fibzeta verify --suite all --seed <seed>``
  with the default fields {2, 5, 10, 13} and Pell bound 10^6, issued as one
  ``verify`` call per suite and, for the Pell suite, per field.  The lines
  printed are exactly those of ``--suite all``, which reseeds every suite.

Load: one closed-loop client.  Each pass runs in a fresh interpreter that
imports ``fibzeta.cli`` and builds the workload's fields (the set-up
phase, timed from the spawn until the worker reports ready), then calls
``fibzeta.cli.main`` for every call of the pass, one after another.  A
fresh interpreter per pass gives every pass the cold caches and lazy
imports that one command-line call pays.  Passes repeat until ``--seconds``
have gone by.

Calibration: other tenants of a shared machine slow this process by up to
1.5x for tens of seconds at a time, which moves raw times more than any
bound could allow.  The worker therefore times a fixed pure-Python loop
(``worker.calibration_chunk``, no fibzeta code) before and after every
call, and every reported time is rescaled to reference machine speed:
raw x CALIBRATION_REF_S / calibration chunk time, where a call uses the
mean of the two chunks around it and anything else (set-up, per-layer
times) the mean of all chunks of the same worker.  Raw times are printed
as well.

End-to-end metrics (``--trace 0``), all calibrated:

- ``setup_s``: median set-up time over every spawn of the run (at least 10).
- ``wall_s``: median time of one pass.
- ``ops_per_s``: operations of one pass over ``wall_s``; an operation is a
  grid row on the grid workloads and a check line on verify-all.

Every output is checked.  A grid row fails when its status is not ``ok``
or ``pole``, or when an ``ok`` value is more than 1e-8 max(1, |ref|) from
the mpmath oracle (``oracle.py``).  A verify check fails when it prints
FAIL.  Failed operations are counted in ``failed`` and listed; they do
not stop the run.  ``attempted`` and ``failed`` count the distinct
operations of one pass: every later pass must print the same outputs, so
the counts depend on the seed alone and not on how many passes fit into
``--seconds``.  ``correct`` is false when an output is missing or
malformed, when a point is missing or repeated, when an exit code is
wrong, or when two passes of one run disagree.

``--trace 1`` alternates untraced and traced passes (at least two of each)
and prints the per-layer metrics (see ``tracing.py`` and ``PER_LAYER``
below): calls, self time and series terms per layer for one pass, the
import breakdown from ``python -X importtime`` (raw, not calibrated), the
oracle's worst error and the tracing overhead (calibrated traced minus
untraced pass time).  Counts must repeat exactly between traced passes,
or ``correct`` is false.  It also prints each layer's share of the self
time of a traced pass: a faster layer can save at most that share, since
the work is single-threaded and nothing else contends for it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BOX_RE = (-8.0, 4.0, 0.5)
BOX_IM = (-20.0, 20.0, 1.0)
GRID_TOL = "1e-10"
REL_TOL = 1e-8
VERIFY_FIELDS = (2, 5, 10, 13)
SUITES = ("sequences", "pell", "cross-method", "splitting", "golden", "residues",
          "trivial-zeros", "special-values", "zeta-cancellation", "special-functions")
POISSON_BANDS = 4
# typical time of one calibration chunk (worker.calibration_chunk) on the
# 2-CPU machine the benchmark was defined on, in a quiet spell
CALIBRATION_REF_S = 0.0038
MIN_SETUP_SAMPLES = 10
IMPORTTIME_SAMPLES = 3
RUN_DEADLINE_S = 170.0

# a fixed hash seed gives every worker the same dict and set layouts
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s"}

# (metric, unit, span, field): the metric reads field ("calls", "self_s",
# "total_s", "terms" or "cold_s") of the span statistics of a traced pass
_SPAN_METRICS = [
    ("quadfield.make_field.calls", "count", "quadfield.make_field", "calls"),
    ("quadfield.make_field.self_s", "s", "quadfield.make_field", "self_s"),
    ("quadfield.is_fib.calls", "count", "quadfield.is_fib", "calls"),
    ("quadfield.is_fib.self_s", "s", "quadfield.is_fib", "self_s"),
    ("quadfield.fib_upto.self_s", "s", "quadfield.fib_upto", "self_s"),
    ("cli.evaluate.calls", "count", "cli.evaluate", "calls"),
    ("cli.grid.self_s", "s", "cli.grid", "self_s"),
    ("continuation.binomial.calls", "count", "continuation.binomial", "calls"),
    ("continuation.binomial.self_s", "s", "continuation.binomial", "self_s"),
    ("continuation.binomial.terms", "count", "continuation.binomial", "terms"),
    ("continuation.direct.calls", "count", "continuation.direct", "calls"),
    ("continuation.direct.self_s", "s", "continuation.direct", "self_s"),
    ("continuation.direct.terms", "count", "continuation.direct", "terms"),
]
for _region in ("odd", "even.direct", "even.strip", "even.left"):
    for _field, _unit in (("calls", "count"), ("self_s", "s"), ("terms", "count")):
        _SPAN_METRICS.append((f"poisson.{_region}.{_field}", _unit, f"poisson.{_region}", _field))
_SPAN_METRICS += [
    ("complexfn.log_gamma.calls", "count", "complexfn.log_gamma", "calls"),
    ("complexfn.log_gamma.self_s", "s", "complexfn.log_gamma", "self_s"),
    ("complexfn.czeta.calls", "count", "complexfn.czeta", "calls"),
    ("complexfn.czeta.self_s", "s", "complexfn.czeta", "self_s"),
    ("complexfn.rgamma.calls", "count", "complexfn.rgamma", "calls"),
    ("crosscheck.shifted_convolution.calls", "count", "crosscheck.shifted_convolution", "calls"),
    ("crosscheck.shifted_convolution.self_s", "s", "crosscheck.shifted_convolution", "self_s"),
    ("crosscheck.shifted_convolution.cold_s", "s", "crosscheck.shifted_convolution", "cold_s"),
    ("crosscheck.residue_numeric.calls", "count", "crosscheck.residue_numeric", "calls"),
    ("crosscheck.residue_numeric.self_s", "s", "crosscheck.residue_numeric", "self_s"),
]
_SPAN_METRICS += [(f"suites.{name}.wall_s", "s", f"suites.{name}", "total_s") for name in SUITES]

PER_LAYER = {
    "setup.import.fibzeta_s": "s",
    "setup.import.mpmath_s": "s",
    "setup.import.scipy_s": "s",
    **{name: unit for name, unit, _, _ in _SPAN_METRICS},
    "cli.evaluate.p50_us": "us",
    "cli.evaluate.p99_us": "us",
    "continuation.binomial.ns_per_term": "ns",
    "poisson.even.strip_fallback": "count",
    "suites.checks_failed": "count",
    "check.max_rel_err": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ------------------------------------------------------------------ workloads

def _axis(lo: float, hi: float, step: float) -> list[float]:
    return [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]


def grid_origins(seed: int, count: int) -> list[tuple[float, float]]:
    """Sub-step offsets of the box origin: a uniform one drawn from the seed,
    then (for count 2) its antithetic partner half a step away on both axes."""
    rng = random.Random(seed)
    off_re, off_im = rng.uniform(0.0, BOX_RE[2]), rng.uniform(0.0, BOX_IM[2])
    origins = [(off_re, off_im),
               ((off_re + 0.5 * BOX_RE[2]) % BOX_RE[2], (off_im + 0.5 * BOX_IM[2]) % BOX_IM[2])]
    return origins[:count]


def grid_box(offset: tuple[float, float], bands: int) -> tuple[list[complex], list[list[str]]]:
    """Points of the box shifted by offset, and --re/--im arguments for each
    band of its Im rows."""
    lo_re, lo_im = BOX_RE[0] + offset[0], BOX_IM[0] + offset[1]
    re_axis = _axis(lo_re, lo_re + BOX_RE[1] - BOX_RE[0], BOX_RE[2])
    im_axis = _axis(lo_im, lo_im + BOX_IM[1] - BOX_IM[0], BOX_IM[2])
    points = [complex(x, y) for y in im_axis for x in re_axis]
    # each upper end sits half a step past the last point so that rounding
    # in the program's point count cannot drop the last row or column
    half_re, half_im = 0.5 * BOX_RE[2], 0.5 * BOX_IM[2]
    re_args = ["--re", repr(re_axis[0]), repr(re_axis[-1] + half_re), repr(BOX_RE[2])]
    band_args = []
    for b in range(bands):
        rows = im_axis[b * len(im_axis) // bands:(b + 1) * len(im_axis) // bands]
        band_args.append(re_args + ["--im", repr(rows[0]), repr(rows[-1] + half_im), repr(BOX_IM[2])])
    return points, band_args


def workload_spec(name: str, seed: int) -> dict:
    if name == "verify-all":
        # one call per suite and, for the Pell suite, per field: the lines
        # printed are exactly those of --suite all, which reseeds every suite
        invocations = []
        for suite in SUITES:
            for fields in ([[d] for d in VERIFY_FIELDS] if suite == "pell" else [VERIFY_FIELDS]):
                invocations.append(["verify", "--suite", suite, "--seed", str(seed),
                                    "--D", ",".join(map(str, fields))])
        return {"fields": list(VERIFY_FIELDS), "grids": [], "invocations": invocations}
    if name == "grid-binomial":
        method, origins, bands = "binomial", 1, 1
        grids = [(d, p) for d in (5, 13, 29) for p in ("odd", "even", "combined")]
        grids.append((3, "combined"))
    elif name == "grid-poisson":
        # the cost of a Poisson grid moves by +-7% with the origin offset
        # (mostly through the largest |Im s| in the box); the antithetic
        # second origin halves that spread.  Bands keep each timed call short.
        method, origins, bands = "poisson", 2, POISSON_BANDS
        grids = [(d, p) for d in (5, 13, 29) for p in ("odd", "even")]
    else:
        raise BenchError(f"unknown workload {name!r}")
    boxes = [(offset, *grid_box(offset, bands)) for offset in grid_origins(seed, origins)]
    calls = [(d, p, args) for d, p in grids for _, _, band_args in boxes for args in band_args]
    invocations = [["grid", "--D", str(d), "--parity", p, "--methods", method, "--tol", GRID_TOL]
                   + args for d, p, args in calls]
    return {"fields": sorted({d for d, _ in grids}), "grids": grids,
            "labels": [(d, p) for d, p, _ in calls], "method": method,
            "boxes": [(offset, points) for offset, points, _ in boxes], "invocations": invocations}


def field_unit(d: int) -> tuple[int, int, int]:
    """(a, b, q) of the fundamental unit (a + b sqrt(q))/2, by brute search."""
    q = d if d % 4 == 1 else 4 * d
    b = 1
    while True:
        for shift in (-4, 4):
            t = q * b * b + shift
            r = math.isqrt(t)
            if r * r == t:
                return r, b, q
        b += 1


def grid_references(spec: dict) -> dict[tuple[int, str], dict]:
    """(D, parity) -> {point key: reference value} from the mpmath oracle."""
    from oracle import cached_reference

    refs: dict[tuple[int, str], dict] = {grid: {} for grid in spec["grids"]}
    for d in spec["fields"]:
        a, b, q = field_unit(d)
        norm_minus_one = (a * a - q * b * b) // 4 == -1
        kind = "split" if norm_minus_one else "plus_one"
        for offset, points in spec["boxes"]:
            tag = f"D{d}-re{offset[0]:.15f}-im{offset[1]:.15f}"
            values = cached_reference(BENCH / ".cache", tag, a, b, q, points, kind)
            for p, v in zip(points, values):
                key = point_key(p.real, p.imag)
                if norm_minus_one:
                    parts = {"odd": v[0], "even": v[1], "combined": v[0] + v[1]}
                else:
                    parts = {"combined": v[0]}
                for parity, value in parts.items():
                    if (d, parity) in refs:
                        refs[(d, parity)][key] = value
    return refs


def point_key(re_s: float, im_s: float) -> tuple[float, float]:
    return (round(re_s, 9), round(im_s, 9))


# --------------------------------------------------------------- checking

class Check:
    """Tally of one pass's operations against the oracle."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.max_rel_err = 0.0
        self.names: set[str] = set()

    def grid(self, label: str, output: str, method: str, refs: dict, seen: set) -> None:
        reader = csv.DictReader(io.StringIO(output))
        needed = {"re_s", "im_s", "method", "re_z", "im_z", "status"}
        if reader.fieldnames is None or not needed <= set(reader.fieldnames):
            self.problems.append(f"{label}: header {reader.fieldnames}")
            return
        for row in reader:
            self.attempted += 1
            try:
                key = point_key(float(row["re_s"]), float(row["im_s"]))
            except ValueError:
                self.problems.append(f"{label}: bad row {row}")
                continue
            if key not in refs or key in seen or row["method"] != method:
                self.problems.append(f"{label}: unexpected row {row}")
                continue
            seen.add(key)
            status = row["status"]
            where = f"{label} s={row['re_s']}{float(row['im_s']):+}i"
            if status == "pole":
                continue
            if status != "ok":
                self.failures.append(f"{where}: status {status}")
                continue
            ref = refs[key]
            value = complex(float(row["re_z"]), float(row["im_z"]))
            err = abs(value - ref) / max(1.0, abs(ref))
            if not math.isfinite(err):
                err = math.inf
            self.max_rel_err = max(self.max_rel_err, err)
            if err > REL_TOL:
                self.failures.append(f"{where}: value {value:.12g} ref {ref:.12g} rel err {err:.2e}")

    def verify(self, output: str, code: int) -> None:
        pattern = re.compile(r"^(PASS|FAIL) (.+): max deviation (\S+) \(tol (\S+)\)")
        lines = output.splitlines()
        if not lines:
            self.problems.append("verify printed no checks")
        failed_before = len(self.failures)
        for line in lines:
            match = pattern.match(line)
            if match is None or match.group(2) in self.names:
                self.problems.append(f"verify: unexpected line {line!r}")
                continue
            self.names.add(match.group(2))
            self.attempted += 1
            if match.group(1) == "FAIL":
                self.failures.append(line)
            # checks that bound an error from above pass exactly when the
            # deviation is under the tolerance; the one lower-bound check
            # (even-nonzero-at-odd-integers) is left out of the ratio
            dev, tol = float(match.group(3)), float(match.group(4))
            if tol > 0 and (match.group(1) == "PASS") == (dev < tol):
                self.max_rel_err = max(self.max_rel_err, dev / tol)
        if code != (3 if len(self.failures) > failed_before else 0):
            self.problems.append(f"verify exit code {code} for {lines[:1]}")


def check_pass(spec: dict, refs: dict, result: dict) -> Check:
    check = Check()
    if spec["grids"]:
        seen = {grid: set() for grid in spec["grids"]}
        for grid, output, code in zip(spec["labels"], result["outputs"], result["codes"]):
            label = f"D={grid[0]} {grid[1]}"
            if code != 0:
                check.problems.append(f"{label}: exit code {code}")
            check.grid(label, output, spec["method"], refs[grid], seen[grid])
        for (d, parity), keys in seen.items():
            missing = len(refs[(d, parity)]) - len(keys)
            if missing:
                check.problems.append(f"D={d} {parity}: {missing} points missing")
    else:
        for output, code in zip(result["outputs"], result["codes"]):
            check.verify(output, code)
    return check


# ---------------------------------------------------------------- workers

class Runner:
    """Spawns worker interpreters one at a time and enforces the run deadline."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.started = time.perf_counter()

    def remaining(self) -> float:
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_DEADLINE_S:.0f} s")
        return left

    def spawn(self, run_pass: bool, trace: bool) -> dict:
        """Result of one worker: the pass (if run_pass) and its calibration,
        with the set-up time measured from the spawn as "setup_s"."""
        payload = json.dumps({
            "src": str(SRC),
            "fields": self.spec["fields"],
            "invocations": self.spec["invocations"] if run_pass else [],
            "trace": trace,
        })
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), payload],
                                cwd=str(ROOT), env=WORKER_ENV, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            if ready.strip() != "ready":
                raise BenchError(f"worker did not get ready: {ready!r}")
            out, _ = proc.communicate(timeout=self.remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = setup_s
        return result


def import_times() -> dict[str, float]:
    """Median cumulative import time of fibzeta, mpmath and scipy.

    scipy is imported lazily by the verify suites; it is measured here as
    ``import scipy.integrate`` right after ``import fibzeta.cli``.  mpmath is
    imported by fibzeta, so fibzeta's time includes it.
    """
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import fibzeta.cli; import scipy.integrate")
    samples: dict[str, list[float]] = {"fibzeta": [], "mpmath": [], "scipy": []}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=str(ROOT),
                              env=WORKER_ENV, capture_output=True, text=True, timeout=60,
                              check=True)
        for pkg, value in _package_import_times(proc.stderr, samples).items():
            samples[pkg].append(value)
    return {pkg: statistics.median(vals) for pkg, vals in samples.items()}


def _package_import_times(log: str, packages) -> dict[str, float]:
    """Sum of cumulative times of each package's outermost import lines."""
    line_re = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
    entries = []
    for line in log.splitlines():
        match = line_re.match(line)
        if match:
            entries.append((len(match.group(3)) // 2, match.group(4), int(match.group(2))))
    totals = {pkg: 0.0 for pkg in packages}
    ancestors: list[tuple[int, str]] = []
    # the log is post-order (children first); reversed, a parent precedes its children
    for depth, name, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for _, a in ancestors):
            totals[top] += cumulative_us * 1e-6
        ancestors.append((depth, name))
    return totals


# ---------------------------------------------------------------- reports

def calibrated(seconds: float, worker: dict) -> float:
    """seconds rescaled to reference machine speed by the worker's mean
    calibration chunk.

    Other tenants of a shared machine slow this process by up to 1.5x for
    tens of seconds at a time; the ratio of a time to the calibration loop
    timed in the same stretch stays within a few per cent.
    """
    return seconds * CALIBRATION_REF_S / statistics.fmean(worker["calibration"])


def calibrated_pass(worker: dict) -> float:
    """Pass time with each call rescaled by the two calibration chunks that
    bracket it, so that a long call is weighted by its own stretch of time."""
    cal = worker["calibration"]
    return sum(t * CALIBRATION_REF_S * 2.0 / (cal[i] + cal[i + 1])
               for i, t in enumerate(worker["times"]))


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f}, quartiles {q1:.4f}..{q3:.4f}, n={len(values)}"


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown (not a git checkout)"


def layer_metrics(spec: dict, worker: dict, check: Check) -> dict[str, float]:
    """Per-layer metrics of one traced pass; times are calibrated."""
    spans, counters = worker["trace"]["spans"], worker["trace"]["counters"]
    scale = calibrated(1.0, worker)
    out = {}
    for name, unit, span, field in _SPAN_METRICS:
        value = spans.get(span, {}).get(field, 0)
        out[name] = value * scale if unit == "s" else value
    evaluate = spans.get("cli.evaluate", {})
    out["cli.evaluate.p50_us"] = evaluate.get("p50_s", 0.0) * scale * 1e6
    out["cli.evaluate.p99_us"] = evaluate.get("p99_s", 0.0) * scale * 1e6
    binomial = spans.get("continuation.binomial", {})
    terms = binomial.get("terms", 0)
    out["continuation.binomial.ns_per_term"] = (
        binomial["self_s"] * scale / terms * 1e9 if terms else 0.0)
    out["poisson.even.strip_fallback"] = counters.get("poisson.even.strip_fallback", 0)
    out["suites.checks_failed"] = len(check.failures) if not spec["grids"] else 0
    out["check.max_rel_err"] = check.max_rel_err
    return out


def print_shares(traced: dict, pass_s: float) -> None:
    print("self-time share of one traced pass (upper bound on what a faster layer saves):")
    rows = sorted(traced["trace"]["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, st in rows:
        if not st["calls"]:
            continue
        print(f"  {name:36s} {st['self_s']:9.4f} s  {st['self_s'] / pass_s:6.1%}"
              f"  calls {st['calls']}")


# ------------------------------------------------------------------- main

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = workload_spec(workload, seed)
    runner = Runner(spec)
    print(f"workload {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, git {git_sha()}")
    for offset, points in spec.get("boxes", []):
        print(f"box origin offset re {offset[0]:.6f}, im {offset[1]:.6f}: {len(points)} points")
    if spec["grids"]:
        print(f"{len(spec['grids'])} grids in {len(spec['invocations'])} grid calls")
    t_oracle = time.perf_counter()
    refs = grid_references(spec) if spec["grids"] else {}
    if refs:
        print(f"oracle ready in {time.perf_counter() - t_oracle:.2f} s")

    runner.spawn(run_pass=False, trace=False)  # warm the file cache and bytecode
    plain: list[dict] = []
    traced: list[dict] = []
    t_start = time.perf_counter()
    while True:
        plain.append(runner.spawn(run_pass=True, trace=False))
        if trace:
            traced.append(runner.spawn(run_pass=True, trace=True))
        if time.perf_counter() - t_start >= seconds and len(plain) >= (2 if trace else 1):
            break
    spawns = list(plain)
    while len(spawns) < MIN_SETUP_SAMPLES:
        spawns.append(runner.spawn(run_pass=False, trace=False))

    first = plain[0]
    check = check_pass(spec, refs, first)
    problems = list(check.problems)
    for i, other in enumerate(plain[1:] + traced, start=1):
        if other["outputs"] != first["outputs"] or other["codes"] != first["codes"]:
            problems.append(f"pass {i} output differs from pass 0")
    pass_s = statistics.median(calibrated_pass(r) for r in plain)
    setup_s = statistics.median(calibrated(r["setup_s"], r) for r in spawns)
    print(f"passes {len(plain)}; raw pass time (s) {quartiles([r['pass_s'] for r in plain])}")
    print(f"raw setup (s) {quartiles([r['setup_s'] for r in spawns])}")
    print(f"calibration chunk (ms) {quartiles([c * 1e3 for r in plain for c in r['calibration']])}; "
          f"reference {CALIBRATION_REF_S * 1e3:.2f}")
    print(f"operations per pass {check.attempted}, failed per pass {len(check.failures)} "
          f"(failed_share {len(check.failures) / max(check.attempted, 1):.4f})")
    for line in check.failures:
        print(f"  failed: {line}")
    print(f"check.max_rel_err {check.max_rel_err:.3e}")

    if not trace:
        metrics = {"setup_s": setup_s, "wall_s": pass_s, "ops_per_s": check.attempted / pass_s}
        units = END_TO_END
    else:
        per_pass = [layer_metrics(spec, r, check) for r in traced]
        for name, unit in PER_LAYER.items():
            if unit == "count" and name in per_pass[0]:
                if any(p[name] != per_pass[0][name] for p in per_pass[1:]):
                    problems.append(f"count {name} differs between traced passes")
        metrics = {}
        for name in per_pass[0]:
            values = [p[name] for p in per_pass]
            metrics[name] = values[0] if PER_LAYER[name] == "count" else statistics.median(values)
        traced_s = statistics.median(r["pass_s"] for r in traced)
        metrics["trace.overhead_s"] = (statistics.median(calibrated_pass(r) for r in traced)
                                       - pass_s)
        for pkg, value in import_times().items():
            metrics[f"setup.import.{pkg}_s"] = value
        median_trace = min(traced, key=lambda r: abs(r["pass_s"] - traced_s))
        print(f"traced passes {len(traced)}, raw traced pass {traced_s:.4f} s, "
              f"overhead {metrics['trace.overhead_s']:.4f} s")
        print_shares(median_trace, median_trace["pass_s"])
        units = PER_LAYER

    for line in problems:
        print(f"  problem: {line}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-binomial", "grid-poisson", "verify-all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fibzeta" / "__init__.py").is_file():
        print(f"error: no fibzeta sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
