"""Per-layer tracing of fibzeta, installed from outside the package.

``Tracer.install()`` replaces each traced public function in every fibzeta
module that binds it, so calls are caught at the place they are made (for
example ``fibzeta.poisson.log_gamma`` and ``fibzeta.complexfn.log_gamma``
both get the wrapper).  Nothing under ``src/`` is edited.

Each wrapped call is a span.  A span's self time is its duration minus the
time of the traced spans it encloses; the enclosing span is found through a
stack of child-time accumulators.  Hot leaf functions (``is_fib``,
``fib_upto``, ``log_gamma``, ``rgamma``) only add a count and a total time,
with no stack push.  ``czeta`` gets a full span although it is hot, because
its reflection branch calls the traced ``log_gamma``; as a leaf it would
count that time twice.  Counts (calls, series terms) depend only on the
inputs, so they repeat exactly between passes with the same seed.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "terms", "latencies")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.terms = 0
        self.latencies: list[float] | None = None


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, int] = defaultdict(int)
        self.cold_s: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = [[0.0]]
        self._seen_cold: set = set()

    # ----------------------------------------------------------- wrappers

    def _frame(self, fn, name_of, terms=False, latencies=False, cold_key=None):
        stack, stats, clock = self._stack, self.stats, _clock

        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            acc = [0.0]
            stack.append(acc)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                st = stats[name]
                st.calls += 1
                st.self_s += dt - acc[0]
                st.total_s += dt
                if terms and result is not None:
                    st.terms += result.terms_used
                if latencies:
                    if st.latencies is None:
                        st.latencies = []
                    st.latencies.append(dt)
                if cold_key is not None:
                    key = cold_key(args)
                    if key not in self._seen_cold:
                        self._seen_cold.add(key)
                        self.cold_s[name] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, fn, name):
        stack, st, clock = self._stack, self.stats[name], _clock

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack[-1][0] += dt
                st.calls += 1
                st.self_s += dt
                st.total_s += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _raise_counter(self, fn, exc_type, counter):
        counters = self.counters

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except exc_type:
                counters[counter] += 1
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, name: str, fn, *args):
        """Run fn(*args) as the outermost span `name`."""
        return self._frame(fn, lambda a, k: name)(*args)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import fibzeta.cli as cli
        from fibzeta import complexfn, config, continuation, crosscheck, errors, poisson, quadfield

        fixed = lambda name: (lambda a, k: name)  # noqa: E731
        even_regions = poisson.RegionSelector

        def even_region(args, kwargs):
            s = args[1] if len(args) > 1 else kwargs["s"]
            settings = args[3] if len(args) > 3 else kwargs.get("settings")
            settings = settings or config.default_settings()
            return "poisson.even." + even_regions.from_settings(settings).classify(s)

        def suite_name(args, kwargs):
            return "suites." + (args[0] if args else kwargs["name"])

        def field_sign(sign):
            return lambda args: (args[0].D, sign)

        replacements = {
            quadfield.make_field: self._frame(quadfield.make_field, fixed("quadfield.make_field")),
            quadfield.is_fib: self._leaf(quadfield.is_fib, "quadfield.is_fib"),
            quadfield.fib_upto: self._leaf(quadfield.fib_upto, "quadfield.fib_upto"),
            cli.evaluate: self._frame(cli.evaluate, fixed("cli.evaluate"), latencies=True),
            cli.run_suite: self._frame(cli.run_suite, suite_name),
            continuation.zeta_direct: self._frame(
                continuation.zeta_direct, fixed("continuation.direct"), terms=True),
            poisson.zeta_odd_poisson: self._frame(
                poisson.zeta_odd_poisson, fixed("poisson.odd"), terms=True),
            poisson.zeta_even_poisson: self._frame(
                poisson.zeta_even_poisson, even_region, terms=True),
            poisson.zeta_even_poisson_strip: self._raise_counter(
                poisson.zeta_even_poisson_strip, errors.NearOneSingularityError,
                "poisson.even.strip_fallback"),
            complexfn.log_gamma: self._leaf(complexfn.log_gamma, "complexfn.log_gamma"),
            complexfn.czeta: self._frame(complexfn.czeta, fixed("complexfn.czeta")),
            complexfn.rgamma: self._leaf(complexfn.rgamma, "complexfn.rgamma"),
            crosscheck.shifted_convolution_odd: self._frame(
                crosscheck.shifted_convolution_odd, fixed("crosscheck.shifted_convolution"),
                cold_key=field_sign(-1)),
            crosscheck.shifted_convolution_even: self._frame(
                crosscheck.shifted_convolution_even, fixed("crosscheck.shifted_convolution"),
                cold_key=field_sign(+1)),
            crosscheck.residue_numeric: self._frame(
                crosscheck.residue_numeric, fixed("crosscheck.residue_numeric")),
        }
        for fun in (continuation.zeta_odd_binomial, continuation.zeta_even_binomial,
                    continuation.zeta_combined_binomial, continuation.zeta_norm_plus_one):
            replacements[fun] = self._frame(fun, fixed("continuation.binomial"), terms=True)

        by_id = {id(orig): (orig, wrapper) for orig, wrapper in replacements.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "fibzeta" or mod_name.startswith("fibzeta.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    # ------------------------------------------------------------- report

    def snapshot(self) -> dict:
        out = {}
        for name, st in self.stats.items():
            entry = {"calls": st.calls, "self_s": st.self_s, "total_s": st.total_s,
                     "terms": st.terms}
            if st.latencies:
                lat = sorted(st.latencies)
                entry["p50_s"] = lat[math.ceil(0.50 * len(lat)) - 1]
                entry["p99_s"] = lat[math.ceil(0.99 * len(lat)) - 1]
            if name in self.cold_s:
                entry["cold_s"] = self.cold_s[name]
            out[name] = entry
        return {"spans": out, "counters": dict(self.counters)}
