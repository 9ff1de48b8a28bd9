"""High-precision reference values for the grid workloads.

The oracle sums the same binomial series as ``continuation._binomial_sum``,
with the same summand shapes, written through u = eps^(-(s+2k)):

    odd:      C(-s,k) u / (1 - u^2)
    even:     C(-s,k) (-1)^k u^2 / (1 - u^2)
    plus_one: C(-s,k) (-1)^k u / (1 - u)

and multiplies by q^(s/2).  The combined shape u/(1 -+ u) is termwise the
sum of the odd and even shapes, so the combined reference is odd + even.

Arithmetic runs in mpmath's low-level complex routines at 113 bits (about
34 digits); the k-sum stops once its geometric tail bound is below 1e-24
of the partial sums, far under the 1e-8 agreement that a grid row must
meet.  The field constants come from the exact unit (a + b sqrt(q))/2, not
from the program.  A box of 1025 points takes one to four seconds per
field, so results are cached per (field, shape, box) under ``.cache``.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import mpmath as mp
from mpmath import libmp

PREC = 113
_TAIL_REL = 1e-24
_CACHE_VERSION = 1


def _field_constants(a: int, b: int, q: int):
    with mp.workprec(PREC + 32):
        eps = (a + b * mp.sqrt(q)) / 2
        log_eps = mp.log(eps)
        return log_eps._mpf_, (1 / (eps * eps))._mpf_, mp.log(q)._mpf_, float(log_eps)


def _mag(z) -> float:
    return abs(libmp.to_float(z[0])) + abs(libmp.to_float(z[1]))


def reference_sums(a: int, b: int, q: int, points: list[complex], kind: str) -> list[tuple]:
    """Reference values at each point.

    kind "split" returns (odd, even) pairs for a norm -1 unit; kind
    "plus_one" returns 1-tuples with the full zeta of a norm +1 unit.
    """
    log_eps, inv_eps2, log_q, log_eps_f = _field_constants(a, b, q)
    mul, add, sub, div = libmp.mpc_mul, libmp.mpc_add, libmp.mpc_sub, libmp.mpc_div
    one, zero = libmp.mpc_one, libmp.mpc_zero
    decay = math.exp(-2.0 * log_eps_f)
    out = []
    for s in points:
        s_mp = (libmp.from_float(s.real), libmp.from_float(s.imag))
        neg_s = libmp.mpc_neg(s_mp)
        u = libmp.mpc_exp(libmp.mpc_mul_mpf(neg_s, log_eps, PREC), PREC)
        coeff = one
        acc_a = acc_b = zero
        abs_s = abs(s)
        k_min = math.ceil(abs_s) + 5
        k = 0
        while True:
            cu = mul(coeff, u, PREC)
            if kind == "split":
                t_a = div(cu, sub(one, mul(u, u, PREC), PREC), PREC)
                t_b = mul(t_a, u, PREC)
                if k % 2:
                    t_b = libmp.mpc_neg(t_b)
                acc_a = add(acc_a, t_a, PREC)
                acc_b = add(acc_b, t_b, PREC)
                term_mag = _mag(t_a)
                sum_mag = _mag(acc_a) + _mag(acc_b)
            else:
                t_a = div(cu, sub(one, u, PREC), PREC)
                if k % 2:
                    t_a = libmp.mpc_neg(t_a)
                acc_a = add(acc_a, t_a, PREC)
                term_mag = _mag(t_a)
                sum_mag = _mag(acc_a)
            ratio = (abs_s + k) / (k + 1.0) * decay
            if k >= k_min and ratio < 1.0 and term_mag * ratio / (1.0 - ratio) <= _TAIL_REL * sum_mag:
                break
            step = (libmp.mpf_sub(neg_s[0], libmp.from_int(k), PREC), neg_s[1])
            coeff = libmp.mpc_div_mpf(mul(coeff, step, PREC), libmp.from_int(k + 1), PREC)
            u = libmp.mpc_mul_mpf(u, inv_eps2, PREC)
            k += 1
        scale = libmp.mpc_exp(libmp.mpc_mul_mpf(libmp.mpc_shift(s_mp, -1), log_q, PREC), PREC)
        if kind == "split":
            out.append((libmp.mpc_to_complex(mul(scale, acc_a, PREC)),
                        libmp.mpc_to_complex(mul(scale, acc_b, PREC))))
        else:
            out.append((libmp.mpc_to_complex(mul(scale, acc_a, PREC)),))
    return out


def cached_reference(cache_dir: Path, tag: str, a: int, b: int, q: int,
                     points: list[complex], kind: str) -> list[tuple]:
    """reference_sums, stored as JSON in cache_dir under a name built from tag."""
    path = cache_dir / f"v{_CACHE_VERSION}-{tag}-{kind}.json"
    if path.exists():
        with open(path) as fh:
            data = json.load(fh)
        if data["points"] == [[p.real, p.imag] for p in points]:
            return [tuple(complex(re, im) for re, im in row) for row in data["values"]]
    values = reference_sums(a, b, q, points, kind)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "w") as fh:
        json.dump({
            "points": [[p.real, p.imag] for p in points],
            "values": [[[v.real, v.imag] for v in row] for row in values],
        }, fh)
    os.replace(tmp, path)
    return values
