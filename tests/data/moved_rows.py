"""Print the rows of a grid golden that moved, with their oracle errors.

Usage, from the root of the repository:

    git show HEAD:tests/data/grid_poisson_d5_odd.csv > old.csv
    PYTHONPATH=src python tests/data/moved_rows.py old.csv tests/data/grid_poisson_d5_odd.csv

The field and parity are read from the name of the new file
(grid_<method>_d<D>_<parity>.csv).  A row moved when any of its fields
differs between the two files.  For each one the script prints s, the old
and new value or status, and the relative error of each value against the
mpmath binomial series (mp_reference.mp_binomial_reference), absolute at a
zero of Z (a reference below 1e-30, as at the trivial zeros), then the
largest error before and after over the rows that moved.  It needs only the
standard library and mpmath besides fibzeta itself.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from fibzeta import make_field  # noqa: E402
from mp_reference import mp_binomial_reference  # noqa: E402

_NAME = re.compile(r"_d(\d+)_(odd|even|combined)\.csv$")
# a reference below this is a zero of Z: the series in mpmath leaves about
# 1e-41 at the trivial zeros, so the error there is taken as absolute
_ZERO = 1e-30


def read_rows(path: str) -> dict[tuple[str, str], dict[str, str]]:
    """The rows of a grid CSV keyed by (re_s, im_s) as printed."""
    with open(path, newline="") as f:
        return {(row["re_s"], row["im_s"]): row for row in csv.DictReader(f)}


def value_of(row: dict[str, str] | None) -> complex | None:
    if row is None or row["status"] != "ok":
        return None
    return complex(float(row["re_z"]), float(row["im_z"]))


def shown(row: dict[str, str] | None) -> str:
    if row is None:
        return "missing"
    value = value_of(row)
    return row["status"] if value is None else repr(value)


def relative_error(value: complex | None, ref: complex) -> float | None:
    if value is None:
        return None
    return abs(value - ref) / (abs(ref) if abs(ref) >= _ZERO else 1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the grid CSV before the change")
    parser.add_argument("new", help="the grid CSV after it, named grid_<method>_d<D>_<parity>.csv")
    args = parser.parse_args(argv)
    match = _NAME.search(os.path.basename(args.new))
    if match is None:
        parser.error(f"cannot read D and parity from the name {args.new!r}")
    field, parity = make_field(int(match.group(1))), match.group(2)
    old, new = read_rows(args.old), read_rows(args.new)
    worst = [0.0, 0.0]
    moved = 0
    print("re_s,im_s,old,new,rel_err_old,rel_err_new")
    for key in sorted(old.keys() | new.keys(), key=lambda k: (float(k[1]), float(k[0]))):
        before, after = old.get(key), new.get(key)
        if before == after:
            continue
        moved += 1
        ref = mp_binomial_reference(field, complex(float(key[0]), float(key[1])), parity)
        errors = [relative_error(value_of(row), ref) for row in (before, after)]
        for i, err in enumerate(errors):
            if err is not None:
                worst[i] = max(worst[i], err)
        cells = ["-" if err is None else f"{err:.3g}" for err in errors]
        print(f"{key[0]},{key[1]},{shown(before)},{shown(after)},{cells[0]},{cells[1]}")
    print(f"# {moved} of {len(new)} rows moved; largest relative error "
          f"{worst[0]:.3g} before, {worst[1]:.3g} after")
    return 0


if __name__ == "__main__":
    sys.exit(main())
