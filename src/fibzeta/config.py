"""Runtime settings: the pole guard radius.

dispatch.evaluate raises PoleProximityError within pole_guard_radius of a
lattice pole where a route refuses; the CLI sets it with --pole-guard on
eval and grid.  Region boundaries and summation caps are constants of the
modules that use them.  A Settings value is checked when it is built,
however it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    # evaluations raise PoleProximityError inside this distance of a lattice pole
    pole_guard_radius: float = 1e-3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pole_guard_radius) and self.pole_guard_radius > 0):
            raise ValueError(
                f"pole_guard_radius must be finite and > 0, got {self.pole_guard_radius}"
            )


def default_settings() -> Settings:
    """The built-in defaults."""
    return Settings()
