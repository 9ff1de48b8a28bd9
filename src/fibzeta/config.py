"""Runtime settings: the pole guard radius.

dispatch.evaluate raises PoleProximityError within pole_guard_radius of a
lattice pole where a route refuses; the CLI sets it with --pole-guard on
eval and grid.  Region boundaries and summation caps are constants of the
modules that use them.  Settings is an immutable named tuple, checked when
it is built, however it is built: a changed copy is
settings._replace(pole_guard_radius=...), which _make checks through the
constructor too.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class _SettingsFields(NamedTuple):
    # evaluations raise PoleProximityError inside this distance of a lattice pole
    pole_guard_radius: float = 1e-3


class Settings(_SettingsFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Settings:
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.pole_guard_radius) and self.pole_guard_radius > 0):
            raise ValueError(
                f"pole_guard_radius must be finite and > 0, got {self.pole_guard_radius}"
            )
        return self

    @classmethod
    def _make(cls, values) -> Settings:
        return cls(*values)


def default_settings() -> Settings:
    """The built-in defaults."""
    return Settings()
