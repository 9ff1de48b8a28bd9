"""Runtime settings: pole guard, even-region boundaries, summation cap.

Settings come from (in increasing priority) defaults, an optional
key=value config file, and explicit keyword overrides / CLI flags.  Every
field changes the output of some evaluation; field constants are exact
integers plus one float log eps, so there is no precision setting.
A Settings value is checked when it is built, however it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

# the even-index Poisson strip form converges for Re s < 2 and is evaluated
# only below this real part, so the direct region must begin at or below it
STRIP_RE_MAX = 1.95


@dataclass(frozen=True)
class Settings:
    # evaluations raise PoleProximityError inside this distance of a lattice pole
    pole_guard_radius: float = 1e-3
    # region boundaries for the even-index Poisson evaluation
    region_direct_min: float = 0.5
    region_left_max: float = -0.25
    near_one_radius: float = 0.1
    # hard cap on Fourier-side summation lengths
    max_fourier_terms: int = 2_000_000

    def __post_init__(self) -> None:
        if self.region_direct_min > STRIP_RE_MAX:
            raise ValueError(
                f"region_direct_min = {self.region_direct_min} is above {STRIP_RE_MAX}, "
                "where the strip form of the even Poisson evaluation ends"
            )


_INT_KEYS = {"max_fourier_terms"}


def default_settings() -> Settings:
    """The built-in defaults."""
    return Settings()


def read_config_file(path: str) -> dict:
    """Parse a simple key=value file; '#' starts a comment, blank lines ignored."""
    known = {f.name for f in fields(Settings)}
    out: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
            out[key] = int(value) if key in _INT_KEYS else float(value)
    return out


def make_settings(config_path: str | None = None, **overrides) -> Settings:
    """Assemble settings: defaults, then the config file, then overrides."""
    s = default_settings()
    if config_path:
        s = replace(s, **read_config_file(config_path))
    cleaned = {k: v for k, v in overrides.items() if v is not None}
    if cleaned:
        s = replace(s, **cleaned)
    return s
