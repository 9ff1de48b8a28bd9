"""Kept for bench/tracing.py alone, which passes default_settings() to
poisson.RegionSelector.from_settings; the benchmark change of ROADMAP item 7
deletes both.  The one setting is the pole_guard keyword of evaluate."""


def default_settings() -> None:
    return None
