"""Hypothesis profile for the property suite.

Pure-Python RSA and full Flicker sessions make each example relatively
expensive; a moderate example count keeps the suite minutes-fast while
still exploring the input space well beyond hand-written cases.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")
