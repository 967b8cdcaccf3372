"""Hypothesis profiles for the suite.

With CI set (GitHub Actions sets it) the "ci" profile is loaded: every
property test draws the same examples in every run, so none of them can
flake there and a failure seen there reproduces locally with CI=1. The
other settings are those of the "ci" profile that recent Hypothesis
releases load by themselves; registering it here makes older releases
behave the same.
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    database=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
if "CI" in os.environ:
    settings.load_profile("ci")
