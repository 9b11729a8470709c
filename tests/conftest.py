"""One Hypothesis profile for the whole suite: every run draws the same examples.

``derandomize`` seeds each test's draws from the test itself, so the suite is
one fixed computation and a failing draw fails on every run; ``deadline`` is
off because an example's time depends on the machine's load, not on the code.
"""

from hypothesis import settings

settings.register_profile("crowdtrack", derandomize=True, deadline=None)
settings.load_profile("crowdtrack")
