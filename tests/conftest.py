"""Shared test settings.

Property tests draw the same examples on every run (``derandomize``), so a
tier-1 failure reproduces, and carry no per-example deadline, since a slow
shared runner can exceed hypothesis' default 200 ms on a quadrature-backed
example without anything being wrong.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
