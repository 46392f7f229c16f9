"""Shared pytest setup: one hypothesis profile for every property test.

Timing deadlines are off: examples that run native numpy and scipy code
take uneven wall time on a busy shared host, so a deadline would fail
tests for the host's load rather than for the code. Each test still sets
its own example count and health checks.
"""

from hypothesis import settings

settings.register_profile("peduncle", deadline=None)
settings.load_profile("peduncle")
