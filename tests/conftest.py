"""Shared pytest configuration.

The tests directory is flat.  oracles.py holds independent reference
computations (transport enumeration, 1-d quantizer fixed point, density
quadrature) and each test module imports it directly; pytest puts this
directory on sys.path because there is no package __init__.
"""

import numpy as np
import pytest
from hypothesis import settings

# Generative tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic; no deadline, since timing on a
# shared machine is not what these tests check.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20260822)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: end-to-end acceptance criteria with printed verdict lines"
    )
