import os

import numpy as np
import pytest
from hypothesis import settings

from linetherm.core import SystemParams

# HYPOTHESIS_PROFILE=ci replays the same examples on every run, so a CI
# failure can be reproduced exactly.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def table1() -> SystemParams:
    """Reference-device parameters used by most physics tests."""
    return SystemParams(
        f_r=7.458e9, kappa=2 * np.pi * 4.10e6, chi=2 * np.pi * (-2.70e6)
    )
