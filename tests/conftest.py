import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from wavefuse.cli import smooth_image  # noqa: F401  (tests import it from here)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
