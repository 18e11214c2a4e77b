import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from wavefuse.cli import smooth_image  # noqa: F401  (tests import it from here)
from wavefuse.network import weight_schema


def zero_weights(cfg):
    """All-zero parameters except unit layer-norm gains; makes every enhance
    block the exact identity on its input (the residual-only path)."""
    schema = weight_schema(cfg).items()
    return {n: np.ones(s) if n.endswith(".gain") else np.zeros(s) for n, s in schema}


@pytest.fixture
def rng():
    return np.random.default_rng(0)
