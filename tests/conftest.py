import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from wavefuse.cli import smooth_image  # noqa: F401  (tests import it from here)
from wavefuse.network import weight_schema
from oracles import wfw_bytes


def zero_weights(cfg):
    """All-zero parameters except unit layer-norm gains; makes every enhance
    block the exact identity on its input (the residual-only path)."""
    schema = weight_schema(cfg).items()
    return {n: np.ones(s) if n.endswith(".gain") else np.zeros(s) for n, s in schema}


def write_wfw(path, tensors, cfg, **fields):
    """Write tensors under cfg's record, with the given fields replaced, through
    the oracle writer. save_weights writes only what load_weights reads, so the
    tests craft bad files, and records NetConfig refuses, here."""
    record = {**asdict(cfg), **fields}
    route = record.pop("cross_route")
    path.write_bytes(wfw_bytes(list(record.values()), route, tensors))
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(0)
