"""Wavelet-attention multimodal image fusion.

Fuse grayscale/RGB image pairs with a small frequency-interaction network,
optimize fused images variationally against a three-term loss, and score
fusion quality (SSIM, edge preservation, Piella index, feature MI).
"""

from .errors import FormatError, PnmParseError, ShapeError, WavefuseError
from .fusionopt import OptConfig, OptTrace, optimize
from .losses import LossReport, LossWeights, gradcheck, loss_total, ssim
from .metrics import MetricReport, band_correlation_study, fmi, q_abf, q_w, score
from .network import NetConfig, forward, init_weights, load_weights, save_weights
from .wavelet import dwt2, iwt2


def _keep_freed_blocks():
    """Raise glibc's mmap and trim thresholds to 64 and 256 MiB, for the whole
    process. By default a freed block of 128 KiB or more goes back to the OS,
    so each image-sized temporary is faulted in again, one minor fault per
    4 KiB page. Setting either threshold turns off glibc's dynamic threshold,
    so both are set. True if both mallopt calls returned 1; off glibc (no C
    library, no mallopt, or musl's stub) nothing changes and False results."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 (mallopt(3))
    return [mallopt(-3, 64 << 20), mallopt(-1, 256 << 20)] == [1, 1]


_MALLOC_TUNED = _keep_freed_blocks()

__all__ = [
    "FormatError",
    "PnmParseError",
    "ShapeError",
    "WavefuseError",
    "OptConfig",
    "OptTrace",
    "optimize",
    "LossReport",
    "LossWeights",
    "gradcheck",
    "loss_total",
    "ssim",
    "MetricReport",
    "band_correlation_study",
    "fmi",
    "q_abf",
    "q_w",
    "score",
    "NetConfig",
    "forward",
    "init_weights",
    "load_weights",
    "save_weights",
    "dwt2",
    "iwt2",
]

__version__ = "0.1.0"
