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
