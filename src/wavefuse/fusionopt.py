"""Variational fusion: optimize the fused image directly by projected gradient
descent on the total loss, with a backtracking line search that guarantees a
monotone loss trace."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, WavefuseError
from .imageio import check_images, csv_text
from .losses import LossReport, LossWeights, loss_total

MAX_HALVINGS = 20


@dataclass(frozen=True)
class OptConfig:
    max_iters: int = 500
    step: float = 0.05
    weights: LossWeights = field(default_factory=LossWeights)
    init: str = "average"  # or "source_a" / "source_b"
    tolerance: float = 1e-7

    def __post_init__(self):
        if not 0 < self.step < np.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if not 0 <= self.tolerance < np.inf:
            raise ValueError(f"tolerance must be >= 0 and finite, got {self.tolerance}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.init not in ("average", "source_a", "source_b"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class OptTrace:
    reports: list[LossReport]
    stop_reason: str  # "converged" or "max_iters"

    @property
    def iterations(self):
        return len(self.reports) - 1

    def csv(self):
        rows = ((i, r.total, r.l_int, r.l_text, r.l_ssim) for i, r in enumerate(self.reports))
        return csv_text("iter,total,l_int,l_text,l_ssim", rows)


def peak_bytes(h, w):
    """Estimated peak bytes optimize allocates on an h x w pair: 14 images.
    13 are met in the second SSIM term during a line search: optimize holds
    the fused image, its gradient and the candidate; loss_total its running
    gradient sum; loss_ssim the first SSIM term's gradient; and
    _ssim_value_grad the two window means, the four SSIM factors, the SSIM
    map and the reciprocal of its denominator. One more covers the filters'
    input padded to whole tiles (13.9 images at 64x64, 13.0 at 256x256)."""
    return 14 * 8 * h * w


def optimize(a, b, cfg=OptConfig()):
    """Minimize the fusion loss over the pixels of the fused image.

    Each step projects back onto [0, 1]; the step is halved (up to 20 times)
    until the loss does not increase, so the recorded trace is non-increasing.
    """
    a, b = check_images(a, b)
    if min(a.shape) < 16:
        raise ShapeError(f"optimize needs at least 16x16 images, got {a.shape}")

    if cfg.init == "average":
        f = (a + b) / 2.0
    elif cfg.init == "source_a":
        f = a.copy()
    else:
        f = b.copy()

    report = loss_total(f, a, b, cfg.weights)
    if not np.isfinite(report.total):
        raise WavefuseError(f"non-finite initial loss {report.total}")
    reports = [report]
    stop = "max_iters"
    for _ in range(cfg.max_iters):
        step = cfg.step
        for _ in range(MAX_HALVINGS + 1):
            cand = np.clip(f - step * report.grad, 0.0, 1.0)
            cand_report = loss_total(cand, a, b, cfg.weights)
            if not np.isfinite(cand_report.total):
                raise WavefuseError(
                    f"non-finite loss {cand_report.total} at iteration "
                    f"{len(reports) - 1}; trace so far has {len(reports)} entries"
                )
            if cand_report.total <= report.total:
                break
            del cand_report  # a rejected candidate's gradient is never read
            step /= 2.0
        else:
            stop = "converged"
            break
        prev_total = report.total
        report.grad = None  # no later step reads a spent base's gradient
        f, report = cand, cand_report
        reports.append(report)
        if prev_total == 0.0 or (
            prev_total > 0 and (prev_total - report.total) / prev_total < cfg.tolerance
        ):
            stop = "converged"
            break
    return f, OptTrace(reports=reports, stop_reason=stop)
