"""Variational fusion: optimize the fused image directly by projected gradient
descent on the total loss, with a backtracking line search that guarantees a
monotone loss trace."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, WavefuseError
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
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.init not in ("average", "source_a", "source_b"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class OptTrace:
    reports: list[LossReport]
    iterations: int
    stop_reason: str  # "converged" or "max_iters"

    def csv(self):
        lines = ["iter,total,l_int,l_text,l_ssim"]
        for i, r in enumerate(self.reports):
            lines.append(
                f"{i},{format(r.total, '.9g')},{format(r.l_int, '.9g')},"
                f"{format(r.l_text, '.9g')},{format(r.l_ssim, '.9g')}"
            )
        return "\n".join(lines) + "\n"


def optimize(a, b, cfg=OptConfig()):
    """Minimize the fusion loss over the pixels of the fused image.

    Each step projects back onto [0, 1]; the step is halved (up to 20 times)
    until the loss does not increase, so the recorded trace is non-increasing.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ShapeError(f"source shapes differ: {a.shape} vs {b.shape}")
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
    iterations = 0
    for _ in range(cfg.max_iters):
        step = cfg.step
        accepted = None
        for _ in range(MAX_HALVINGS + 1):
            cand = np.clip(f - step * report.grad, 0.0, 1.0)
            cand_report = loss_total(cand, a, b, cfg.weights)
            if not np.isfinite(cand_report.total):
                raise WavefuseError(
                    f"non-finite loss {cand_report.total} at iteration "
                    f"{iterations}; trace so far has {len(reports)} entries"
                )
            if cand_report.total <= report.total:
                accepted = (cand, cand_report)
                break
            step /= 2.0
        if accepted is None:
            stop = "converged"
            break
        prev_total = report.total
        f, report = accepted
        reports.append(report)
        iterations += 1
        if prev_total > 0 and (prev_total - report.total) / prev_total < cfg.tolerance:
            stop = "converged"
            break
        if prev_total == 0.0:
            stop = "converged"
            break
    return f, OptTrace(reports=reports, iterations=iterations, stop_reason=stop)
