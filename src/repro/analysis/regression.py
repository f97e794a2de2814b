"""Least-mean-square fits for the complexity study (Section 4.4, Table 4).

The paper fits polynomials in N (operations per loop) to the measured
innermost-loop execution counts: E = 3.0036N, MinDist inner = 11.9133N,
HeightR = 4.5021N, Estart = 3.3321N, FindTimeSlot = 0.0587N^2 + ...; and
infers the empirical order.  These helpers reproduce those fits and also
provide a log-log power fit, whose exponent is a scale-free order
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class LinearFit:
    """``y ~ slope * x (+ intercept)`` with the residual std deviation."""

    slope: float
    intercept: float
    residual_std: float

    def describe(self, x_name: str = "N") -> str:
        """Render the fit as e.g. ``3.0036N (residual std 5.5)``."""
        if self.intercept:
            return (
                f"{self.slope:.4f}{x_name} + {self.intercept:.4f} "
                f"(residual std {self.residual_std:.1f})"
            )
        return f"{self.slope:.4f}{x_name} (residual std {self.residual_std:.1f})"


@dataclass(frozen=True)
class QuadraticFit:
    """``y ~ a*x^2 + b*x + c``."""

    a: float
    b: float
    c: float
    residual_std: float

    def describe(self, x_name: str = "N") -> str:
        """Render the fit as ``a N^2 + b N + c``."""
        return (
            f"{self.a:.4f}{x_name}^2 + {self.b:.4f}{x_name} + {self.c:.4f} "
            f"(residual std {self.residual_std:.1f})"
        )


@dataclass(frozen=True)
class PowerFit:
    """``y ~ scale * x^exponent`` (log-log least squares)."""

    exponent: float
    scale: float

    def describe(self, x_name: str = "N") -> str:
        """Render the fit as ``scale * N^exponent``."""
        return f"{self.scale:.3f} * {x_name}^{self.exponent:.2f}"


def _residual_std(y: np.ndarray, predicted: np.ndarray) -> float:
    residuals = y - predicted
    if len(residuals) < 2:
        return 0.0
    return float(np.std(residuals, ddof=1))


def fit_linear(
    x: Sequence[float], y: Sequence[float], through_origin: bool = True
) -> LinearFit:
    """LMS fit of a line; through the origin by default, as in the paper."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.size == 0 or xs.size != ys.size:
        raise ValueError("x and y must be equal-length, non-empty")
    if through_origin:
        denominator = float(np.dot(xs, xs))
        if denominator == 0.0:
            raise ValueError("cannot fit through origin with all-zero x")
        slope = float(np.dot(xs, ys)) / denominator
        return LinearFit(slope, 0.0, _residual_std(ys, slope * xs))
    slope, intercept = np.polyfit(xs, ys, 1)
    return LinearFit(
        float(slope),
        float(intercept),
        _residual_std(ys, slope * xs + intercept),
    )


def fit_quadratic(x: Sequence[float], y: Sequence[float]) -> QuadraticFit:
    """LMS fit of a quadratic, as the paper uses for FindTimeSlot."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.size < 3:
        raise ValueError("need at least 3 points for a quadratic fit")
    a, b, c = np.polyfit(xs, ys, 2)
    predicted = a * xs * xs + b * xs + c
    return QuadraticFit(float(a), float(b), float(c), _residual_std(ys, predicted))


def load_obs_records(path) -> list:
    """Load and schema-validate a ``repro.obs.v2`` JSONL export.

    Returns the decoded record list; raises :class:`ValueError` with the
    validator's findings when the file is not schema-valid.  This is the
    regression harness's entry point for telemetry diffs — the same
    validator gates CI (``python -m repro.obs.check``).
    """
    import json
    from pathlib import Path

    from repro.obs.schema import validate_jsonl

    text = Path(path).read_text()
    errors = validate_jsonl(text)
    if errors:
        raise ValueError(
            f"{path}: not a valid repro.obs export: " + "; ".join(errors[:5])
        )
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def fit_power(x: Sequence[float], y: Sequence[float]) -> PowerFit:
    """Log-log fit: the exponent estimates the empirical complexity order.

    Points with non-positive x or y are dropped (log is undefined there);
    zero counts carry no order information anyway.
    """
    pairs = [(a, b) for a, b in zip(x, y) if a > 0 and b > 0]
    if len(pairs) < 2:
        raise ValueError("need at least 2 positive points for a power fit")
    log_x = np.log([a for a, _ in pairs])
    log_y = np.log([b for _, b in pairs])
    exponent, log_scale = np.polyfit(log_x, log_y, 1)
    return PowerFit(float(exponent), float(math.exp(log_scale)))
