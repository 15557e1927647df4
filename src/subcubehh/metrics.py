"""Detection and estimation metrics for scoring reported heavy-hitter sets."""

from __future__ import annotations

from typing import Mapping, Sequence

from .core import JointValue
from .errors import ConfigError
from .oracle import GroundTruth


def compute_detection_metrics(
    reported: set[JointValue], heavy: set[JointValue]
) -> tuple[int, int]:
    """(true positives, false positives) of `reported` against an exact
    heavy set, GroundTruth.heavy_set(gamma)."""
    tp = len(reported & heavy)
    return tp, len(reported) - tp


def compute_error_metrics(
    estimates: Mapping[JointValue, float], truth: GroundTruth, top: Sequence[JointValue]
) -> tuple[float, float, float]:
    """(MSE, MAE, MAPE) of the estimates over `top`, the most frequent true
    values, GroundTruth.top_values(k); a value with no estimate counts as an
    estimate of 0."""
    if not top:
        raise ConfigError("no true values to score: the ground truth table is empty")
    se = ae = ape = 0.0
    for v in top:
        f = truth.freq(v)
        err = abs(estimates.get(v, 0.0) - f)
        se += err * err
        ae += err
        ape += err / f
    n = len(top)
    return se / n, ae / n, ape / n


def roc_auc(points: Sequence[tuple[float, float]], fp_max: float) -> float:
    """Area under a (false positives, true positives) curve up to fp_max.

    Points are sorted by FP; the curve starts at (0, 0) and is extended
    horizontally from its last point to fp_max. When fp_max is 0 every
    curve is a vertical segment, and the comparison degenerates to the
    highest TP reached.
    """
    pts = sorted(points)
    if fp_max <= 0.0:
        return max((tp for _fp, tp in pts), default=0.0)
    pts = [(0.0, 0.0)] + pts
    if pts[-1][0] < fp_max:
        pts.append((fp_max, pts[-1][1]))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x1 > fp_max:
            # cut the segment at fp_max
            y1 = y0 + (y1 - y0) * (fp_max - x0) / (x1 - x0)
            x1 = fp_max
        area += 0.5 * (y0 + y1) * (x1 - x0)
        if x1 >= fp_max:
            break
    return area
