"""Monotone weight profiles for visit-indexed return weighting.

A profile is a strictly increasing function w on [0, N] represented as

    w(t) = w0 + integral from 0 to t of exp(p(s)) ds,

where p is the piecewise-linear interpolant of m knot values placed
uniformly on [0, N].  Because exp(p) > 0, any knot vector yields an
increasing w; conversely every smooth strictly increasing function arises
this way, so optimizing over knot vectors searches the whole family.
The integral is evaluated in closed form on each linear piece, never by
numerical quadrature, and materialized as a table of w at integer visit
counts 0..N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Below this slope magnitude the exp-integral switches to its zero-slope
# limit to avoid catastrophic cancellation in (e^{p2} - e^{p1}) / b.
_FLAT_SLOPE = 1e-12

# exp() overflows double precision just above 709.
_MAX_KNOT = 700.0

FEEDBACK_PROFILES = ("GAX", "GAY", "GBX", "GBY")
_FEEDBACK_SEGMENTS = 8


@dataclass(frozen=True)
class WeightProfile:
    """Materialized monotone weight function.

    knots:   m log-slope values p(0), p(dt), ..., p(N) on a uniform grid
    horizon: N, the largest visit count the table covers
    w0:      w(0); 1 for return-averaging use, 0 for softmax sharpening
    table:   w evaluated at integer visit counts 0..N (length N + 1)
    """

    knots: tuple[float, ...]
    horizon: int
    w0: float
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.table.setflags(write=False)

    @property
    def spacing(self) -> float:
        return self.horizon / (len(self.knots) - 1)

    def log_slope_at(self, s: float) -> float:
        """Piecewise-linear interpolant p(s) of the knots, s in [0, N]."""
        if not 0.0 <= s <= self.horizon:
            raise ValueError(f"s={s} outside [0, {self.horizon}]")
        dt = self.spacing
        i = min(int(s / dt), len(self.knots) - 2)
        return self.knots[i] + (s / dt - i) * (self.knots[i + 1] - self.knots[i])


def build_weight_table(knots, horizon: int, w0: float) -> WeightProfile:
    """Materialize the profile defined by ``knots`` over [0, horizon].

    Rejects fewer than two knots, non-finite or overflow-prone knots
    (> 700, where exp leaves double range), and any parameterization whose
    accumulated weights overflow.
    """
    knots = tuple(float(k) for k in knots)
    if len(knots) < 2:
        raise ValueError("a profile needs at least two knots")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not w0 >= 0:
        raise ValueError("w0 must be non-negative")
    arr = np.asarray(knots)
    if not np.all(np.isfinite(arr)):
        raise ValueError("knots must be finite")
    if np.any(arr > _MAX_KNOT):
        raise ValueError(f"knots above {_MAX_KNOT} overflow exp()")

    m = len(knots)
    dt = horizon / (m - 1)
    # Integrate piece-exactly between every breakpoint: integer visit
    # counts plus knot positions (a unit step may straddle a knot).
    bpts = np.union1d(np.arange(horizon + 1, dtype=float),
                      np.linspace(0.0, horizon, m))
    mids = 0.5 * (bpts[:-1] + bpts[1:])
    seg = np.minimum((mids / dt).astype(int), m - 2)
    slopes = (arr[seg + 1] - arr[seg]) / dt
    p_lo = arr[seg] + (bpts[:-1] / dt - seg) * (arr[seg + 1] - arr[seg])
    p_hi = arr[seg] + (bpts[1:] / dt - seg) * (arr[seg + 1] - arr[seg])
    widths = bpts[1:] - bpts[:-1]
    with np.errstate(over="raise"):
        try:
            flat = np.abs(slopes) <= _FLAT_SLOPE
            steep = ~flat
            pieces = np.empty_like(widths)
            pieces[flat] = widths[flat] * np.exp(p_lo[flat])
            pieces[steep] = (np.exp(p_hi[steep]) - np.exp(p_lo[steep])) \
                / slopes[steep]
            values = w0 + np.concatenate([[0.0], np.cumsum(pieces)])
        except FloatingPointError as exc:
            raise ValueError("weight table overflows double precision") from exc
    if not np.all(np.isfinite(values)):
        raise ValueError("weight table overflows double precision")
    idx = np.searchsorted(bpts, np.arange(horizon + 1, dtype=float))
    table = values[idx]
    return WeightProfile(knots=knots, horizon=int(horizon), w0=float(w0), table=table)


def erwa_knots(alpha: float, m: int, horizon: int) -> WeightProfile:
    """Profile whose weights reproduce an exponential recency-weighted
    average with step size ``alpha``.

    The materialized weights equal alpha * (1 - alpha)^(-t): the knots sit
    on the line p(s) = log(lam) * s + log(alpha * log(lam)) with
    lam = 1 / (1 - alpha), and w0 = alpha.  alpha = 1 is rejected (the
    profile is undefined there; a step size of exactly 1 keeps only the
    newest return and needs no weighting machinery).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if m < 2:
        raise ValueError("need at least two knots")
    lam = 1.0 / (1.0 - alpha)
    log_lam = np.log(lam)
    intercept = np.log(alpha * log_lam)
    grid = np.linspace(0.0, horizon, m)
    knots = log_lam * grid + intercept
    return build_weight_table(knots, horizon, w0=alpha)


def feedback_weight(profile: str, t: float, horizon: int, final_ratio: float) -> float:
    """Stepwise weight at visit index ``t`` for the four feedback profiles.

    [0, horizon] is split into 8 segments: uniform widths for GA*,
    exponentially doubling widths for GB*.  The weight is constant within
    a segment and rises from 1 in the first segment to ``final_ratio`` in
    the last, linearly for G*X and geometrically for G*Y.
    """
    if profile not in FEEDBACK_PROFILES:
        raise ValueError(f"unknown feedback profile {profile!r}")
    if not 1.0 < final_ratio < np.inf:
        raise ValueError("final_ratio must exceed 1 and be finite")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0 <= t <= horizon:
        raise ValueError(f"t={t} outside [0, {horizon}]")
    n_seg = _FEEDBACK_SEGMENTS
    if profile[1] == "A":
        j = min(int(t * n_seg / horizon), n_seg - 1)
    else:
        # Doubling widths 1, 2, 4, ..., 2^(n-1) scaled to the horizon.
        total = (1 << n_seg) - 1
        j = n_seg - 1
        for cand in range(n_seg):
            if t < horizon * ((1 << (cand + 1)) - 1) / total:
                j = cand
                break
    if profile[2] == "X":
        return 1.0 + j * (final_ratio - 1.0) / (n_seg - 1)
    return float(final_ratio ** (j / (n_seg - 1)))
