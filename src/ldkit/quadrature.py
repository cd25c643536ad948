"""Arc-length quadrature over one domain interval.

Two schemes back ``arclength_interval``:

* tanh-sinh (double-exponential) with a node-doubling ladder, used whenever
  an endpoint is a turning point. The substitution clusters nodes
  double-exponentially at the endpoints, so the integrable (q* - q)^(-1/2)
  singularity of the integrand converges without ever evaluating the
  endpoints themselves.
* globally adaptive Gauss-Kronrod 7/15 for intervals with regular or
  truncation endpoints.

``polyline_oracle`` is an independent brute-force check for the tests, not
a scheme: chord sums over cosine-graded samples of ``model.branch``.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import InvalidInterval
from .models import REGULAR, TURNING

_TS_TMAX = 4.5  # |t| range of the double-exponential variable

# Gauss-Kronrod 7/15 nodes and weights (positive half; node 0 last)
_GK_NODES = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_GK_WK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_GK_WG = np.array([0.1294849661688697, 0.2797053914892767,
                   0.3818300505051189, 0.4179591836734694])

_X15 = np.concatenate([-_GK_NODES[:-1], _GK_NODES[::-1]])
_W15 = np.concatenate([_GK_WK[:-1], _GK_WK[::-1]])
_W7 = np.zeros(15)
_W7[1:-1:2] = np.concatenate([_GK_WG[:-1], _GK_WG[::-1]])


@dataclass
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_levels: int = 12
    scheme: str = "auto"

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_levels < 4:
            raise ValueError("max_levels must be at least 4")
        if self.scheme not in ("auto", "tanh-sinh", "adaptive-gk"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class IntervalLength:
    value: float
    est_error: float
    evaluations: int
    converged: bool = True


def _make_feval(model, E):
    code = model.kernel_code
    if code is not None:
        return lambda qs: K.integrand_values(code, qs, E)

    def feval(qs):
        rad = np.asarray(model.radicand(qs, E), dtype=np.float64)
        g = 0.5 * np.asarray(model.radicand_dq(qs), dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.hypot(1.0, g / np.sqrt(rad))
        return np.where(rad > 0.0, f, 0.0)

    return feval


def _tanh_sinh(feval, lo, hi, rel_tol, abs_tol, max_levels, c_lo=0.0, c_hi=0.0,
               noise_scale=0.0, t_max=_TS_TMAX):
    """Node-doubling tanh-sinh ladder on [lo, hi] with singularity extraction.

    ``c_lo``/``c_hi`` are the coefficients of the integrand's inverse-sqrt
    parts c/sqrt(q - lo) and c/sqrt(hi - q). Those parts integrate in closed
    form (2*c*sqrt(hi - lo) each); the ladder only sees the bounded
    remainder, which removes the arc hidden within the last ulp of a
    turning-point endpoint from the node sum entirely.
    """
    half = 0.5 * (hi - lo)
    mid = lo + half
    width = hi - lo
    # Nodes too close to a turning endpoint only sample roundoff noise of
    # the radicand (its value ~ A*d cancels down to the term scale S of the
    # model formula). Since the singular part is extracted in closed form,
    # the genuine remainder over that sliver is O(d^1.5) and can be skipped.
    # Keep nodes where the radicand still carries ~4 significant digits.
    eps_mach = 2.3e-16
    min_dist = 16.0 * np.spacing(max(abs(lo), abs(hi), 1.0))
    min_lo = min_dist
    min_hi = min_dist
    if noise_scale > 0.0:
        # a cut beyond width/64 means the radicand slope is degenerate there
        # (bounded integrand, no noise amplification): keep the ulp cut
        if c_lo > 0.0:
            cut = eps_mach * noise_scale / (4.0 * c_lo ** 2 * 1e-6)
            if cut < width / 64.0:
                min_lo = max(min_lo, cut)
        if c_hi > 0.0:
            cut = eps_mach * noise_scale / (4.0 * c_hi ** 2 * 1e-6)
            if cut < width / 64.0:
                min_hi = max(min_hi, cut)

    def remainder(xs, d_lo, d_hi):
        f = feval(xs)
        s = np.zeros_like(f)
        if c_lo != 0.0:
            s = s + c_lo / np.sqrt(d_lo)
        if c_hi != 0.0:
            s = s + c_hi / np.sqrt(d_hi)
        # the integrand is >= 1 wherever the branch is real; f == 0 marks
        # guarded nodes past the turning point, which must not see s
        return np.where(f >= 1.0, f - s, 0.0)

    extracted = 2.0 * (c_lo + c_hi) * math.sqrt(width)

    s_cum = 0.0
    value = math.inf
    evaluations = 0
    est = math.inf
    for level in range(max_levels + 1):
        h = 0.5 ** level
        if level == 0:
            ts = np.arange(1.0, t_max, 1.0)
        else:
            ts = np.arange(h, t_max, 2.0 * h)
        z = 0.5 * math.pi * np.sinh(ts)
        w = 0.5 * math.pi * np.cosh(ts) / np.cosh(z) ** 2
        # distance of the node from the nearer endpoint, computed stably
        delta = 2.0 / (1.0 + np.exp(2.0 * z))
        dist = half * delta

        ok_hi = dist >= min_hi
        ok_lo = dist >= min_lo
        s_new = 0.0
        if np.any(ok_hi):
            d = dist[ok_hi]
            s_new += float(np.sum(w[ok_hi] * remainder(hi - d, width - d, d)))
            evaluations += int(np.count_nonzero(ok_hi))
        if np.any(ok_lo):
            d = dist[ok_lo]
            s_new += float(np.sum(w[ok_lo] * remainder(lo + d, d, width - d)))
            evaluations += int(np.count_nonzero(ok_lo))
        if level == 0:
            s_new += 0.5 * math.pi * float(
                remainder(np.array([mid]), np.array([half]), np.array([half]))[0]
            )
            evaluations += 1

        s_cum += s_new
        new_value = half * h * s_cum + extracted
        est = abs(new_value - value)
        value = new_value
        if level >= 2 and est <= rel_tol * abs(value) + abs_tol:
            return value, est, evaluations, True
    return value, est, evaluations, False


def _gk_panel(feval, lo, hi):
    half = 0.5 * (hi - lo)
    xs = lo + half * (_X15 + 1.0)
    fs = feval(xs)
    k = half * float(np.dot(_W15, fs))
    g = half * float(np.dot(_W7, fs))
    diff = abs(k - g)
    err = min(diff, (200.0 * diff) ** 1.5)
    return k, err


def _gk_adaptive(feval, lo, hi, rel_tol, abs_tol, max_panels=4096):
    val, err = _gk_panel(feval, lo, hi)
    heap = [(-err, 0, lo, hi, val, err)]
    total_val = val
    total_err = err
    evaluations = 15
    counter = 1
    npanels = 1
    while total_err > max(abs_tol, rel_tol * abs(total_val)):
        if not heap or npanels >= max_panels:
            return total_val, total_err, evaluations, False
        _, _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # panel at floating-point resolution; its error stays in the total
            continue
        v1, e1 = _gk_panel(feval, a, m)
        v2, e2 = _gk_panel(feval, m, b)
        evaluations += 30
        npanels += 1
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, counter, a, m, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, m, b, v2, e2))
        counter += 2
    return total_val, total_err, evaluations, True


def arclength_interval(model, E, interval, flags=(REGULAR, REGULAR), cfg=None):
    """Arc length of the nonnegative branch over one interval.

    ``flags`` are the endpoint flags from the model's domain; turning-point
    endpoints route the integral to the tanh-sinh scheme. The integrand is
    only ever evaluated at interior nodes.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    lo, hi = float(interval[0]), float(interval[1])
    if lo >= hi:
        raise InvalidInterval(f"interval [{lo}, {hi}] has lo >= hi")

    feval = _make_feval(model, E)
    scheme = cfg.scheme
    if scheme == "auto":
        scheme = "tanh-sinh" if TURNING in flags else "adaptive-gk"

    if scheme == "tanh-sinh":
        # inverse-sqrt coefficients at turning endpoints, from the radicand
        # slope there (cancellation-free)
        c_lo = c_hi = 0.0
        if flags[0] == TURNING:
            c_lo = 0.5 * math.sqrt(abs(float(model.radicand_dq(lo))))
        if flags[1] == TURNING:
            c_hi = 0.5 * math.sqrt(abs(float(model.radicand_dq(hi))))
        mid_rad = abs(float(model.radicand(0.5 * (lo + hi), E)))
        scale = max(mid_rad, 4.0 * max(c_lo, c_hi) ** 2 * (hi - lo))
        value, est, evals, conv = _tanh_sinh(
            feval, lo, hi, cfg.rel_tol, cfg.abs_tol, cfg.max_levels,
            c_lo=c_lo, c_hi=c_hi, noise_scale=scale,
        )
    else:
        value, est, evals, conv = _gk_adaptive(
            feval, lo, hi, cfg.rel_tol, cfg.abs_tol
        )
    return IntervalLength(value, est, evals, conv)


def polyline_oracle(model, E, interval, n_segments):
    """Chord-sum length over cosine-graded branch samples (monotone lower bound).

    The cosine grading clusters nodes near the interval ends so vertical
    tangents at turning points are resolved. Raises :class:`OutsideDomain`
    when a sample falls outside the level curve.
    """
    if n_segments < 2:
        raise ValueError("n_segments must be at least 2")
    lo, hi = float(interval[0]), float(interval[1])
    if hi == lo:
        return 0.0
    if lo > hi:
        raise InvalidInterval(f"interval [{lo}, {hi}] has lo > hi")
    i = np.arange(n_segments + 1, dtype=np.float64)
    qs = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * i / n_segments))
    ps = np.asarray(model.branch(qs, E), dtype=np.float64)
    return float(np.hypot(np.diff(qs), np.diff(ps)).sum())
