"""Arc-length quadrature over domain intervals, batched over rows.

A *row* is one domain interval of one energy. :func:`arclength_rows`
integrates many rows in one run, so a landscape, a rate ladder or a map pays
Python overhead per batch and per ladder level or refinement round, not per
interval. Two schemes:

* tanh-sinh (double-exponential) with a node-doubling ladder, used whenever
  an endpoint is a turning point. The substitution clusters nodes
  double-exponentially at the endpoints, so the integrable (q* - q)^(-1/2)
  singularity of the integrand converges without ever evaluating the
  endpoints themselves. All active rows share a level's nodes, so a level
  is one (rows x nodes) array; a row that converges is frozen and dropped
  from the next level.
* globally adaptive Gauss-Kronrod 7/15 for intervals with regular or
  truncation endpoints. Each row keeps its own heap of panels and splits its
  worst panel once per round; all new panels of a round are evaluated in
  one (panels x 15) call.

A row's result depends on that row alone, whatever other rows share its
batch: reductions are row-local sums (``np.sum(..., axis=1)``, no BLAS
``dot``/matmul, whose blocking can depend on the batch shape), and a
tanh-sinh row sums exactly its kept nodes. Temporaries are bounded by
processing the rows in chunks of at most ``_CHUNK_ELEMS`` elements.
:func:`arclength_interval` is a batch of one row.

``polyline_oracle`` is an independent brute-force check for the tests, not
a scheme: chord sums over cosine-graded samples of ``model.branch``.
"""

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import InvalidInterval
from .models import REGULAR, TURNING

_TS_TMAX = 4.5  # |t| range of the double-exponential variable

# element budget of one (rows x nodes) temporary; a single row at a deep
# level is never split, so a chunk holds at least one row
_CHUNK_ELEMS = 1 << 16

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


def _integrand(model, qs, E):
    return K.arc_integrand(model.radicand(qs, E), model.radicand_dq(qs))


def _prefix_sums(P, n):
    """Sum of the first ``n[i]`` entries of each row ``P[i]``.

    numpy's pairwise summation order depends on the length summed, so each
    row is summed over exactly its prefix (rows grouped by length) and never
    sees the entries past it: a row's sum is the same whatever other rows
    share ``P`` and however wide ``P`` is.
    """
    out = np.zeros(P.shape[0])
    for k in np.unique(n):
        if k:
            sel = n == k
            out[sel] = P[sel, :k].sum(axis=1)
    return out


def _remainder(model, xs, E, c_lo, c_hi, d_lo, d_hi):
    """Integrand minus its extracted inverse-sqrt parts, elementwise."""
    f = _integrand(model, xs, E)
    s = c_lo / np.sqrt(d_lo) + c_hi / np.sqrt(d_hi)
    # the integrand is >= 1 wherever the branch is real; f == 0 marks
    # guarded nodes past the turning point, which must not see s
    return np.where(f >= 1.0, f - s, 0.0)


def _ts_level(model, rows, w, delta):
    """Weighted remainder sums and evaluation counts of one ladder level.

    ``rows`` holds the per-row columns (E, lo, hi, half, width, c_lo, c_hi,
    min_lo, min_hi) of one chunk. Nodes nearer an endpoint than its
    ``min_*`` distance are skipped; distances shrink along a level's nodes,
    so the kept nodes of a row are a prefix. The chunk is evaluated as one
    rectangle as wide as its longest prefix; each row sums its own prefix.
    """
    E, lo, hi, half, width, c_lo, c_hi, min_lo, min_hi = rows
    # distance of each node from the nearer endpoint, computed stably
    dist = half[:, None] * delta
    sums = 0.0
    evals = 0
    for edge, sign, cut in ((hi, -1.0, min_hi), (lo, 1.0, min_lo)):
        ok = dist >= cut[:, None]
        n = np.count_nonzero(ok, axis=1)
        d = dist[:, :int(n.max())]
        other = width[:, None] - d
        xs = edge[:, None] + sign * d
        d_lo, d_hi = (other, d) if sign < 0.0 else (d, other)
        P = w[:d.shape[1]] * _remainder(model, xs, E[:, None], c_lo[:, None],
                                        c_hi[:, None], d_lo, d_hi)
        sums = sums + _prefix_sums(P, n)
        evals = evals + n
    return sums, evals


def _ts_rows(model, E, lo, hi, c_lo, c_hi, noise_scale, rel_tol, abs_tol,
             max_levels, t_max=_TS_TMAX):
    """Node-doubling tanh-sinh ladder on the rows [lo, hi], with singularity
    extraction. Every argument but the tolerances, ``max_levels`` and
    ``t_max`` is a per-row array.

    ``c_lo``/``c_hi`` are the coefficients of the integrand's inverse-sqrt
    parts c/sqrt(q - lo) and c/sqrt(hi - q). Those parts integrate in closed
    form (2*c*sqrt(hi - lo) each); the ladder only sees the bounded
    remainder, which removes the arc hidden within the last ulp of a
    turning-point endpoint from the node sum entirely.

    Returns per-row arrays (value, est_error, evaluations, converged).
    """
    n_rows = E.size
    half = 0.5 * (hi - lo)
    mid = lo + half
    width = hi - lo
    # Nodes too close to a turning endpoint only sample roundoff noise of
    # the radicand (its value ~ A*d cancels down to the term scale S of the
    # model formula). Since the singular part is extracted in closed form,
    # the genuine remainder over that sliver is O(d^1.5) and can be skipped.
    # Keep nodes where the radicand still carries ~4 significant digits.
    eps_mach = 2.3e-16
    min_dist = 16.0 * np.spacing(np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0))
    cuts = []
    for c in (c_lo, c_hi):
        with np.errstate(divide="ignore", invalid="ignore"):
            cut = eps_mach * noise_scale / (4.0 * c ** 2 * 1e-6)
        # a cut beyond width/64 means the radicand slope is degenerate there
        # (bounded integrand, no noise amplification): keep the ulp cut
        use = (noise_scale > 0.0) & (c > 0.0) & (cut < width / 64.0)
        cuts.append(np.where(use, np.maximum(min_dist, cut), min_dist))
    min_lo, min_hi = cuts
    extracted = 2.0 * (c_lo + c_hi) * np.sqrt(width)

    value = np.empty(n_rows)
    est = np.empty(n_rows)
    evaluations = np.empty(n_rows, dtype=np.int64)
    converged = np.zeros(n_rows, dtype=bool)

    # state of the active rows, compacted as rows converge
    idx = np.arange(n_rows)
    cols = [E, lo, hi, half, width, c_lo, c_hi, min_lo, min_hi]
    s_cum = np.zeros(n_rows)
    val = np.full(n_rows, math.inf)
    ev = np.zeros(n_rows, dtype=np.int64)
    for level in range(max_levels + 1):
        h = 0.5 ** level
        if level == 0:
            ts = np.arange(1.0, t_max, 1.0)
        else:
            ts = np.arange(h, t_max, 2.0 * h)
        z = 0.5 * math.pi * np.sinh(ts)
        w = 0.5 * math.pi * np.cosh(ts) / np.cosh(z) ** 2
        delta = 2.0 / (1.0 + np.exp(2.0 * z))

        s_new = np.empty(idx.size)
        step = max(1, _CHUNK_ELEMS // ts.size)
        for a in range(0, idx.size, step):
            chunk = [col[a:a + step] for col in cols]
            s_new[a:a + step], n_ev = _ts_level(model, chunk, w, delta)
            ev[a:a + step] += n_ev
        if level == 0:  # the centre node; no row has been dropped yet
            s_new += 0.5 * math.pi * _remainder(model, mid, E, c_lo, c_hi,
                                                half, half)
            ev += 1

        s_cum += s_new
        new_val = cols[3] * h * s_cum + extracted
        err = np.abs(new_val - val)
        val = new_val
        if level < 2:
            continue
        done = err <= rel_tol * np.abs(val) + abs_tol
        out = idx[done]
        value[out], est[out], evaluations[out] = val[done], err[done], ev[done]
        converged[out] = True
        keep = ~done
        idx, s_cum, val, err, ev, extracted = (
            x[keep] for x in (idx, s_cum, val, err, ev, extracted))
        cols = [col[keep] for col in cols]
        if not idx.size:
            break
    value[idx], est[idx], evaluations[idx] = val, err, ev
    return value, est, evaluations, converged


def _gk_panels(model, E, a, b):
    """Kronrod value and error estimate of the 15-point panels [a, b]."""
    half = 0.5 * (b - a)
    xs = a[:, None] + half[:, None] * (_X15 + 1.0)
    fs = _integrand(model, xs, E[:, None])
    k = half * np.sum(fs * _W15, axis=1)
    diff = np.abs(k - half * np.sum(fs * _W7, axis=1))
    return k, np.minimum(diff, (200.0 * diff) ** 1.5)


def _gk_rows(model, E, lo, hi, rel_tol, abs_tol, max_panels=4096):
    """Globally adaptive Gauss-Kronrod 7/15 on the rows [lo, hi].

    Each row splits the worst panel of its own heap once per round, so it
    follows the split sequence it would follow alone. Rows run in chunks
    whose round (two new panels per row) fits the element budget, which
    also bounds the number of live heaps. Returns per-row arrays (value,
    est_error, evaluations, converged).
    """
    step = _CHUNK_ELEMS // (2 * _X15.size)
    if E.size > step:
        parts = [_gk_rows(model, E[i:i + step], lo[i:i + step], hi[i:i + step],
                          rel_tol, abs_tol, max_panels)
                 for i in range(0, E.size, step)]
        return tuple(np.concatenate(p) for p in zip(*parts))
    val, err = _gk_panels(model, E, lo, hi)
    value = val.tolist()
    est = err.tolist()
    heaps = [[(-e, 0, a, b, v, e)]
             for a, b, v, e in zip(lo.tolist(), hi.tolist(), value, est)]
    evaluations = [15] * E.size
    npanels = [1] * E.size
    converged = [False] * E.size
    counter = itertools.count(1)
    active = range(E.size)
    while active:
        splits = []
        still = []
        for i in active:
            if not est[i] > max(abs_tol, rel_tol * abs(value[i])):
                converged[i] = True
                continue
            if not heaps[i] or npanels[i] >= max_panels:
                continue
            still.append(i)
            _, _, a, b, v, e = heapq.heappop(heaps[i])
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                # panel at floating-point resolution; its error stays in the total
                continue
            splits.append((i, a, m, b, v, e))
        active = still
        if not splits:
            continue
        rows, a, m, b, _, _ = map(np.array, zip(*splits))
        k, r = _gk_panels(model, np.concatenate([E[rows], E[rows]]),
                          np.concatenate([a, m]), np.concatenate([m, b]))
        k1, k2 = np.split(k, 2)
        r1, r2 = np.split(r, 2)
        for (i, a, m, b, v, e), v1, e1, v2, e2 in zip(
                splits, k1.tolist(), r1.tolist(), k2.tolist(), r2.tolist()):
            evaluations[i] += 30
            npanels[i] += 1
            value[i] += v1 + v2 - v
            est[i] += e1 + e2 - e
            heapq.heappush(heaps[i], (-e1, next(counter), a, m, v1, e1))
            heapq.heappush(heaps[i], (-e2, next(counter), m, b, v2, e2))
    return (np.array(value), np.array(est), np.array(evaluations, dtype=np.int64),
            np.array(converged))


def arclength_rows(model, E, lo, hi, flags, cfg=None):
    """Arc lengths of the nonnegative branch over many intervals at once.

    Row i is the interval [lo[i], hi[i]] at energy E[i] with the endpoint
    flag pair ``flags[i]`` from the model's domain; turning-point endpoints
    route a row to the tanh-sinh scheme. Intervals must have lo < hi. The
    integrand is never evaluated outside [lo, hi], and only interior nodes
    enter a row's sum. Returns per-row arrays (value, est_error,
    evaluations, converged).
    """
    if cfg is None:
        cfg = QuadratureConfig()
    E, lo, hi = (np.asarray(x, dtype=np.float64).reshape(-1) for x in (E, lo, hi))
    t_lo = np.array([f[0] == TURNING for f in flags], dtype=bool)
    t_hi = np.array([f[1] == TURNING for f in flags], dtype=bool)
    if cfg.scheme == "auto":
        ts = t_lo | t_hi
    else:
        ts = np.full(E.size, cfg.scheme == "tanh-sinh")

    value = np.empty(E.size)
    est = np.empty(E.size)
    evaluations = np.zeros(E.size, dtype=np.int64)
    converged = np.zeros(E.size, dtype=bool)
    if ts.any():
        r_E, r_lo, r_hi = E[ts], lo[ts], hi[ts]
        # inverse-sqrt coefficients at turning endpoints, from the radicand
        # slope there (cancellation-free)
        c_lo = np.where(t_lo[ts], 0.5 * np.sqrt(np.abs(model.radicand_dq(r_lo))), 0.0)
        c_hi = np.where(t_hi[ts], 0.5 * np.sqrt(np.abs(model.radicand_dq(r_hi))), 0.0)
        mid_rad = np.abs(model.radicand(0.5 * (r_lo + r_hi), r_E))
        scale = np.maximum(mid_rad, 4.0 * np.maximum(c_lo, c_hi) ** 2 * (r_hi - r_lo))
        out = _ts_rows(model, r_E, r_lo, r_hi, c_lo, c_hi, scale,
                       cfg.rel_tol, cfg.abs_tol, cfg.max_levels)
        for dst, src in zip((value, est, evaluations, converged), out):
            dst[ts] = src
    gk = ~ts
    if gk.any():
        out = _gk_rows(model, E[gk], lo[gk], hi[gk], cfg.rel_tol, cfg.abs_tol)
        for dst, src in zip((value, est, evaluations, converged), out):
            dst[gk] = src
    return value, est, evaluations, converged


def arclength_interval(model, E, interval, flags=(REGULAR, REGULAR), cfg=None):
    """Arc length of the nonnegative branch over one interval.

    ``flags`` are the endpoint flags from the model's domain; turning-point
    endpoints route the integral to the tanh-sinh scheme. A batch of one
    row of :func:`arclength_rows`.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if lo >= hi:
        raise InvalidInterval(f"interval [{lo}, {hi}] has lo >= hi")
    value, est, evals, conv = arclength_rows(model, [E], [lo], [hi], [flags], cfg)
    return IntervalLength(float(value[0]), float(est[0]), int(evals[0]),
                          bool(conv[0]))


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
