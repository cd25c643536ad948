"""Arc-length quadrature over domain intervals, batched over rows.

A *row* is one domain interval of one energy. :func:`arclength_rows`
integrates many rows in one run of one scheme, globally adaptive
Gauss-Kronrod 7/15 with QUADPACK's error estimate (Piessens et al.,
QUADPACK, 1983), so a landscape, a rate ladder or a map pays Python overhead
per refinement round, not per interval.

* Turning points. The integrand sqrt(1 + (dp/dq)^2) grows like
  (q* - q)^(-1/2) where the momentum branch vanishes. A row with a turning
  end is integrated in a cosine variable t instead of q: with both ends
  turning, q = lo + L (1 - cos t)/2 on [0, pi]; with one, q runs from the
  turning end by L (1 - cos t) on [0, pi/2] (L = hi - lo). The model's
  deflated radicand g (:meth:`HamiltonianModel.deflated_radicand`) gives
  p^2 = g times the distances to the turning ends, without cancellation,
  and the integrand ds/dt = (dq/dt) sqrt(1 + (p^2)'^2 / (4 p^2)) is smooth
  and bounded. Rows without a turning end are integrated in q.
* Graded seeds. Near a saddle energy E_s, a level curve has a neck about
  sqrt(|E - E_s|) wide in q next to the saddle (its fourth root in t). A row
  starts from panels graded toward each end that is not a truncation, by
  half-decade steps in the distance from the end, down to a tenth of the
  larger of sqrt(|E - E_s|) and the end's distance from the saddle nearest
  to it. Started as one panel, a row whose neck falls between its Kronrod
  nodes would pass the tolerance test with the neck missed.
* Rounds on arrays. A chunk of rows keeps its panels in (rows x panels)
  arrays. Each round splits every active row's worst panel (largest error
  estimate, one ``argmax`` per row) and evaluates all new panels in one
  (panels x 15) call. ``max_levels`` caps the bisection depth below a seed
  panel and ``_MAX_PANELS`` the panels of a row. A row stops converged when
  its summed error estimate meets the tolerance, else unconverged when no
  panel can be split.

A row's result depends on that row alone, whatever other rows share its
batch: panel sums are row-local (``np.sum(..., axis=1)`` over a panel's 15
nodes, no BLAS), and a row's running totals are updated elementwise in its
own split order. Chunks hold at most ``_CHUNK_ELEMS`` panel slots and
evaluate at most that many nodes per call; a chunk whose rows need more
panels is halved. :func:`arclength_interval` is a batch of one row.

``polyline_oracle`` is an independent brute-force check for the tests, not
a scheme: chord sums over cosine-graded samples of ``model.branch``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import InvalidInterval
from .models import REGULAR, TRUNCATION, TURNING

# panel slots (rows x panels) of one chunk, and nodes of one evaluation call
_CHUNK_ELEMS = 1 << 16
_MAX_PANELS = 1024  # panels of one row
_MAX_SEEDS = 32  # seeds toward one end: distances down to 1e-16 L

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
_W7 = np.concatenate([_GK_WG[:-1], _GK_WG[::-1]])  # at the odd Kronrod nodes
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of a row, and ``max_levels``, the bisection depth allowed
    below a seed panel."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_levels: int = 12

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):  # NaN too
            raise ValueError("tolerances must be positive")
        if not (isinstance(self.max_levels, (int, np.integer)) and self.max_levels >= 4):
            raise ValueError("max_levels must be an integer >= 4")


@dataclass
class IntervalLength:
    value: float
    est_error: float
    evaluations: int
    converged: bool = True


def _integrand(model, rows, t):
    """ds/dt at the nodes t (panels x 15); ``rows`` holds per-panel columns
    (E, lo, hi, t_lo, t_hi), each shaped (panels, 1)."""
    E, lo, hi, t_lo, t_hi = rows
    cos_var = (t_lo | t_hi)[:, 0]
    if not cos_var.any():
        return K.integrand_values(model, t, E)
    if not cos_var.all():
        f = np.empty(t.shape)
        plain = ~cos_var
        f[plain] = _integrand(model, [col[plain] for col in rows], t[plain])
        f[cos_var] = _integrand(model, [col[cos_var] for col in rows], t[cos_var])
        return f
    # distances to the ends are linear in s^2 and c^2: two turning ends give
    # d_lo = L s^2, d_hi = L c^2; one, 2 L s^2 from it and L (c^2 - s^2)
    # from the other end
    L = hi - lo
    two = t_lo & t_hi
    m = np.where(two, L, 2.0 * L)
    other = np.where(two, 0.0, -L)
    s = np.sin(0.5 * t)
    c = np.cos(0.5 * t)
    s2 = s * s
    c2 = c * c
    at_hi = t_hi & ~t_lo  # t = 0 at hi
    d_lo = np.where(at_hi, other, m) * s2 + np.where(at_hi, L, 0.0) * c2
    d_hi = np.where(at_hi, m, other) * s2 + np.where(at_hi, 0.0, L) * c2
    q = np.where(d_lo <= d_hi, lo + d_lo, hi - d_hi)
    g = model.deflated_radicand(q, E, lo, hi, d_lo, d_hi, t_lo, t_hi)
    rad_dq = model.radicand_dq(q)
    # ds/dt = sqrt(J^2 + (p^2)'^2 J^2 / (4 p^2)) with J = dq/dt; J^2 over
    # the turning distances is 1 with two turning ends, 2 L c^2 with one
    J = m * s * c
    w = np.where(two, 1.0, 2.0 * L * c2)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope2 = np.where(g > 0.0, rad_dq * rad_dq * w / (4.0 * g), 0.0)
    return np.sqrt(J * J + slope2)


def _gk_panels(model, rows, r, a, b):
    """Kronrod values and QUADPACK error estimates of the panels [a, b] of
    rows r, in calls of at most ``_CHUNK_ELEMS`` nodes."""
    k = np.empty(r.size)
    err = np.empty(r.size)
    step = _CHUNK_ELEMS // _X15.size
    for i in range(0, r.size, step):
        sl = slice(i, i + step)
        half = 0.5 * (b[sl] - a[sl])
        f = _integrand(model, [col[r[sl], None] for col in rows],
                       (a[sl] + half)[:, None] + half[:, None] * _X15)
        kf = np.sum(f * _W15, axis=1)
        diff = half * np.abs(kf - np.sum(f[:, 1::2] * _W7, axis=1))
        asc = half * np.sum(np.abs(f - 0.5 * kf[:, None]) * _W15, axis=1)
        k[sl] = half * kf
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.where((asc > 0.0) & (diff > 0.0),
                         asc * np.minimum(1.0, (200.0 * diff / asc) ** 1.5), diff)
        # f >= 0, so |k| is QUADPACK's resabs: the roundoff floor
        err[sl] = np.maximum(e, 50.0 * _EPS * np.abs(k[sl]))
    return k, err


def _seed_counts(model, E, lo, hi, f_lo, f_hi):
    """Half-decade seeds toward the lo and hi end of every row: down to a
    tenth of the larger of the end's distance from its nearest saddle and
    sqrt(|E - E_saddle|); none toward a truncation."""
    counts = []
    for x, flag in ((lo, f_lo), (hi, f_hi)):
        n = np.zeros(E.size, dtype=np.intp)
        if model.saddles:
            S = np.asarray(model.saddles, dtype=np.float64)
            e_s = np.asarray(model.energy(S, np.zeros_like(S)), dtype=np.float64)
            k = np.argmin(np.abs(x[:, None] - S), axis=1)
            floor = 0.1 * np.maximum(np.abs(x - S[k]), np.sqrt(np.abs(E - e_s[k])))
            with np.errstate(divide="ignore"):
                c = np.floor(2.0 * np.log10((hi - lo) / floor))
            n = np.clip(np.nan_to_num(c, posinf=_MAX_SEEDS), 0, _MAX_SEEDS).astype(np.intp)
            n[flag == TRUNCATION] = 0
        counts.append(n)
    return counts


def _seed_points(lo, hi, t_lo, t_hi, n_lo, n_hi):
    """Sorted panel breakpoints of rows, (rows, points), NaN-padded: the
    ends of the row's variable and its seeds at the distances
    L * 10^(-k/2), k = 1 ... n, from an end."""
    L = (hi - lo)[:, None]
    two = (t_lo & t_hi)[:, None]
    one = (t_lo ^ t_hi)[:, None]
    k = np.arange(1, max(n_lo.max(), n_hi.max()) + 1)
    u = 10.0 ** (-0.5 * k)
    # the variable at distance u L from an end: d = L s^2 with two turning
    # ends; with one, d = 2 L s^2 from it and d = L cos t from the other
    both = 2.0 * np.arcsin(np.sqrt(u))
    turn = 2.0 * np.arcsin(np.sqrt(0.5 * u))
    far = np.arccos(u)
    from_lo = np.where(one, np.where(t_lo[:, None], turn, far), lo[:, None] + u * L)
    from_lo = np.where(two, both, from_lo)
    from_hi = np.where(one, np.where(t_hi[:, None], turn, far), hi[:, None] - u * L)
    from_hi = np.where(two, math.pi - both, from_hi)
    pts = np.concatenate([
        np.where(one | two, 0.0, lo[:, None]),
        np.where(two, math.pi, np.where(one, 0.5 * math.pi, hi[:, None])),
        np.where(k <= n_lo[:, None], from_lo, np.nan),
        np.where(k <= n_hi[:, None], from_hi, np.nan)], axis=1)
    return np.sort(pts, axis=1)[:, :2 + (n_lo + n_hi).max()]


class _Chunk:
    """Panels of a set of rows: (rows x slots) arrays, slot j < n[i] live."""

    fields = ("ids", "rows", "a", "b", "val", "err", "depth", "n",
              "total", "total_err", "evals")

    def __init__(self, **kw):
        for name in self.fields:
            setattr(self, name, kw[name])

    def take(self, sel):
        kw = {name: getattr(self, name)[sel] for name in self.fields if name != "rows"}
        kw["rows"] = [col[sel] for col in self.rows]
        return _Chunk(**kw)

    def widen(self, slots):
        extra = slots - self.a.shape[1]
        pad = lambda x, v: np.pad(x, ((0, 0), (0, extra)), constant_values=v)
        self.a, self.b, self.val = pad(self.a, 0.0), pad(self.b, 0.0), pad(self.val, 0.0)
        self.err, self.depth = pad(self.err, -1.0), pad(self.depth, 0)


def _refine(model, ch, cfg, out):
    """Split worst panels round by round until every row of the chunk stops;
    results go to ``out`` = (value, est, evaluations, converged) by row id."""
    # every split adds a panel to its row, so no panel gets deeper than
    # _MAX_PANELS; the cap keeps the stored depth in range for any max_levels
    cap = min(cfg.max_levels, _MAX_PANELS)
    while ch.ids.size:
        done = ch.total_err <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(ch.total))
        key = np.where(ch.depth < cap, ch.err, -1.0)
        j = np.argmax(key, axis=1)
        r = np.arange(ch.ids.size)
        stop = done | (key[r, j] < 0.0) | (ch.n >= _MAX_PANELS)
        if stop.any():
            i = ch.ids[stop]
            for dst, src in zip(out, (ch.total, ch.total_err, ch.evals, done)):
                dst[i] = src[stop]
            keep = ~stop
            ch, j, r = ch.take(keep), j[keep], r[:np.count_nonzero(keep)]
            if not ch.ids.size:
                return
        slots = ch.a.shape[1]
        if (ch.n >= slots).any():
            slots = min(2 * slots, _MAX_PANELS)
            if ch.ids.size > 1 and ch.ids.size * max(slots, 30) > _CHUNK_ELEMS:
                half = ch.ids.size // 2
                for sel in (slice(0, half), slice(half, None)):
                    _refine(model, ch.take(sel), cfg, out)
                return
            ch.widen(slots)
        a, b = ch.a[r, j], ch.b[r, j]
        mid = a + 0.5 * (b - a)
        ok = (a < mid) & (mid < b)
        # a panel at floating-point resolution is never split; its error
        # stays in the total
        ch.depth[r[~ok], j[~ok]] = cap
        r, j, a, b, mid = r[ok], j[ok], a[ok], b[ok], mid[ok]
        if not r.size:
            continue
        k, e = _gk_panels(model, ch.rows, np.concatenate([r, r]),
                          np.concatenate([a, mid]), np.concatenate([mid, b]))
        k1, k2 = np.split(k, 2)
        e1, e2 = np.split(e, 2)
        ch.total[r] += (k1 + k2) - ch.val[r, j]
        ch.total_err[r] += (e1 + e2) - ch.err[r, j]
        ch.evals[r] += 2 * _X15.size
        depth = ch.depth[r, j] + 1
        n = ch.n[r]
        ch.b[r, j], ch.val[r, j], ch.err[r, j], ch.depth[r, j] = mid, k1, e1, depth
        ch.a[r, n], ch.b[r, n], ch.val[r, n], ch.err[r, n], ch.depth[r, n] = (
            mid, b, k2, e2, depth)
        ch.n[r] += 1


def arclength_rows(model, E, lo, hi, f_lo, f_hi, cfg=None):
    """Arc lengths of the nonnegative branch over many intervals at once.

    Row i is the interval [lo[i], hi[i]] at energy E[i] with the endpoint
    flags ``f_lo[i]``, ``f_hi[i]`` (REGULAR, TURNING or TRUNCATION) from
    the model's domain rows; turning-point endpoints put a row in the
    cosine variable. Intervals must have lo < hi. The integrand is only
    evaluated at interior nodes of [lo, hi]. Returns per-row arrays (value,
    est_error, evaluations, converged).
    """
    if cfg is None:
        cfg = QuadratureConfig()
    E, lo, hi = (np.asarray(x, dtype=np.float64).reshape(-1) for x in (E, lo, hi))
    f_lo, f_hi = (np.asarray(f).reshape(-1) for f in (f_lo, f_hi))
    t_lo, t_hi = f_lo == TURNING, f_hi == TURNING
    out = (np.empty(E.size), np.empty(E.size), np.zeros(E.size, dtype=np.int64),
           np.zeros(E.size, dtype=bool))
    if not E.size:
        return out
    rows = [E, lo, hi, t_lo, t_hi]
    n_lo, n_hi = _seed_counts(model, E, lo, hi, f_lo, f_hi)
    n = 1 + n_lo + n_hi  # seed panels per row
    step = max(1, _CHUNK_ELEMS // max(int(n.max()) + 1, 30))
    for i in range(0, E.size, step):
        sl = slice(i, i + step)
        pts = _seed_points(lo[sl], hi[sl], t_lo[sl], t_hi[sl], n_lo[sl], n_hi[sl])
        a, b = pts[:, :-1], pts[:, 1:]
        live = ~np.isnan(b)
        r, j = np.nonzero(live)
        k, e = _gk_panels(model, [col[sl] for col in rows], r, a[live], b[live])
        val = np.zeros(a.shape)
        err = np.full(a.shape, -1.0)
        val[r, j], err[r, j] = k, e
        # running totals from 0.0 in panel order, the same for any chunk
        total = np.zeros(a.shape[0])
        total_err = np.zeros(a.shape[0])
        for col in range(a.shape[1]):
            total += val[:, col]
            total_err += np.maximum(err[:, col], 0.0)
        ch = _Chunk(ids=np.arange(E.size)[sl], rows=[col[sl] for col in rows],
                    a=np.where(live, a, 0.0), b=np.where(live, b, 0.0), val=val,
                    err=err, depth=np.zeros(a.shape, dtype=np.int16), n=n[sl].copy(),
                    total=total, total_err=total_err,
                    evals=n[sl].astype(np.int64) * _X15.size)
        _refine(model, ch, cfg, out)
    return out


def arclength_interval(model, E, interval, flags=(REGULAR, REGULAR), cfg=None):
    """Arc length of the nonnegative branch over one interval.

    ``flags`` are the row's endpoint flags, the codes REGULAR, TURNING
    and TRUNCATION of :meth:`HamiltonianModel.domain`'s rows (as
    ``rows.pairs()`` gives them); turning-point endpoints put the integral
    in the cosine variable. A batch of one row of :func:`arclength_rows`.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if lo >= hi:
        raise InvalidInterval(f"interval [{lo}, {hi}] has lo >= hi")
    value, est, evals, conv = arclength_rows(model, [E], [lo], [hi], flags[:1], flags[1:], cfg)
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
