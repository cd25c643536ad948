"""Level-curve arc length ell(E), its energy derivative, and landscapes.

``ell_batch`` assembles the full level-curve lengths of many energies:
one :meth:`HamiltonianModel.domains` call builds the quadrature rows (every
domain panel of every energy, as flat arrays), one batched quadrature run
(:func:`quadrature.arclength_rows`) integrates them, and per-energy sums
apply the model's symmetry multiplier. Each energy's result depends on that
energy alone, so a batch equals its parts bit for bit. ``ell`` is a batch
of one energy, and a landscape without derivatives is one batch.

``_ell_function`` is the one ell(E) function behind maps, landscapes with
derivatives (their values, mask and errors too), ``dell_dE`` and rate
ladders: ell as a certified piecewise-Chebyshev function of u =
sqrt(|E - b|) beside each breakpoint b, whose panels give d ell/dE from
their barycentric differentiation matrix. The derivative is undefined
(NaN, or ``StraddlesCritical`` from ``dell_dE``) exactly at the breakpoints.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInterval, StraddlesCritical
from .models import FLAG_NAMES, DomainRows
from .quadrature import QuadratureConfig, arclength_rows


@dataclass
class EllInfo:
    est_error: float
    evaluations: int
    converged: bool


@dataclass
class EllBatch:
    """Per-energy results of :func:`ell_batch`.

    ``errors[i]`` is the :class:`LdkitError` energy i raised, else None; an
    energy that raised has NaN value and error, 0 evaluations and is not
    converged.
    """

    values: np.ndarray
    est_error: np.ndarray
    evaluations: np.ndarray
    converged: np.ndarray
    errors: list

    def raise_first(self):
        """Raise the first energy's error, in batch order, if any."""
        for exc in self.errors:
            if exc is not None:
                raise exc


@dataclass
class Landscape:
    """Sampled (E, ell(E)) arrays, their ``converged`` flags and, with
    derivatives, d ell/dE (see :func:`landscape`)."""

    energies: np.ndarray
    lengths: np.ndarray
    derivs: Optional[np.ndarray] = None
    converged: Optional[np.ndarray] = None


def _panels(model, E, dom):
    """Quadrature panels of one energy's :class:`EnergyDomain`: its
    intervals split at the saddles inside them, as ``((lo, hi), (lo_flag,
    hi_flag))`` with flag names; the rows of :meth:`HamiltonianModel.domains`
    for a batch of one."""
    lo, hi = (np.array([iv[k] for iv in dom.intervals], dtype=np.float64) for k in (0, 1))
    f_lo, f_hi = (np.array([FLAG_NAMES.index(f[k]) for f in dom.flags], dtype=np.int8)
                  for k in (0, 1))
    rows = DomainRows(np.zeros(lo.size, dtype=np.intp), lo, hi, f_lo, f_hi, [None])
    rows = model._split_at_saddles(np.array([E], dtype=np.float64), rows)
    for a, b, fa, fb in zip(rows.lo.tolist(), rows.hi.tolist(),
                            rows.f_lo.tolist(), rows.f_hi.tolist()):
        yield (a, b), (FLAG_NAMES[fa], FLAG_NAMES[fb])


def ell_batch(model, energies, trunc=None, cfg=None):
    """Total arc lengths of the level curves H = E for many energies at
    once: one domains call and one quadrature run (see the module
    docstring). Domain errors are returned per energy in ``errors``, and
    unconverged quadrature through ``converged``; neither is raised."""
    energies = np.asarray(energies, dtype=np.float64).reshape(-1)
    n = energies.size
    rows = model.domains(energies, trunc)
    errors = list(rows.errors)
    bad = rows.lo >= rows.hi
    if bad.any():
        for i, lo, hi in zip(rows.owner[bad].tolist(), rows.lo[bad].tolist(),
                             rows.hi[bad].tolist()):
            if errors[i] is None:
                errors[i] = InvalidInterval(f"interval [{lo}, {hi}] has lo >= hi")
        failed = np.zeros(n, dtype=bool)
        failed[rows.owner[bad]] = True
        rows = rows.take(~failed[rows.owner])
    owner = rows.owner
    value, est, evals, conv = arclength_rows(model, energies[owner], rows.lo, rows.hi,
                                             rows.f_lo, rows.f_hi, cfg)
    # per-energy sums in panel order, as a running total from 0.0
    total = np.zeros(n)
    err = np.zeros(n)
    np.add.at(total, owner, value)
    np.add.at(err, owner, est)
    evaluations = np.zeros(n, dtype=np.int64)
    np.add.at(evaluations, owner, evals)
    converged = np.ones(n, dtype=bool)
    converged[owner[~conv]] = False
    failed = np.array([e is not None for e in errors], dtype=bool)
    total[failed] = err[failed] = math.nan
    converged[failed] = False
    return EllBatch(total * model.multiplier, err * model.multiplier,
                    evaluations, converged, errors)


def ell(model, E, trunc=None, cfg=None, full_output=False):
    """Total arc length of the level curve H = E.

    Returns the length alone, or ``(length, EllInfo)`` with
    ``full_output=True``. Unconverged quadrature is reported through the
    info flag, never raised. A batch of one energy of :func:`ell_batch`.
    """
    b = ell_batch(model, [E], trunc, cfg)
    b.raise_first()
    total = float(b.values[0])
    if full_output:
        return total, EllInfo(float(b.est_error[0]), int(b.evaluations[0]),
                              bool(b.converged[0]))
    return total


# the lattice of a side in u = sqrt(|E - b|): panels graded by _RATIO toward
# b down to _FLOOR of the side's extent, one on to u = 0, and doubling past
# the extent; each has _N + 1 Chebyshev points of the second kind (_T, on
# [0, 1] from 1 down to 0)
_N, _RATIO, _FLOOR, _MAX_SPLITS = 16, 0.25, 1e-9, 8
_INNER = _RATIO ** np.arange(math.ceil(math.log(_FLOOR, _RATIO)), 0, -1)
_T = 0.5 + 0.5 * np.cos(np.pi * np.arange(_N + 1) / _N)


def _ell_function(model, energies, trunc, cfg, derivs=False):
    """ell(E) as a certified piecewise-Chebyshev function of energy.

    Returns ``(values, mask, d, errors)`` at the energies: the length,
    whether it is valid, with ``derivs`` d ell/dE (else None), and the
    :class:`LdkitError` ``ell_batch`` returned for it (else None).

    An energy belongs to its nearest breakpoint b of
    :meth:`HamiltonianModel.breakpoints`, on its own side, and to a panel of
    that side's lattice in u = sqrt(|E - b|). Each round evaluates the 17
    Chebyshev points of every panel holding an energy in one ``ell_batch``.
    A panel interpolates in the u of the energies it really evaluated
    (b +/- u^2 rounds), with those points' barycentric weights. It is
    bisected while its nested 9-point interpolant misses the other 8 values
    by more than max(abs_tol, rel_tol |ell|) of ``cfg``; once it meets them
    its energies are interpolated barycentrically (Berrut & Trefethen,
    SIAM Rev. 46 (2004) 501), and d ell/dE = +/-(d ell/du) / (2u)
    interpolates the panel's differentiation matrix applied to its values.
    Breakpoints and non-finite energies are evaluated directly in the first
    round's batch, and the energies of a panel with a value that raised or
    did not converge, with points that rounded together, or that still
    misses after ``_MAX_SPLITS`` bisections in one last batch; a direct
    energy is valid exactly where it converges and gets no derivative
    (NaN). Domain errors hold on whole sides of a breakpoint, so only a
    direct energy has one. A panel depends on the model, ``trunc`` and
    ``cfg`` alone, so no result depends on the other energies, and an energy
    at a breakpoint b has the value ``ell(model, b)`` bit for bit.
    """
    cfg = cfg or QuadratureConfig()
    e, inverse = np.unique(np.asarray(energies, dtype=np.float64).reshape(-1),
                           return_inverse=True)
    values, mask = np.full(e.size, math.nan), np.zeros(e.size, dtype=bool)
    d, raised = np.full(e.size, math.nan), {}  # direct energies' errors by index
    B = model.breakpoints(trunc)
    direct = ~np.isfinite(e) | (B.size == 0) | np.isin(e, B)
    node = np.flatnonzero(~direct)
    # side 2i lies below B[i] and side 2i + 1 above it; a side's extent U is
    # the root of half the gap to the breakpoint beyond it (an outer side
    # takes the gap on its breakpoint's other side)
    mids = 0.5 * (B[:-1] + B[1:])
    i = np.searchsorted(mids, e[node])
    side = 2 * i + (e[node] >= B[i])
    u = np.sqrt(np.abs(e[node] - B[i]))
    h = 0.5 * np.diff(B)
    U = np.sqrt(np.r_[h[:1], h, h[-1:]] if h.size else np.ones(2))[(side + 1) // 2]
    # the lattice in u / U; e is sorted, so a panel's energies are one run
    t = u / U
    lattice = np.r_[0.0, _INNER, 2.0 ** np.arange(max(np.log2(t.max(initial=1.0)), 0.0) + 2)]
    # a lattice point belongs to the panel below it, so the midpoint between
    # two breakpoints (t = 1) stays in a panel on its side
    k = np.clip(np.searchsorted(lattice, t) - 1, 0, lattice.size - 2)
    a, b = U * lattice[k], U * lattice[k + 1]
    panels = [(side[ix[0]], a[ix[0]], b[ix[0]], ix) for ix in np.split(
        np.arange(node.size), np.flatnonzero(np.diff(side) | np.diff(k)) + 1) if ix.size]
    for depth in range(_MAX_SPLITS + 1):
        if not panels:
            break
        s, a, b = (np.array([p[j] for p in panels]) for j in range(3))
        bp, sign = B[s // 2, None], np.where(s % 2, 1.0, -1.0)
        pts = a[:, None] * (1.0 - _T) + b[:, None] * _T
        E = bp + sign[:, None] * pts * pts
        # round 0 also evaluates the energies known to be direct from the start
        first = direct & (depth == 0)
        energies, at = np.unique(np.r_[E.ravel(), e[first]], return_inverse=True)
        res = ell_batch(model, energies, trunc, cfg)
        values[first], mask[first] = res.values[at[E.size:]], res.converged[at[E.size:]]
        raised.update(zip(np.flatnonzero(first).tolist(), [res.errors[j] for j in at[E.size:]]))
        direct, at = direct & ~first, at[:E.size]
        F = res.values[at].reshape(pts.shape)
        # the points' own u: beside a breakpoint b +/- u^2 rounds, and points
        # that rounded together cannot be interpolated through
        x = _unit(np.sqrt(np.abs(E - bp)), a[:, None], b[:, None])
        ok = (res.converged[at].reshape(pts.shape).all(axis=1)
              & (np.diff(x, axis=1) < 0.0).all(axis=1))
        w = _weights(x)
        # the nested interpolant through the even points, at the odd ones
        even = (x[:, ::2], _weights(x[:, ::2]), F[:, ::2])
        xe, we, fe = (np.repeat(v, _N // 2, axis=0).T for v in even)
        nested, = _barycentric(xe, we, x[:, 1::2].ravel(), fe)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(F[:, 1::2]))
        good = ok & (np.abs(nested.reshape(-1, _N // 2) - F[:, 1::2]) <= tol).all(axis=1)
        dF = _differentiate(x, w, F) if derivs else F
        split = []
        for (sj, aj, bj, ix), sg, xj, wj, f, g, ok_j, good_j in zip(panels, sign, x, w, F, dF,
                                                                 ok, good):
            if good_j:
                cols = (f, g) if derivs else (f,)
                fs = _barycentric(xj[:, None], wj[:, None], _unit(u[ix], aj, bj),
                                  *(c[:, None] for c in cols))
                values[node[ix]], mask[node[ix]] = fs[0], True
                if derivs:
                    # dE/du = +/-2u and dx/du = 2/(bj - aj)
                    d[node[ix]] = sg * fs[1] / ((bj - aj) * u[ix])
            elif ok_j and depth < _MAX_SPLITS:
                m = 0.5 * (aj + bj)
                low = u[ix] <= m
                split += [(sj, *c) for c in ((aj, m, ix[low]), (m, bj, ix[~low])) if c[2].size]
            else:
                direct[node[ix]] = True
        panels = split
    if direct.any():
        res = ell_batch(model, e[direct], trunc, cfg)
        values[direct], mask[direct] = res.values, res.converged
        raised.update(zip(np.flatnonzero(direct).tolist(), res.errors))
    errors = ([raised.get(i) for i in inverse.tolist()] if any(raised.values())
              else [None] * inverse.size)
    return values[inverse], mask[inverse], d[inverse] if derivs else None, errors


def _unit(u, a, b):
    """u in [a, b] mapped onto [-1, 1]."""
    return ((u - a) - (b - u)) / (b - a)


def _weights(x):
    """Barycentric weights 1 / prod_{k != j} (x_j - x_k) of each row's points."""
    diff = x[:, :, None] - x[:, None, :]
    diff[:, np.arange(x.shape[1]), np.arange(x.shape[1])] = 1.0
    with np.errstate(divide="ignore"):
        return 1.0 / diff.prod(axis=-1)


def _differentiate(x, w, F):
    """Each row's interpolant's derivative at its points: the barycentric
    differentiation matrix D_ij = (w_j / w_i) / (x_i - x_j), with D_ii the
    negative sum of the row's others, applied as sum_j D_ij (F_j - F_i)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        D = (w[:, None, :] / w[:, :, None]) / (x[:, :, None] - x[:, None, :])
    D[:, np.arange(x.shape[1]), np.arange(x.shape[1])] = 0.0
    return (D * (F[:, None, :] - F[:, :, None])).sum(axis=-1)


def _barycentric(xn, w, x, *fs):
    """At each point x[i], the interpolant of each f in fs through the
    values f[:, i] at the points xn[:, i] with barycentric weights w[:, i];
    exactly f[j, i] at x[i] = xn[j, i]. Arguments of one column serve every
    point."""
    with np.errstate(divide="ignore", invalid="ignore"):
        c = w / (x - xn)
        # node by node from 0.0: a reduction over the node axis may sum
        # pairwise, which moves bits
        den, *nums = (np.zeros(x.shape) for _ in range(len(fs) + 1))
        for total, terms in zip((den, *nums), (c, *(c * f for f in fs))):
            for t in terms:
                total += t
        outs = [num / den for num in nums]
    # at a point, its term is infinite
    hit = np.flatnonzero(np.isinf(den))
    if hit.size:
        xn, *fs = np.broadcast_arrays(xn, *fs, x[None])[:-1]
        j = (xn[:, hit] == x[hit]).argmax(axis=0)
        for out, f in zip(outs, fs):
            out[hit] = f[j, hit]
    return outs


def dell_dE(model, E, trunc=None, h=None, cfg=None):
    """d(ell)/dE from the certified panel of E (see :func:`_ell_function`);
    NaN where that panel is not certified. ``h`` is accepted and ignored.

    Raises :class:`StraddlesCritical` at a breakpoint of
    :meth:`HamiltonianModel.breakpoints`, and the model's error where E has
    no level curve.
    """
    if np.isin(E, model.breakpoints(trunc)):
        raise StraddlesCritical(f"derivative undefined at the breakpoint E={E}")
    _, _, d, (exc,) = _ell_function(model, [E], trunc, cfg, derivs=True)
    if exc is not None:
        raise exc
    return float(d[0])


def landscape(model, e_lo, e_hi, n, trunc=None, with_derivs=False, cfg=None):
    """Uniform ell(E) samples on [e_lo, e_hi], with the separatrix energy
    inserted when strictly inside. The samples are one :func:`ell_batch`;
    with ``with_derivs``, one :func:`_ell_function` pass, whose mask is
    ``converged`` and whose d ell/dE is NaN at a breakpoint and where a
    panel is not certified. Raises the first sample's error, if any.
    """
    e_sx = model.critical_energies()[1]
    if not e_lo < e_hi:
        raise ValueError("need e_lo < e_hi")
    if not (math.isfinite(e_lo) and math.isfinite(e_hi)):
        raise ValueError("energy range must be finite")
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError("need an integer count >= 2 of samples")

    energies = np.linspace(e_lo, e_hi, n)
    if math.isfinite(e_sx) and e_lo < e_sx < e_hi and not np.any(energies == e_sx):
        energies = np.sort(np.append(energies, e_sx))
    if with_derivs:
        lengths, converged, derivs, errors = _ell_function(model, energies, trunc, cfg,
                                                           derivs=True)
    else:
        b = ell_batch(model, energies, trunc, cfg)
        lengths, converged, derivs, errors = b.values, b.converged, None, b.errors
    for exc in filter(None, errors):
        raise exc
    return Landscape(energies, lengths, derivs, converged)


def ray_arc_factor(lam, q):
    """Arc-length growth factor of level curves crossed by the ray p = lam*q.

    Continuous extension 0 at q = 0; equals pi/lam at q = pi. Numerically
    nondecreasing on [0, pi] for any positive slope, which is what makes
    level-curve lengths grow monotonically with energy inside the pendulum
    cat's eye.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("slope must be finite and positive")
    q = np.asarray(q, dtype=np.float64)
    s = np.sin(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = q * np.sqrt(q * q * lam * lam + s * s) / (lam * lam * q + s)
    out = np.where(q == 0.0, 0.0, out)
    return out if out.ndim else float(out)
