"""Level-curve arc length ell(E), its energy derivative, and landscapes.

``ell_batch`` assembles the full level-curve lengths of many energies from
one batched quadrature run (:func:`quadrature.arclength_rows`) over every
domain panel of every energy, applying the model's symmetry multiplier.
Each energy's result depends on that energy alone, so a batch equals its
parts bit for bit. ``ell`` and ``dell_dE`` are batches of one and two
energies; ``landscape`` evaluates all its samples and their difference
points E +/- h in one batch. ``dell_dE`` central-differences ell with a step
that shrinks with the distance to the separatrix energy, so the divergence
of the derivative near critical energies can be sampled without
differencing across the cusp.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInterval, LdkitError, StraddlesCritical
from .quadrature import arclength_rows


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
    """Sampled (E, ell(E)) arrays; ``derivs`` holds NaN where the derivative is skipped."""

    energies: np.ndarray
    lengths: np.ndarray
    derivs: Optional[np.ndarray] = None
    converged: Optional[np.ndarray] = None


def _panels(model, E, dom):
    """Quadrature panels: domain intervals split at interior integrand breaks."""
    breaks = sorted(model.interior_breaks(E))
    for (lo, hi), (flo, fhi) in dom.pairs():
        cuts = [b for b in breaks if lo + 1e-12 < b < hi - 1e-12]
        if not cuts:
            yield (lo, hi), (flo, fhi)
            continue
        edges = [lo, *cuts, hi]
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            fa = flo if i == 0 else model._endpoint_flag(a, E)
            fb = fhi if i == len(edges) - 2 else model._endpoint_flag(b, E)
            yield (a, b), (fa, fb)


def ell_batch(model, energies, trunc=None, cfg=None):
    """Total arc lengths of the level curves H = E for many energies at once.

    Domain errors are caught per energy and returned in ``errors``;
    unconverged quadrature is reported through ``converged``, never raised.
    """
    energies = np.asarray(energies, dtype=np.float64).reshape(-1)
    n = energies.size
    errors = [None] * n
    owner, los, his, flags = [], [], [], []
    for i, E in enumerate(energies.tolist()):
        try:
            panels = list(_panels(model, E, model.domain(E, trunc)))
            for (lo, hi), _ in panels:
                if lo >= hi:
                    raise InvalidInterval(f"interval [{lo}, {hi}] has lo >= hi")
        except LdkitError as exc:
            errors[i] = exc
            continue
        for (lo, hi), fl in panels:
            owner.append(i)
            los.append(lo)
            his.append(hi)
            flags.append(fl)
    owner = np.array(owner, dtype=np.intp)
    value, est, evals, conv = arclength_rows(model, energies[owner], los, his,
                                             flags, cfg)
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


def _default_step(model, E):
    e_min, e_sx = model.critical_energies()
    if math.isfinite(e_sx):
        return max(1e-6 * abs(E - e_sx), 1e-12)
    # no separatrix: the quadrature-noise floor dominates tiny steps, so a
    # larger proximity scale conditions the difference better
    d = abs(E - e_min) if math.isfinite(e_min) else abs(E)
    return max(1e-3 * d, 1e-12)


def _dell_step(model, E, h=None):
    """The central-difference step of :func:`dell_dE` at E.

    Raises :class:`StraddlesCritical` if E +/- h would cross the separatrix
    energy or fall below the elliptic minimum.
    """
    e_min, e_sx = model.critical_energies()
    if E == e_sx:
        raise StraddlesCritical("derivative undefined at the separatrix energy")
    if h is None:
        h = _default_step(model, E)
    if E - h <= e_min:
        raise StraddlesCritical(f"E-h={E - h} falls below e_min={e_min}")
    if math.isfinite(e_sx) and (E - e_sx) * (E + h - e_sx) <= 0.0:
        raise StraddlesCritical("step straddles the separatrix energy")
    if math.isfinite(e_sx) and (E - e_sx) * (E - h - e_sx) <= 0.0:
        raise StraddlesCritical("step straddles the separatrix energy")
    return h


def dell_dE(model, E, trunc=None, h=None, cfg=None):
    """Central difference d(ell)/dE with a proximity-scaled step.

    Raises :class:`StraddlesCritical` if E +/- h would cross the separatrix
    energy or fall below the elliptic minimum.
    """
    h = _dell_step(model, E, h)
    b = ell_batch(model, [E + h, E - h], trunc, cfg)
    b.raise_first()
    return (float(b.values[0]) - float(b.values[1])) / (2.0 * h)


def landscape(model, e_lo, e_hi, n, trunc=None, with_derivs=False, cfg=None):
    """Uniform ell(E) samples on [e_lo, e_hi]; the separatrix energy is
    inserted as an explicit sample when it falls strictly inside the range.

    All samples and, with ``with_derivs``, their difference points E +/- h
    are one :func:`ell_batch`; a derivative whose step would straddle a
    critical energy stays NaN.
    """
    e_min, e_sx = model.critical_energies()
    if not e_lo < e_hi:
        raise ValueError("need e_lo < e_hi")
    if n < 2:
        raise ValueError("need at least two samples")
    if e_lo < e_min:
        # let the model raise its own error for a clearly bad range
        model.domain(e_lo, trunc)

    energies = np.linspace(e_lo, e_hi, int(n))
    if math.isfinite(e_sx) and e_lo < e_sx < e_hi and not np.any(energies == e_sx):
        energies = np.sort(np.append(energies, e_sx))

    # batch order: each sample, then its E + h and E - h if it has a derivative
    batch = []
    at_sample = []
    at_plus = []
    with_deriv = []
    steps = []
    for i, E in enumerate(energies.tolist()):
        at_sample.append(len(batch))
        batch.append(E)
        if with_derivs and E != e_sx:
            try:
                h = _dell_step(model, E)
            except StraddlesCritical:
                continue
            with_deriv.append(i)
            steps.append(h)
            at_plus.append(len(batch))
            batch += [E + h, E - h]
    b = ell_batch(model, batch, trunc, cfg)
    b.raise_first()
    derivs = None
    if with_derivs:
        derivs = np.full(energies.shape, math.nan)
        plus = np.array(at_plus, dtype=np.intp)
        derivs[with_deriv] = ((b.values[plus] - b.values[plus + 1])
                              / (2.0 * np.array(steps)))
    return Landscape(energies, b.values[at_sample], derivs, b.converged[at_sample])


def ray_arc_factor(lam, q):
    """Arc-length growth factor of level curves crossed by the ray p = lam*q.

    Continuous extension 0 at q = 0; equals pi/lam at q = pi. Numerically
    nondecreasing on [0, pi] for any positive slope, which is what makes
    level-curve lengths grow monotonically with energy inside the pendulum
    cat's eye.
    """
    if lam <= 0.0:
        raise ValueError("slope must be positive")
    q = np.asarray(q, dtype=np.float64)
    s = np.sin(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = q * np.sqrt(q * q * lam * lam + s * s) / (lam * lam * q + s)
    out = np.where(q == 0.0, 0.0, out)
    return out if out.ndim else float(out)
