"""Level-curve arc length ell(E), its energy derivative, and landscapes.

``ell_batch`` assembles the full level-curve lengths of many energies:
one :meth:`HamiltonianModel.domains` call builds the quadrature rows (every
domain panel of every energy, as flat arrays), one batched quadrature run
(:func:`quadrature.arclength_rows`) integrates them, and per-energy sums
apply the model's symmetry multiplier. Each energy's result depends on that
energy alone, so a batch equals its parts bit for bit. ``ell`` and
``dell_dE`` are batches of one and two energies; ``landscape`` evaluates
all its samples and their difference points E +/- h in one batch.
``dell_dE`` central-differences ell with a step that shrinks with the
distance to the separatrix energy, so the divergence of the derivative near
critical energies can be sampled without differencing across the cusp; the
steps and their straddle tests are computed on arrays (``_dell_steps``),
for one energy or a whole landscape or ladder.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInterval, StraddlesCritical
from .models import FLAG_NAMES, DomainRows
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
    """Total arc lengths of the level curves H = E for many energies at once.

    The model builds every energy's quadrature rows in one
    :meth:`HamiltonianModel.domains` call, and one
    :func:`quadrature.arclength_rows` run integrates them. Domain errors
    are returned per energy in ``errors``; unconverged quadrature is
    reported through ``converged``, never raised.
    """
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


# why a central-difference step is invalid, by code (0: valid)
_AT_SEPARATRIX, _BELOW_MIN, _STRADDLES = 1, 2, 3


def _dell_steps(model, E, h=None):
    """Central-difference steps of :func:`dell_dE` at the energies E, and
    per energy a code: 0 where E +/- h is valid, else why not (E at the
    separatrix energy, E - h at or below the elliptic minimum, or the step
    straddling the separatrix energy, tested in that order).

    Without ``h`` the step shrinks with the distance to the separatrix
    energy, or with a model without one, to the minimum.
    """
    e_min, e_sx = model.critical_energies()
    E = np.asarray(E, dtype=np.float64)
    if h is None:
        if math.isfinite(e_sx):
            h = np.maximum(1e-6 * np.abs(E - e_sx), 1e-12)
        else:
            # no separatrix: the quadrature-noise floor dominates tiny steps,
            # so a larger proximity scale conditions the difference better
            d = np.abs(E - e_min) if math.isfinite(e_min) else np.abs(E)
            h = np.maximum(1e-3 * d, 1e-12)
    h = np.broadcast_to(np.asarray(h, dtype=np.float64), E.shape)
    straddles = np.zeros(E.shape, dtype=bool)
    if math.isfinite(e_sx):
        straddles = (((E - e_sx) * (E + h - e_sx) <= 0.0)
                     | ((E - e_sx) * (E - h - e_sx) <= 0.0))
    code = np.select([E == e_sx, E - h <= e_min, straddles],
                     [_AT_SEPARATRIX, _BELOW_MIN, _STRADDLES], 0)
    return h, code


def dell_dE(model, E, trunc=None, h=None, cfg=None):
    """Central difference d(ell)/dE with a proximity-scaled step.

    Raises :class:`StraddlesCritical` if E +/- h would cross the separatrix
    energy or fall below the elliptic minimum.
    """
    steps, code = _dell_steps(model, np.array([E], dtype=np.float64), h)
    h, code = float(steps[0]), int(code[0])
    if code == _AT_SEPARATRIX:
        raise StraddlesCritical("derivative undefined at the separatrix energy")
    if code == _BELOW_MIN:
        e_min = model.critical_energies()[0]
        raise StraddlesCritical(f"E-h={E - h} falls below e_min={e_min}")
    if code == _STRADDLES:
        raise StraddlesCritical("step straddles the separatrix energy")
    b = ell_batch(model, [E + h, E - h], trunc, cfg)
    b.raise_first()
    # the step E +/- h really spans, which rounding can move off 2h
    return (float(b.values[0]) - float(b.values[1])) / ((E + h) - (E - h))


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
    if with_derivs:
        h, code = _dell_steps(model, energies)
        deriv = code == 0
    else:
        deriv = np.zeros(energies.size, dtype=bool)
    width = 1 + 2 * deriv
    at_sample = np.cumsum(width) - width
    plus = at_sample[deriv] + 1
    batch = np.empty(int(width.sum()))
    batch[at_sample] = energies
    if with_derivs:
        h = h[deriv]
        batch[plus] = energies[deriv] + h
        batch[plus + 1] = energies[deriv] - h
    b = ell_batch(model, batch, trunc, cfg)
    b.raise_first()
    derivs = None
    if with_derivs:
        derivs = np.full(energies.shape, math.nan)
        derivs[deriv] = ((b.values[plus] - b.values[plus + 1])
                         / (batch[plus] - batch[plus + 1]))
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
