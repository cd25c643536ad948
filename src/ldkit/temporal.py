"""Temporal Lagrangian descriptors: trajectory arc length over a time window.

The flow is integrated with an adaptive Dormand-Prince 5(4) stepper carrying
the arc length as an augmented state component, so the step-size control
bounds the error of the descriptor itself. The forward piece integrates the
vector field from the initial condition over [0, t]; the backward piece is
the time-reversed flow over the same window. No deviation vectors are
involved anywhere: the descriptor is orbit-based only.

Every model is H = αp² + V(q), which is time-reversal symmetric, so the
backward piece from (q, p) is the forward piece from (q, −p), bit for bit;
both steppers run forward only. A single initial condition
(:func:`temporal_ld`) runs the scalar stepper on its start and its mirror.
Lines (:func:`ld_landscape_line`) and grids (``maps.temporal_map``) run only
the batched stepper, once over all their initial conditions and mirrors; a
lane stopped early keeps its own partial values. Each distinct
start runs once, so a grid symmetric in p integrates one lane per node, not
two. The pendulum, Duffing, oscillator and repulsor have an even V, so the
lane from (−q, −p) is the lane from (q, p) reflected through the origin,
and a grid symmetric about the origin runs one lane per two nodes. Each
lane does the scalar stepper's arithmetic on its own values only, so its
result does not depend on which other initial conditions share the batch.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels as K


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = np.inf
    max_steps: int = 10_000_000

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):  # NaN too
            raise ValueError("tolerances must be positive")
        if not self.max_step > 0.0:  # NaN too
            raise ValueError("max_step must be positive")
        if not (isinstance(self.max_steps, (int, np.integer)) and self.max_steps >= 1):
            raise ValueError("max_steps must be an integer >= 1")


@dataclass
class LdResult:
    total: float
    plus: float
    minus: float
    status_plus: int = K.STATUS_OK
    status_minus: int = K.STATUS_OK
    steps_plus: int = 0  # attempted DP5(4) steps of each piece
    steps_minus: int = 0

    @property
    def ok(self):
        return self.status_plus == K.STATUS_OK and self.status_minus == K.STATUS_OK


@dataclass(frozen=True)
class LineSpec:
    """One-dimensional sweep: hold ``fixed`` ('q' or 'p') at ``value`` and vary
    the other coordinate over [lo, hi] with n samples."""

    fixed: str
    value: float
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.fixed not in ("q", "p"):
            raise ValueError("fixed coordinate must be 'q' or 'p'")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError("need an integer count >= 2 of samples")
        if not np.isfinite([self.value, self.lo, self.hi]).all():
            raise ValueError("line value and range must be finite")


@dataclass
class LdLine:
    coords: np.ndarray
    total: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    status: np.ndarray
    steps: np.ndarray  # attempted DP5(4) steps, both pieces together


def temporal_ld(model, x0, t, cfg=None):
    """Arc length of the trajectory through ``x0`` over the window [-t, t].

    Returns an :class:`LdResult` with the forward piece (over [0, t]), the
    backward piece (the time-reversed flow over [0, t]), their sum and the
    attempted steps of each piece. Blow-up (unbounded models) and
    step-limit conditions are flagged, not raised, and leave partial values
    in place.
    """
    if not 0.0 < t < np.inf:  # NaN too
        raise ValueError("horizon t must be positive and finite")
    if cfg is None:
        cfg = IntegratorConfig()
    q0, p0 = float(x0[0]), float(x0[1])
    opts = (float(t), cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.max_steps)
    plus, _, _, st_p, n_p = K.dp45_arclength(model, q0, p0, *opts, False)
    minus, _, _, st_m, n_m = K.dp45_arclength(model, q0, p0, *opts, True)
    return LdResult(plus + minus, plus, minus, st_p, st_m, n_p, n_m)


def _ld_lanes(model, q0, p0, t, cfg):
    """Forward and backward pieces of every ``(q0[i], p0[i])``, all run forward.

    The backward piece from (q, p) is the forward piece from (q, −p): the
    field's q row is odd in p and its p row does not depend on p
    (``HamiltonianModel.vector_field``), so the mirrored lane computes the
    same step sizes, error norms, arc lengths and q rows, and exactly the
    negated p rows (a zero may change sign, which no magnitude sees). The
    field of a ``point_symmetric`` model is odd in (q, p), so likewise the
    lane from (−q, −p) mirrors the lane from (q, p); such a model reflects
    every start with q < 0, or q = 0 and p < 0, and reads a −0.0 q as +0.0.
    The 2n starts (q, p) and (q, −p), with a −0.0 p read as +0.0, are
    integrated once per distinct start (compared by their bits) and mapped
    back with the inverse index; on a grid symmetric in p that is n lanes,
    not 2n, and about n/2 for such a model if q is symmetric too.

    Returns arrays (plus, minus, status_plus, status_minus, steps_plus,
    steps_minus), each piece as its own lane left it. A lane that runs the
    whole window matches :func:`temporal_ld` to ~1e-12 relative or better.
    A lane stopped early (blow-up, step limit) stops where its step sizes
    add up to, which last-bit differences between numpy and ``math`` can
    move (see :func:`_kernels.dp45_lanes`): its partial value can differ
    from :func:`temporal_ld`'s by ~1e-7 relative and its step count by a
    few steps.
    """
    if not 0.0 < t < np.inf:  # NaN too
        raise ValueError("horizon t must be positive and finite")
    if cfg is None:
        cfg = IntegratorConfig()
    n = q0.size
    starts = np.empty((2 * n, 2))
    starts[:n, 0] = starts[n:, 0] = q0
    starts[:n, 1] = p0
    starts[n:, 1] = -p0
    if model.point_symmetric:
        q, p = starts.T
        starts[(q < 0.0) | ((q == 0.0) & (p < 0.0))] *= -1.0
        starts[:, 0] += 0.0  # as p below
    starts[:, 1] += 0.0  # -0.0 + 0.0 is +0.0: one lane for both zeros
    lanes, inverse = np.unique(starts.view(np.uint64), axis=0, return_inverse=True)
    lanes = lanes.view(np.float64)
    opts = (float(t), cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.max_steps)
    s, _, _, status, nsteps = K.dp45_lanes(model.vector_field, lanes[:, 0],
                                           lanes[:, 1], *opts)
    s, status, nsteps = s[inverse], status[inverse], nsteps[inverse]
    return s[:n], s[n:], status[:n], status[n:], nsteps[:n], nsteps[n:]


def ld_landscape_line(model, line, t, cfg=None):
    """Temporal LD swept along a coordinate line, as one batched run."""
    coords = np.linspace(line.lo, line.hi, line.n)
    fixed = np.full(line.n, float(line.value))
    q0, p0 = (fixed, coords) if line.fixed == "q" else (coords, fixed)
    plus, minus, st_p, st_m, n_p, n_m = _ld_lanes(model, q0, p0, t, cfg)
    return LdLine(coords, plus + minus, plus, minus, np.maximum(st_p, st_m),
                  n_p + n_m)
