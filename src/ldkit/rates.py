"""Power-law divergence rates of |d ell/dE| near critical energies.

A geometric ladder of distances eps = |E - E_c| is walked toward the
critical energy (separatrix or elliptic minimum) and |d ell/dE| is read at
each rung from the certified Chebyshev panels of ell(E)
(:func:`geometric._ell_function`); a report's ladders are one ell(E) pass.
The exponent is the asymptotic one, the limit E -> E_c: log|d ell/dE| is
fitted by least squares on log(eps) plus the leading corrections of the
critical point's expansion, so curvature that is real on the ladder is not
averaged into a secant slope.

* Near a hyperbolic point (separatrix) ell = l0 + a sqrt(eps)
  + b eps log(eps) + c eps + ..., so log|ell'| = alpha + beta log(eps)
  + gamma sqrt(eps) log(eps) + delta sqrt(eps) + ... with beta = -1/2.
* Near an elliptic minimum ell is proportional to sqrt(eps) (1 + O(eps)),
  which leaves a single eps correction.

The plain log-log OLS slope is kept next to it (``ols_slope``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, EmptyLadder, LdkitError
from .geometric import _ell_function

CRITICALS = ("separatrix", "elliptic")
SIDES = ("below", "above")


@dataclass(frozen=True)
class RateSample:
    eps: float
    deriv_abs: float


@dataclass
class RateLadder:
    """Kept samples, each from a certified panel. ``n_failed`` counts the
    samples omitted as failed, ``n_unconverged`` those omitted because
    their panel was not certified."""

    samples: list
    n_failed: int
    n_unconverged: int = 0


@dataclass
class RateFit:
    exponent: float
    intercept: float
    r_squared: float
    side: str = ""
    critical: str = ""
    n_samples: int = 0
    ols_slope: float = math.nan
    ols_r_squared: float = math.nan


# Correction regressors per critical type, each a function of eps, appended
# to [1, log(eps)]. Kept minimal: adding eps log(eps) and eps on the
# separatrix side makes the fit unstable on the fish-tail below approach.
_CORRECTIONS = {
    "": (),
    "separatrix": (lambda e: np.sqrt(e) * np.log(e), np.sqrt),
    "elliptic": (lambda e: e,),
}


def _ladder_energies(model, critical, side, eps_hi, eps_lo, pts_per_decade):
    """The ladder's distances eps, largest first, and its energies E."""
    if not 0.0 < eps_lo < eps_hi < math.inf:
        raise ValueError("need 0 < eps_lo < eps_hi < inf")
    if not 3 <= pts_per_decade < math.inf:
        raise ValueError("need at least 3 and finitely many points per decade")
    if critical not in CRITICALS:
        raise ValueError(f"critical must be one of {CRITICALS}")
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")

    e_min, e_sx = model.critical_energies()
    if critical == "separatrix":
        if not math.isfinite(e_sx):
            raise ValueError(f"{model.name} has no separatrix energy")
        e_c = e_sx
    else:
        if not math.isfinite(e_min):
            raise ValueError(f"{model.name} has no elliptic minimum energy")
        if side == "below":
            raise ValueError("no level curves below the elliptic minimum")
        e_c = e_min
    sign = -1.0 if side == "below" else 1.0

    decades = math.log10(eps_hi / eps_lo)
    n = int(round(pts_per_decade * decades)) + 1
    eps = np.geomspace(eps_hi, eps_lo, n)
    return eps, e_c + sign * eps


def _ladder(model, critical, side, trunc, eps, E, values, d, errors):
    """The :class:`RateLadder` of E from its ell values, derivatives and errors."""
    d = np.abs(d)
    kept = np.isfinite(d) & (d > 0.0)
    # a finite value without a derivative: its panel was not certified
    unconverged = np.isnan(d) & np.isfinite(values) & ~np.isin(E, model.breakpoints(trunc))
    samples = [RateSample(e, v) for e, v in zip(eps[kept].tolist(), d[kept].tolist())]
    n_unconverged = int(np.count_nonzero(unconverged))
    failed = ~kept & ~unconverged
    if not samples and failed.any():
        exc = errors[failed.argmax()]
        cause = "" if exc is None else f": {exc}"
        raise EmptyLadder(f"{model.name}: every {critical}/{side} sample failed{cause}")
    if not samples:
        raise EmptyLadder(f"{model.name}: none of the {n_unconverged} "
                          f"{critical}/{side} samples converged")
    return RateLadder(samples, int(np.count_nonzero(failed)), n_unconverged)


def sample_rates(model, critical, side, eps_hi=1e-2, eps_lo=1e-6,
                 pts_per_decade=25, trunc=None, cfg=None):
    """|d ell/dE| on a geometric eps ladder approaching a critical energy:
    one :func:`geometric._ell_function` call, the one-approach case of
    :func:`rate_report`. Failed samples (a breakpoint, a domain error, a
    zero derivative) and those of uncertified panels are left out and
    counted (:class:`RateLadder`); if every sample failed,
    :class:`EmptyLadder` names the error of the first one, if any.
    """
    eps, E = _ladder_energies(model, critical, side, eps_hi, eps_lo, pts_per_decade)
    values, _, d, errors = _ell_function(model, E, trunc, cfg, derivs=True)
    return _ladder(model, critical, side, trunc, eps, E, values, d, errors)


def _r_squared(y, resid):
    sst = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - float(np.sum(resid ** 2)) / sst if sst > 0.0 else 1.0


def _ols(x, y):
    """Slope, intercept and r^2 of the ordinary least-squares line y ~ x."""
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    return slope, intercept, _r_squared(y, y - (slope * x + intercept))


def fit_power_law(samples, critical="", side=""):
    """Asymptotic exponent of deriv_abs ~ eps**exponent as eps -> 0.

    One least-squares fit of log(deriv_abs) on the regressors chosen by
    ``critical``:

    * ``"separatrix"``: [1, log eps, sqrt(eps) log eps, sqrt(eps)];
    * ``"elliptic"``: [1, log eps, eps];
    * ``""``: [1, log eps], the plain log-log OLS line.

    ``exponent`` is the log(eps) coefficient, ``intercept`` the constant and
    ``r_squared`` the share of the variance of log(deriv_abs) that the fitted
    model explains. ``ols_slope`` / ``ols_r_squared`` are always those of the
    plain log-log line; without ``critical`` they equal ``exponent`` /
    ``r_squared``.
    """
    if critical not in _CORRECTIONS:
        raise ValueError(f"critical must be '' or one of {CRITICALS}")
    if len(samples) < 5:
        raise ValueError("need at least 5 samples to fit")
    eps = np.array([s.eps for s in samples])
    dv = np.array([s.deriv_abs for s in samples])
    if not np.all((0.0 < eps) & (eps < math.inf) & (0.0 < dv) & (dv < math.inf)):
        raise ValueError("every eps and deriv_abs must be finite and positive")
    if math.log10(eps.max() / eps.min()) < 1.0:
        raise DegenerateFit("eps values span less than one decade")
    x = np.log(eps)
    y = np.log(dv)
    ols_slope, ols_intercept, ols_r2 = _ols(x, y)
    corrections = _CORRECTIONS[critical]
    if corrections:
        design = np.column_stack([np.ones_like(x), x]
                                 + [f(eps) for f in corrections])
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        intercept, slope = float(coef[0]), float(coef[1])
        r2 = _r_squared(y, y - design @ coef)
    else:
        slope, intercept, r2 = ols_slope, ols_intercept, ols_r2
    return RateFit(slope, intercept, r2, side=side, critical=critical,
                   n_samples=len(samples), ols_slope=ols_slope,
                   ols_r_squared=ols_r2)


def local_slopes(samples):
    """OLS log-log slope of each whole decade of eps, largest eps first.

    Decades are counted down from the largest eps; a trailing part shorter
    than a decade is left out, and a decade with fewer than two samples
    gives None.
    """
    eps = np.array([s.eps for s in samples])
    dv = np.array([s.deriv_abs for s in samples])
    top = float(eps.max())
    span = math.log10(top / float(eps.min()))
    slopes = []
    for k in range(int(span + 1e-9)):
        hi = top * 10.0 ** -k * (1.0 + 1e-9)
        lo = top * 10.0 ** -(k + 1) * (1.0 - 1e-9)
        sel = (eps <= hi) & (eps >= lo)
        if np.count_nonzero(sel) < 2:
            slopes.append(None)
            continue
        slopes.append(float(_ols(np.log(eps[sel]), np.log(dv[sel]))[0]))
    return slopes


def approaches(model):
    """The (critical, side) approaches of :func:`rate_report`, in its order:
    the separatrix from below and above, and the elliptic minimum from
    above, where the model has that critical energy."""
    e_min, e_sx = model.critical_energies()
    out = [("separatrix", "below"), ("separatrix", "above")] if math.isfinite(e_sx) else []
    return out + ([("elliptic", "above")] if math.isfinite(e_min) else [])


def rate_report(model, trunc=None, cfg=None, eps_hi=1e-2, eps_lo=1e-6,
                pts_per_decade=25):
    """Fits for every critical-energy approach the model supports.

    The valid ladders are one :func:`geometric._ell_function` call, so they
    share its panel rounds; a panel depends only on the model, ``trunc`` and
    ``cfg``, so each entry equals its own :func:`sample_rates` fit. Returns a
    JSON-ready dict; entries that fail carry an ``error`` field instead of
    fit numbers (partial reports are allowed).
    """
    fits, pending = [], []
    for critical, side in approaches(model):
        entry = {"critical": critical, "side": side}
        try:
            pending.append((entry, critical, side, *_ladder_energies(
                model, critical, side, eps_hi, eps_lo, pts_per_decade)))
        except ValueError as exc:
            entry["error"] = str(exc)
        fits.append(entry)
    if pending:
        try:
            values, _, d, errors = _ell_function(
                model, np.concatenate([p[-1] for p in pending]), trunc, cfg, derivs=True)
        except (LdkitError, ValueError) as exc:
            for entry, *_ in pending:
                entry["error"] = str(exc)
            pending = []
    stop = 0
    for entry, critical, side, eps, E in pending:
        start, stop = stop, stop + E.size
        try:
            ladder = _ladder(model, critical, side, trunc, eps, E, values[start:stop],
                             d[start:stop], errors[start:stop])
            fit = fit_power_law(ladder.samples, critical=critical, side=side)
        except (LdkitError, ValueError) as exc:
            entry["error"] = str(exc)
        else:
            entry.update(
                exponent=fit.exponent,
                intercept=float(fit.intercept),
                r2=fit.r_squared,
                n_samples=fit.n_samples,
                ols_slope=fit.ols_slope,
                ols_r2=fit.ols_r_squared,
                local_slopes=local_slopes(ladder.samples),
            )
    return {
        "model": model.name,
        "truncation": None if trunc is None else trunc.a,
        "fits": fits,
    }
