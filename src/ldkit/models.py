"""Catalog of 1-DoF Hamiltonian models and their level-curve geometry.

Each model knows its energy function H(q, p), the squared nonnegative
momentum branch (the "radicand" p^2(q; E)) and its q-derivative, the
radicand with its turning-point roots divided out (the "deflated radicand"
the quadrature integrates with), the integration domain of the branch for a
given energy, a symmetry multiplier relating the single-branch arc length to
the full level-curve length, its critical energies (elliptic minimum and
separatrix) and the abscissae of its saddles.

Built-ins:

    pendulum             H = p^2/2 - cos q - 1          cat's-eye separatrix
    duffing              H = p^2/2 - q^2/2 + q^4/4      8-shaped separatrix
    fishtail             H = p^2 + q^3 + 6 q^2 - 32     fish-tail separatrix,
                                                        unbounded (needs a cut)
    harmonic-oscillator  H = (q^2 + p^2)/2              circles, no separatrix
    harmonic-repulsor    H = (p^2 - q^2)/2              hyperbolas, truncated on
                                                        the hyperbolic angle

Custom conservative systems H = p^2/2 + V(q) are supported through
:func:`mechanical`. All quantities are dimensionless doubles; model objects
are immutable after construction and safe to share across workers.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import _kernels as K
from .cubic import cubic_roots
from .errors import (
    BelowMinimum,
    OutsideDomain,
    TruncationInsideDomain,
    TruncationRequired,
    TurningPoint,
)

TURNING = "turning-point"
REGULAR = "regular"
TRUNCATION = "truncation"

# branch < 1e-9 at an endpoint marks it as a turning point (radicand < 1e-18)
_TURNING_RAD = 1e-18
_MERGE_TOL = 1e-9
# within this fraction of the row width from a turning end, the generic
# deflated radicand switches from p^2 / distance to its trapezoid limit
_LIMIT_FRAC = 1e-5


@dataclass(frozen=True)
class Truncation:
    """Artificial lower coordinate cut for models with unbounded level curves."""

    a: float


@dataclass(frozen=True)
class EnergyDomain:
    """Ordered disjoint closed intervals of the curve parameter, with flags.

    ``flags[i]`` is a ``(lo_flag, hi_flag)`` pair; each flag is one of
    TURNING (branch vanishes there), REGULAR, or TRUNCATION (artificial cut).
    """

    intervals: tuple
    flags: tuple

    def __post_init__(self):
        prev_hi = -math.inf
        for (lo, hi) in self.intervals:
            if lo > hi:
                raise ValueError(f"interval [{lo}, {hi}] is inverted")
            if lo < prev_hi:
                raise ValueError("intervals overlap or are unsorted")
            prev_hi = hi
        if len(self.intervals) != len(self.flags):
            raise ValueError("one flag pair per interval required")

    def pairs(self):
        return zip(self.intervals, self.flags)

    @property
    def support(self):
        """(lowest, highest) coordinate covered, or None if empty."""
        if not self.intervals:
            return None
        return self.intervals[0][0], self.intervals[-1][1]


class HamiltonianModel:
    """Base class; subclasses fill in the model formulas and domains."""

    name = ""
    kernel_code: Optional[int] = None
    multiplier = 1
    e_min = -math.inf
    e_sx = math.inf
    bounded = True
    saddles = ()  # abscissae of the hyperbolic points (p = 0)

    # -- formulas ------------------------------------------------------

    def energy(self, q, p):
        """H(q, p)."""
        raise NotImplementedError

    def radicand(self, q, E):
        """p^2(q; E), the squared nonnegative momentum branch."""
        raise NotImplementedError

    def radicand_dq(self, q):
        """d/dq of the radicand."""
        raise NotImplementedError

    def vector_field(self, q, p):
        """Hamiltonian vector field (dH/dp, -dH/dq); elementwise on arrays."""
        raise NotImplementedError

    def deflated_radicand(self, q, E, lo, hi, d_lo, d_hi, t_lo, t_hi):
        """p^2(q; E) divided by the distances to the turning ends of a row.

        The row is the domain interval [lo, hi] at energy E with at least
        one turning-point end; ``t_lo`` / ``t_hi`` mark them, and
        ``d_lo = q - lo``, ``d_hi = hi - q`` come from the quadrature
        variable, exact to relative roundoff near the ends. The result g
        satisfies p^2 = g * (d_lo if t_lo) * (d_hi if t_hi). All arguments
        broadcast elementwise.

        This generic form divides p^2 by the root factors. Within
        ``_LIMIT_FRAC`` of the row width from a turning end x, where p^2
        would cancel, it uses the trapezoid p^2 ~ (q - x) (p^2'(x) +
        p^2'(q)) / 2 instead. Built-ins override it with closed forms.
        """
        rad = np.asarray(self.radicand(q, E), dtype=np.float64)
        for turning, d, x, sign in ((t_lo, d_lo, lo, 0.5), (t_hi, d_hi, hi, -0.5)):
            near = turning & (d < _LIMIT_FRAC * (hi - lo))
            if near.any():
                slopes = self.radicand_dq(x) + self.radicand_dq(q)
                rad = np.where(near, sign * d * slopes, rad)
        return rad / (np.where(t_lo, d_lo, 1.0) * np.where(t_hi, d_hi, 1.0))

    # -- derived quantities --------------------------------------------

    def branch(self, q, E):
        """Nonnegative momentum branch p(q; E) >= 0.

        Raises :class:`OutsideDomain` when the radicand is negative beyond
        roundoff; radicands in [-1e-12, 0) clamp to zero.
        """
        rad = np.asarray(self.radicand(q, E), dtype=np.float64)
        if np.any(rad < -K.CLAMP_TOL):
            raise OutsideDomain(
                f"{self.name}: branch evaluated outside the level curve "
                f"(q={q!r}, E={E!r})"
            )
        out = np.sqrt(np.clip(rad, 0.0, None))
        return out if out.ndim else float(out)

    def branch_slope(self, q, E):
        """dp/dq of the nonnegative branch; only valid strictly inside the domain."""
        p = np.asarray(self.branch(q, E), dtype=np.float64)
        if np.any(p < 1e-12):
            raise TurningPoint(
                f"{self.name}: slope diverges at a turning point (q={q!r}, E={E!r})"
            )
        out = 0.5 * np.asarray(self.radicand_dq(q), dtype=np.float64) / p
        return out if out.ndim else float(out)

    def critical_energies(self):
        return self.e_min, self.e_sx

    def interior_breaks(self, E):
        """Coordinates where the integrand has a non-smooth interior feature:
        the saddles, which sit inside circulational intervals; quadrature
        panels split on them."""
        return self.saddles

    def domain(self, E, trunc=None):
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------

    def _polish_turning(self, q, E, outward):
        """Nudge a turning-point endpoint outward until the radicand is <= 0.

        Closed-form endpoints land within a few ulp of the true root, which
        can leave a positive radicand of order 1e-16 (branch ~ 1e-8). A few
        ulp nudges make ``branch`` exactly zero there without perturbing the
        quadrature (the singularity stays within ~1e-15 of the endpoint).
        """
        q = float(q)
        target = math.inf if outward > 0 else -math.inf
        for _ in range(60):
            if float(self.radicand(q, E)) <= 0.0:
                break
            q = np.nextafter(q, target)
        return q

    def _endpoint_flag(self, q, E):
        return TURNING if float(self.radicand(q, E)) <= _TURNING_RAD else REGULAR

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


class _CodedModel(HamiltonianModel):
    """Built-in whose formulas live in the kernel module under an int code."""

    def energy(self, q, p):
        out = K.energy(self.kernel_code, q, p)
        return out if np.ndim(out) else float(out)

    def radicand(self, q, E):
        out = K.radicand(self.kernel_code, q, E)
        return out if np.ndim(out) else float(out)

    def radicand_dq(self, q):
        out = K.radicand_dq(self.kernel_code, q)
        return out if np.ndim(out) else float(out)

    def vector_field(self, q, p):
        fq, fp = K.vector_field(self.kernel_code, q, p)
        return (fq if fq.ndim else float(fq)), (fp if fp.ndim else float(fp))


class Pendulum(_CodedModel):
    """H = p^2/2 - cos q - 1 on the cylinder; E = 0 on the separatrix."""

    name = "pendulum"
    kernel_code = K.PENDULUM
    multiplier = 2
    e_min = -2.0
    e_sx = 0.0
    bounded = True
    saddles = (-math.pi, math.pi)

    def deflated_radicand(self, q, E, lo, hi, d_lo, d_hi, t_lo, t_hi):
        # turning ends are +-r: 2 (cos q - cos r) = 4 sin((r + q)/2) sin((r - q)/2)
        a = d_lo + np.where(t_lo, 0.0, lo + hi)  # r + q
        b = d_hi - np.where(t_hi, 0.0, lo + hi)  # r - q
        return (4.0 * np.sin(0.5 * a) * np.sin(0.5 * b)
                / (np.where(t_lo, a, 1.0) * np.where(t_hi, b, 1.0)))

    def domain(self, E, trunc=None):
        if E < self.e_min:
            raise BelowMinimum(f"pendulum has no level curve below E={self.e_min}")
        if E < 0.0:
            # cos^2(theta/2) = -E/2 and sin^2(theta/2) = 1 + E/2, both exact
            # near their own end, so theta keeps full precision at E -> 0
            theta = 2.0 * math.atan2(math.sqrt(1.0 + 0.5 * E), math.sqrt(-0.5 * E))
            theta = self._polish_turning(theta, E, +1)
            if theta <= 0.0:
                return EnergyDomain((), ())
            return EnergyDomain(((-theta, theta),), ((TURNING, TURNING),))
        flag = self._endpoint_flag(math.pi, E)
        return EnergyDomain(((-math.pi, math.pi),), ((flag, flag),))


class Duffing(_CodedModel):
    """H = p^2/2 - q^2/2 + q^4/4; 8-shaped separatrix through the origin."""

    name = "duffing"
    kernel_code = K.DUFFING
    multiplier = 4
    e_min = -0.25
    e_sx = 0.0
    bounded = True
    saddles = (0.0,)

    def deflated_radicand(self, q, E, lo, hi, d_lo, d_hi, t_lo, t_hi):
        # p^2 = (q^2 - x1^2)(x2^2 - q^2)/2, x1^2 = -4E/(1 + s), x2^2 = 1 + s;
        # a turning lo is x1 and a turning hi is x2
        s = np.sqrt(1.0 + 4.0 * E)
        a = np.where(t_lo, q + lo, q * q + 4.0 * E / (1.0 + s))
        b = np.where(t_hi, q + hi, (1.0 + s) - q * q)
        return 0.5 * a * b

    def domain(self, E, trunc=None):
        if E < self.e_min:
            raise BelowMinimum(f"duffing has no level curve below E={self.e_min}")
        s = math.sqrt(max(1.0 + 4.0 * E, 0.0))
        x2 = self._polish_turning(math.sqrt(1.0 + s), E, +1)
        if E < 0.0:
            # x1^2 = 1 - s without the cancellation
            x1 = self._polish_turning(math.sqrt(-4.0 * E / (1.0 + s)), E, -1)
            if x2 - x1 <= _MERGE_TOL:
                return EnergyDomain((), ())
            return EnergyDomain(((x1, x2),), ((TURNING, TURNING),))
        flag0 = self._endpoint_flag(0.0, E)
        return EnergyDomain(((0.0, x2),), ((flag0, TURNING),))


class Fishtail(_CodedModel):
    """H = p^2 + q^3 + 6 q^2 - 32; fish-tail separatrix, unbounded motions.

    Every level curve has an unbounded left branch, so lengths are finite
    only after truncating the coordinate at ``a`` (a :class:`Truncation`
    must be passed to :meth:`domain`). With ``bounded_librations=True`` the
    model restricts to the bounded oscillations with q >= -4 and E <= 0 and
    needs no truncation.
    """

    name = "fishtail"
    kernel_code = K.FISHTAIL
    multiplier = 2
    e_min = -32.0
    e_sx = 0.0
    saddles = (-4.0,)

    def __init__(self, bounded_librations=False):
        self.bounded_librations = bool(bounded_librations)
        self.bounded = self.bounded_librations

    def deflated_radicand(self, q, E, lo, hi, d_lo, d_hi, t_lo, t_hi):
        # p^2 = -(q - x2)(q - x3)(q - x4) with x2 + x3 + x4 = -6 and
        # x2 x3 + x2 x4 + x3 x4 = 0 (Vieta). The oval [x3, x4] deflates to
        # q - x2 = d_lo + (2 x3 + x4 + 6). Deflating one root r leaves
        # +-(q^2 + (r + 6) q + r (r + 6)), written in d = |q - r|; it is used
        # on the half nearer r, the raw p^2 / d (exact near the saddle) on
        # the other half.
        rad = self.radicand(q, E)
        r = np.where(t_hi, hi, lo)
        d = np.where(t_hi, d_hi, d_lo)
        sgn = np.where(t_hi, -1.0, 1.0)
        h = 3.0 * r * (r + 4.0) + sgn * 3.0 * (r + 2.0) * d + d * d
        with np.errstate(divide="ignore", invalid="ignore"):
            one = np.where(d <= np.where(t_hi, d_lo, d_hi), -sgn * h, rad / d)
        return np.where(t_lo & t_hi, d_lo + (2.0 * lo + hi + 6.0), one)

    def _circulational_x2(self, E):
        """Rightmost branch endpoint from the closed-form real cubic root."""
        c = 0.5 * math.sqrt(max(E * (E + 32.0), 0.0)) + 0.5 * (E + 32.0) - 8.0
        u = c ** (1.0 / 3.0)
        x2 = u + 4.0 / u - 2.0
        # one Newton step against P_E sharpens the nested surds
        f = -(x2 ** 3) - 6.0 * x2 * x2 + E + 32.0
        df = -3.0 * x2 * x2 - 12.0 * x2
        if df != 0.0:
            x2 -= f / df
        return x2

    def _librational_roots(self, E):
        roots = cubic_roots(-1.0, -6.0, 0.0, E + 32.0)
        if -1e-3 < E < 0.0:
            # beside the saddle the two roots are only ~1e-8 accurate from
            # the monomial form (or collapsed into one); solve
            # u^2 (6 - u) = -E for u = q + 4 by a fixed point (contraction
            # ~u/12) instead
            near = []
            for sign in (-1.0, 1.0):
                u = 0.0
                for _ in range(8):
                    u = sign * math.sqrt(-E / (6.0 - u))
                near.append(u - 4.0)
            roots = [near[0], near[1], roots[-1]]
        return roots

    def domain(self, E, trunc=None):
        if E < self.e_min:
            raise BelowMinimum(f"fishtail has no level curve below E={self.e_min}")

        if self.bounded_librations:
            if E > 0.0:
                raise OutsideDomain(
                    "fishtail bounded librations exist only for E <= 0"
                )
            roots = self._librational_roots(E)
            lo, hi = self._pick_oval(roots, E)
            if hi - lo <= _MERGE_TOL:
                return EnergyDomain((), ())
            lo = self._polish_turning(lo, E, -1)
            hi = self._polish_turning(hi, E, +1)
            return EnergyDomain(((lo, hi),), ((TURNING, TURNING),))

        if trunc is None:
            raise TruncationRequired(
                "fishtail level curves are unbounded; pass a Truncation"
            )
        a = float(trunc.a)

        if E >= 0.0:
            x2 = self._polish_turning(self._circulational_x2(E), E, +1)
            if a >= x2:
                raise TruncationInsideDomain(f"truncation a={a} exceeds x2={x2}")
            return EnergyDomain(((a, x2),), ((TRUNCATION, TURNING),))

        roots = self._librational_roots(E)
        if len(roots) == 3:
            x2, x3, x4 = roots
        elif len(roots) == 2 and abs(roots[0] + 4.0) < 1e-6:
            # branch endpoints merged at the saddle (E -> 0-)
            x2, x3, x4 = roots[0], roots[0], roots[1]
        elif len(roots) == 2:
            # oval shrank onto the elliptic point (E -> -32+)
            x2, x3, x4 = roots[0], roots[1], roots[1]
        else:
            x2 = x3 = x4 = roots[0]

        # the cut keeps the part of the level curve with q >= a; pieces that
        # fall entirely left of it are dropped
        intervals = []
        flags = []
        if a < x2:
            x2p = self._polish_turning(x2, E, +1)
            intervals.append((a, x2p))
            flags.append((TRUNCATION, TURNING))
        oval_exists = x4 - x3 > _MERGE_TOL
        if oval_exists and a < x4:
            x3p = self._polish_turning(x3, E, -1)
            x4p = self._polish_turning(x4, E, +1)
            if intervals and x3p - intervals[0][1] <= _MERGE_TOL:
                intervals = [(a, x4p)]
                flags = [(TRUNCATION, TURNING)]
            elif a >= x3p:
                intervals.append((a, x4p))
                flags.append((TRUNCATION, TURNING))
            else:
                intervals.append((x3p, x4p))
                flags.append((TURNING, TURNING))
        if not intervals:
            if oval_exists:
                raise TruncationInsideDomain(
                    f"truncation a={a} lies right of the whole level curve"
                )
            # the oval degenerated to the elliptic point and the unbounded
            # branch is outside the window: point level set, zero length
            return EnergyDomain((), ())
        return EnergyDomain(tuple(intervals), tuple(flags))

    @staticmethod
    def _pick_oval(roots, E):
        """The bounded oscillation interval [x3, x4] with q >= -4."""
        if len(roots) == 3:
            return roots[1], roots[2]
        if len(roots) == 2:
            if abs(roots[0] + 4.0) < 1e-6:  # E ~ 0: oval spans [-4, x4]
                return roots[0], roots[1]
            return roots[1], roots[1]  # E ~ -32: point oval
        return roots[0], roots[0]


class HarmonicOscillator(_CodedModel):
    """H = (q^2 + p^2)/2; circular level curves, no separatrix."""

    name = "harmonic-oscillator"
    kernel_code = K.OSCILLATOR
    multiplier = 2
    e_min = 0.0
    e_sx = math.inf
    bounded = True

    def deflated_radicand(self, q, E, lo, hi, d_lo, d_hi, t_lo, t_hi):
        # p^2 = (r - q)(r + q) with turning ends -r, r
        return np.where(t_lo & t_hi, 1.0, np.where(t_hi, q + hi, -lo - q))

    def domain(self, E, trunc=None):
        if E < 0.0:
            raise BelowMinimum("harmonic oscillator has no level curve below E=0")
        if E == 0.0:
            return EnergyDomain((), ())
        r = self._polish_turning(math.sqrt(2.0 * E), E, +1)
        return EnergyDomain(((-r, r),), ((TURNING, TURNING),))


class HarmonicRepulsor(_CodedModel):
    """H = (p^2 - q^2)/2; hyperbolic level curves truncated at hyperbolic angle t_star.

    One branch piece is parametrised per energy sign, giving the exact
    closed form length sqrt(2|E|) * integral_0^{t_star} sqrt(sinh^2 + cosh^2).
    The cut is intrinsic to the model (no Truncation object needed).
    """

    name = "harmonic-repulsor"
    kernel_code = K.REPULSOR
    multiplier = 1
    e_min = -math.inf
    e_sx = 0.0
    bounded = False
    saddles = (0.0,)

    def __init__(self, t_star=1.0):
        if t_star <= 0.0:
            raise ValueError("t_star must be positive")
        self.t_star = float(t_star)

    def deflated_radicand(self, q, E, lo, hi, d_lo, d_hi, t_lo, t_hi):
        # p^2 = (q - r)(q + r) for E < 0, turning at lo = r or hi = -r
        return np.where(t_lo, q + lo, -q - hi)

    def domain(self, E, trunc=None):
        if E == 0.0:
            return EnergyDomain((), ())
        if E > 0.0:
            hi = math.sqrt(2.0 * E) * math.sinh(self.t_star)
            return EnergyDomain(((0.0, hi),), ((REGULAR, TRUNCATION),))
        lo = self._polish_turning(math.sqrt(-2.0 * E), E, -1)
        hi = math.sqrt(-2.0 * E) * math.cosh(self.t_star)
        return EnergyDomain(((lo, hi),), ((TURNING, TRUNCATION),))


@dataclass(frozen=True)
class MechanicalSystem:
    """Potential data for a conservative system H = p^2/2 + V(q)."""

    potential: Callable
    potential_slope: Callable


class MechanicalModel(HamiltonianModel):
    """Custom conservative system; domains found by bracketed root finding.

    The level-curve turning points of E - V(q) = 0 are located on
    ``search_interval`` by scanning a fine grid for sign changes, solving
    each bracket with Brent's method (tolerance 1e-12) and polishing the
    root with Newton steps to full precision, which the quadrature's
    deflated radicand needs. Interior local maxima of V on the scan grid,
    refined by a bounded minimization, are the model's saddles and split
    the quadrature panels.
    """

    kernel_code = None
    multiplier = 2
    bounded = True

    def __init__(self, system, search_interval, name="custom-mechanical",
                 e_sx=None, scan_points=4096):
        self.system = system
        self.search_lo, self.search_hi = map(float, search_interval)
        if not self.search_lo < self.search_hi:
            raise ValueError("search interval must have lo < hi")
        self.name = name
        self.scan_points = int(scan_points)
        self._qs = np.linspace(self.search_lo, self.search_hi, self.scan_points + 1)
        self._vs = np.asarray(system.potential(self._qs), dtype=np.float64)
        i = int(np.argmin(self._vs))
        lo = self._qs[max(i - 1, 0)]
        hi = self._qs[min(i + 1, self.scan_points)]
        if lo < hi:
            res = minimize_scalar(system.potential, bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-12})
            self.e_min = float(res.fun)
        else:
            self.e_min = float(self._vs[i])
        self.e_sx = math.nan if e_sx is None else float(e_sx)
        v = self._vs
        tops = np.flatnonzero((v[1:-1] >= v[:-2]) & (v[1:-1] > v[2:])) + 1
        self.saddles = tuple(
            float(minimize_scalar(lambda x: -float(system.potential(x)),
                                  bounds=(self._qs[j - 1], self._qs[j + 1]),
                                  method="bounded", options={"xatol": 1e-12}).x)
            for j in tops.tolist())

    def energy(self, q, p):
        p = np.asarray(p, dtype=np.float64)
        out = 0.5 * p * p + np.asarray(self.system.potential(q), dtype=np.float64)
        return out if out.ndim else float(out)

    def radicand(self, q, E):
        out = 2.0 * (E - np.asarray(self.system.potential(q), dtype=np.float64))
        return out if np.ndim(out) else float(out)

    def radicand_dq(self, q):
        out = -2.0 * np.asarray(self.system.potential_slope(q), dtype=np.float64)
        return out if np.ndim(out) else float(out)

    def vector_field(self, q, p):
        slope = self.system.potential_slope(q)
        if isinstance(q, float):  # the scalar stepper's calls, kept cheap
            return float(p), -float(slope)
        fp = -np.broadcast_to(np.asarray(slope, dtype=np.float64), np.shape(q))
        if fp.ndim:
            return np.asarray(p, dtype=np.float64), fp
        return float(p), float(fp)

    def _newton(self, x, E, a, b):
        """Newton steps on E - V from x, kept inside the bracket [a, b]."""
        for _ in range(3):
            slope = float(self.system.potential_slope(x))
            if slope == 0.0:
                break
            nx = x + (E - float(self.system.potential(x))) / slope
            if not a <= nx <= b or nx == x:
                break
            x = nx
        return x

    def domain(self, E, trunc=None):
        if E < self.e_min:
            raise BelowMinimum(f"{self.name}: E={E} below potential minimum")
        g = E - self._vs
        g0, g1 = g[:-1], g[1:]
        roots = []
        for i in np.flatnonzero((g0 == 0.0) | (g0 * g1 < 0.0)).tolist():
            if g0[i] == 0.0:
                roots.append(self._qs[i])
            else:
                a, b = self._qs[i], self._qs[i + 1]
                x = brentq(lambda x: E - float(self.system.potential(x)),
                           a, b, xtol=1e-12, rtol=9e-16)
                roots.append(self._newton(x, E, a, b))
        if g[-1] == 0.0:
            roots.append(self._qs[-1])

        edges = [self.search_lo] + roots + [self.search_hi]
        intervals = []
        flags = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi - lo <= _MERGE_TOL:
                continue
            midval = E - float(self.system.potential(0.5 * (lo + hi)))
            if midval <= 0.0:
                continue
            lo_is_root = lo != self.search_lo
            hi_is_root = hi != self.search_hi
            lo_p = self._polish_turning(lo, E, -1) if lo_is_root else lo
            hi_p = self._polish_turning(hi, E, +1) if hi_is_root else hi
            intervals.append((lo_p, hi_p))
            flags.append((TURNING if lo_is_root else TRUNCATION,
                          TURNING if hi_is_root else TRUNCATION))
        return EnergyDomain(tuple(intervals), tuple(flags))


# ----------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------

def pendulum():
    return Pendulum()


def duffing():
    return Duffing()


def fishtail(bounded_librations=False):
    return Fishtail(bounded_librations=bounded_librations)


def harmonic_oscillator():
    return HarmonicOscillator()


def harmonic_repulsor(t_star=1.0):
    return HarmonicRepulsor(t_star=t_star)


def mechanical(potential, potential_slope, search_interval,
               name="custom-mechanical", e_sx=None):
    """Build a custom conservative model from a potential and its slope.

    Both callables must be vectorized: given an array of coordinates they
    return an array of the same shape. Energies, domains and batched
    temporal descriptors (``temporal_map``, ``ld_landscape_line``) evaluate
    them on arrays.
    """
    return MechanicalModel(MechanicalSystem(potential, potential_slope),
                           search_interval, name=name, e_sx=e_sx)


MODEL_NAMES = (
    "pendulum",
    "duffing",
    "fishtail",
    "harmonic-oscillator",
    "harmonic-repulsor",
)


def get_model(name, **options):
    """Look up a built-in model by name; options go to its constructor."""
    table = {
        "pendulum": Pendulum,
        "duffing": Duffing,
        "fishtail": Fishtail,
        "harmonic-oscillator": HarmonicOscillator,
        "harmonic-repulsor": HarmonicRepulsor,
    }
    try:
        cls = table[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; built-ins: {', '.join(MODEL_NAMES)}"
        ) from None
    return cls(**options)
