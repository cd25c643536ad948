"""Catalog of 1-DoF Hamiltonian models and their level-curve geometry.

Every model is H = αp² + V(q), written once as the class constant
``alpha``, ``potential`` V and ``potential_slope`` V'. From these
:class:`HamiltonianModel` derives the vector field (2αp, −V'), the energy,
the squared nonnegative momentum branch (the "radicand" p^2(q; E) =
(E − V)/α) and its q-derivative −V'/α, on arrays and on Python floats. A
built-in overrides one only for accuracy: the pendulum's, Duffing's and the
fish-tail's radicands, and Duffing's slope, which keeps ldbench's worst
Duffing ℓ error at 5.370e-14 (5.869e-14 with −V'/α).
A model also knows the radicand with its turning-point roots divided out
(the "deflated radicand" of the quadrature), a symmetry multiplier from
the single-branch arc length to the level-curve length, its critical
energies (elliptic minimum and separatrix), the abscissae of its saddles
and the energies where ell(E) is singular (``breakpoints``).

The integration domain of the branch is built for a whole array of energies
at once: :meth:`HamiltonianModel.domains` returns flat rows (owner energy,
lo, hi, endpoint flags) in each energy's panel order, already split at
the saddles inside them, plus each energy's error. The flags are the integer
codes REGULAR, TURNING and TRUNCATION (0, 1, 2). Built-in domains are
closed forms in E evaluated on arrays (the fish-tail's from one
trigonometric form of its cubic in q + 2); custom models find their
sign-change cells with one sorted search of each scan cell's V range and
bisect all their roots at once. :meth:`HamiltonianModel.domain` is the
batch of one energy: its rows, owner 0, or its error raised.

Built-ins, named in :data:`MODEL_NAMES` and built by :func:`get_model`
(``pendulum``, ``fishtail`` and the other lower-case names are the classes):

    pendulum             H = p^2/2 - cos q - 1          cat's-eye separatrix
    duffing              H = p^2/2 - q^2/2 + q^4/4      8-shaped separatrix
    fishtail             H = p^2 + q^3 + 6 q^2 - 32     fish-tail separatrix,
                                                        unbounded (needs a cut)
    harmonic-oscillator  H = (q^2 + p^2)/2              circles, no separatrix
    harmonic-repulsor    H = (p^2 - q^2)/2              hyperbolas, truncated on
                                                        the hyperbolic angle

Custom conservative systems H = p^2/2 + V(q) are :class:`MechanicalModel`
(``mechanical``). All quantities are dimensionless doubles; model objects
are immutable after construction and safe to share across workers.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import (
    BelowMinimum,
    NonFiniteEnergy,
    OutsideDomain,
    TruncationInsideDomain,
    TruncationRequired,
    TurningPoint,
)

# endpoint flag codes of the domain rows: a regular end, a turning point
# (the branch vanishes there) and an artificial cut
REGULAR, TURNING, TRUNCATION = 0, 1, 2

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

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError(f"truncation a={self.a} is not finite")


@dataclass(frozen=True)
class DomainRows:
    """Domain rows of a batch of energies.

    Row i is the interval [lo[i], hi[i]] of energy ``owner[i]`` (its index
    in the batch) with the endpoint flags ``f_lo[i]`` and ``f_hi[i]``, each
    the code REGULAR, TURNING or TRUNCATION. Rows are grouped by energy in
    batch order and ordered by q within an energy. ``errors[k]`` is the
    :class:`LdkitError` energy k raised, else None; an energy with an error
    has no rows.
    """

    owner: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    f_lo: np.ndarray
    f_hi: np.ndarray
    errors: list

    def take(self, sel):
        return DomainRows(self.owner[sel], self.lo[sel], self.hi[sel],
                          self.f_lo[sel], self.f_hi[sel], self.errors)

    def pairs(self):
        """``((lo, hi), (f_lo, f_hi))`` of each row, as Python floats and ints."""
        return zip(zip(self.lo.tolist(), self.hi.tolist()),
                   zip(self.f_lo.tolist(), self.f_hi.tolist()))


def _value(x):
    """``x``, or a Python float when it is 0-d."""
    return x if np.ndim(x) else float(x)


def _at(f, q):
    """``f(q)`` as a float64 array; a Python float q is passed as is, so
    that V runs on floats there, as in the scalar stepper's field."""
    if not isinstance(q, float):
        q = np.asarray(q, dtype=np.float64)
    return np.asarray(f(q), dtype=np.float64)


def _columns_to_rows(n, columns):
    """Flat rows from per-energy candidate columns.

    Each column is (lo, hi, f_lo, f_hi, keep), arrays or scalars that
    broadcast to the n energies; column order is the q order within an
    energy. Returns (owner, lo, hi, f_lo, f_hi) of the kept candidates.
    """
    if not columns:
        e = np.empty(0)
        return np.empty(0, dtype=np.intp), e, e, e.astype(np.int8), e.astype(np.int8)
    stacked = [np.column_stack([np.broadcast_to(col[k], (n,)) for col in columns])
               for k in range(5)]
    r, j = np.nonzero(stacked[4])
    return (r, stacked[0][r, j], stacked[1][r, j],
            stacked[2][r, j].astype(np.int8), stacked[3][r, j].astype(np.int8))


def _edge_rows(owner, x, f):
    """Rows between consecutive edges of one owner.

    The edges (positions x, flag codes f) are grouped by owner and in q order
    within one. Returns (owner, lo, hi, f_lo, f_hi) of the rows.
    """
    same = owner[1:] == owner[:-1]
    return owner[:-1][same], x[:-1][same], x[1:][same], f[:-1][same], f[1:][same]


class HamiltonianModel:
    """Base class of H = αp² + V(q); subclasses give α, V, V' and domains."""

    name = ""
    alpha = 0.5
    multiplier = 1
    e_min = -math.inf
    e_sx = math.inf
    bounded = True
    saddles = ()  # abscissae of the hyperbolic points (p = 0)
    point_symmetric = False  # V(-q) == V(q): the field is odd, see vector_field
    uses_cut = False  # the domain ends at a Truncation's coordinate

    # -- formulas ------------------------------------------------------

    def potential(self, q):
        """V(q), on a float or a float64 array."""
        raise NotImplementedError

    def potential_slope(self, q):
        """V'(q), on a float or a float64 array."""
        raise NotImplementedError

    def energy(self, q, p):
        """H(q, p) = αp² + V(q)."""
        p = np.asarray(p, dtype=np.float64)
        return _value(self.alpha * p * p + _at(self.potential, q))

    def radicand(self, q, E):
        """p^2(q; E) = (E − V(q))/α, the squared nonnegative momentum branch."""
        return _value((E - _at(self.potential, q)) / self.alpha)

    def radicand_dq(self, q):
        """d/dq of the radicand, V'(q)/(−α)."""
        return _value(_at(self.potential_slope, q) / -self.alpha)

    def vector_field(self, q, p):
        """Hamiltonian vector field (dH/dp, −dH/dq) = (2αp, −V'(q)).

        Elementwise on arrays, with a scalar or list V' broadcast to q's
        shape; a Python float ``q`` (the scalar stepper's calls) runs on
        floats and returns floats, bit for bit the array result.

        2αp is odd in p and V'(q) does not see p, so the field is
        time-reversal symmetric bit for bit: ``fq(q, −p) == −fq(q, p)`` and
        ``fp(q, −p) == fp(q, p)``. Both steppers rely on it to run each
        backward piece as the forward piece from (q, −p). With
        ``point_symmetric`` set (V even), V' is odd, so the field is odd bit
        for bit up to a zero's sign: ``fq(−q, −p) == −fq(q, p)`` and
        ``fp(−q, −p) == −fp(q, p)``; the batched stepper runs (q, p) and
        (−q, −p) as one lane.
        """
        # 2αp: on arrays p itself when 2α = 1, the same bits as 1.0 * p on floats
        if isinstance(q, float):
            return 2.0 * self.alpha * p, -float(self.potential_slope(q))
        q, p = np.asarray(q, dtype=np.float64), np.asarray(p, dtype=np.float64)
        if not (q.ndim or p.ndim):
            return self.vector_field(float(q), float(p))
        slope = np.asarray(self.potential_slope(q), dtype=np.float64)
        if slope.shape != q.shape:
            slope = np.broadcast_to(slope, q.shape)
        return (p if self.alpha == 0.5 else 2.0 * self.alpha * p), -slope

    @property
    def kernel_code(self):
        """This model, for ``ldbench/``'s kernel calls; None for custom models."""
        return self

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
                # V' (a Python callable for custom models) only where it is used
                shape = np.broadcast_shapes(rad.shape, near.shape)
                rad = np.broadcast_to(rad, shape).copy()
                near = np.broadcast_to(near, shape)
                qn, dn, xn = (np.broadcast_to(a, shape)[near] for a in (q, d, x))
                rad[near] = sign * dn * (self.radicand_dq(xn) + self.radicand_dq(qn))
        return rad / (np.where(t_lo, d_lo, 1.0) * np.where(t_hi, d_hi, 1.0))

    # -- derived quantities --------------------------------------------

    def branch(self, q, E):
        """Nonnegative momentum branch p(q; E) >= 0.

        Raises :class:`OutsideDomain` when the radicand is negative beyond
        roundoff; radicands in [-1e-12, 0) clamp to zero.
        """
        rad = np.asarray(self.radicand(q, E), dtype=np.float64)
        if np.any(rad < -K.CLAMP_TOL):
            raise OutsideDomain(f"{self.name}: branch evaluated outside the level "
                                f"curve (q={q!r}, E={E!r})")
        return _value(np.sqrt(np.clip(rad, 0.0, None)))

    def branch_slope(self, q, E):
        """dp/dq of the nonnegative branch; only valid strictly inside the domain."""
        p = np.asarray(self.branch(q, E), dtype=np.float64)
        if np.any(p < 1e-12):
            raise TurningPoint(f"{self.name}: slope diverges at a turning point "
                               f"(q={q!r}, E={E!r})")
        return _value(0.5 * np.asarray(self.radicand_dq(q), dtype=np.float64) / p)

    def critical_energies(self):
        return self.e_min, self.e_sx

    def breakpoints(self, trunc=None):
        """Sorted finite energies where ell(E) is singular: e_min, e_sx, the
        saddle energies and, if ``uses_cut``, that of a turning point at the
        cut ``trunc``."""
        qs = [*self.saddles, *([trunc.a] if self.uses_cut and trunc is not None else [])]
        es = [self.e_min, self.e_sx, *(self.energy(q, 0.0) for q in qs)]
        return np.unique([e for e in es if math.isfinite(e)])

    def _below_minimum(self, E):
        return _errors_at(E < self.e_min, lambda e: BelowMinimum(
            f"{self.name} has no level curve below E={self.e_min}"), E)

    # -- domains ---------------------------------------------------------

    def domains(self, energies, trunc=None):
        """Quadrature rows of many energies at once, as :class:`DomainRows`.

        Every energy's domain intervals, split at the saddles strictly
        inside them (the integrand is not smooth there). A saddle cut gets
        the TURNING flag when the radicand there is <= 1e-18, else REGULAR.
        Each energy's error (NaN or infinite energy, below the minimum, a
        missing or misplaced truncation) is returned, not raised.
        """
        E = np.asarray(energies, dtype=np.float64).reshape(-1)
        errors = [None] * E.size
        finite = np.isfinite(E)
        for i in np.flatnonzero(~finite).tolist():
            errors[i] = NonFiniteEnergy(f"{self.name}: energy E={E[i]} is not finite")
        idx = np.flatnonzero(finite)
        owner, lo, hi, f_lo, f_hi, errs = self._intervals(E[idx], trunc)
        failed = ~finite
        for i, exc in errs.items():
            errors[idx[i]] = exc
            failed[idx[i]] = True
        owner = idx[owner]
        rows = DomainRows(owner, lo, hi, f_lo, f_hi, errors).take(~failed[owner])
        return self._split_at_saddles(E, rows)

    def domain(self, E, trunc=None):
        """The rows of the level curve H = E: ``domains([E], trunc)``, all
        with owner 0. Raises the energy's error."""
        rows = self.domains([E], trunc)
        if rows.errors[0] is not None:
            raise rows.errors[0]
        return rows

    def _intervals(self, E, trunc):
        """Domain intervals of finite energies E: flat (owner, lo, hi, f_lo,
        f_hi) rows as in :class:`DomainRows`, and a dict of errors by energy
        index (rows of an energy with an error are dropped)."""
        raise NotImplementedError

    def _split_at_saddles(self, E, rows):
        """Rows of ``rows`` (energies E) cut at the saddles strictly inside."""
        S = np.sort(np.asarray(self.saddles, dtype=np.float64))
        if not S.size or not rows.owner.size:
            return rows
        cut = (rows.lo[:, None] + 1e-12 < S) & (S < rows.hi[:, None] - 1e-12)
        split = np.flatnonzero(cut.any(axis=1))
        if not split.size:
            return rows
        f_cut = np.full(cut.shape, REGULAR, dtype=np.int8)
        f_cut[split] = self._turning_flag(S, E[rows.owner[split], None])
        n = rows.owner.size
        edges = np.column_stack([rows.lo, np.broadcast_to(S, cut.shape), rows.hi])
        flags = np.column_stack([rows.f_lo, f_cut, rows.f_hi])
        live = np.column_stack([np.ones(n, dtype=bool), cut, np.ones(n, dtype=bool)])
        r, j = np.nonzero(live)
        r, lo, hi, f_lo, f_hi = _edge_rows(r, edges[r, j], flags[r, j])
        return DomainRows(rows.owner[r], lo, hi, f_lo, f_hi, rows.errors)

    # -- helpers ---------------------------------------------------------

    def _polish_turning(self, q, E, outward):
        """Nudge turning-point endpoints q (at energies E) outward until the
        radicand is <= 0, by one ulp per round and at most 60 rounds.

        Closed-form endpoints land within a few ulp of the true root, which
        can leave a positive radicand of order 1e-16 (branch ~ 1e-8). A few
        ulp nudges make ``branch`` exactly zero there without perturbing the
        quadrature (the singularity stays within ~1e-15 of the endpoint).
        """
        q = np.array(q, dtype=np.float64)
        target = math.inf if outward > 0 else -math.inf
        todo = np.flatnonzero(~(self.radicand(q, E) <= 0.0))
        for _ in range(60):
            if not todo.size:
                break
            q[todo] = np.nextafter(q[todo], target)
            todo = todo[~(self.radicand(q[todo], E[todo]) <= 0.0)]
        return q

    def _turning_flag(self, q, E):
        """Flag code of endpoints q at energies E: TURNING where the
        radicand is <= 1e-18, else REGULAR."""
        return np.where(self.radicand(q, E) <= _TURNING_RAD, TURNING, REGULAR)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


def _errors_at(mask, make, *values):
    """{i: make(values[0][i], ...)} for every energy i where mask holds."""
    return {i: make(*(float(v[i]) for v in values))
            for i in np.flatnonzero(mask).tolist()}


class Pendulum(HamiltonianModel):
    """H = p^2/2 - cos q - 1 on the cylinder; E = 0 on the separatrix."""

    name = "pendulum"
    multiplier = 2
    e_min = -2.0
    e_sx = 0.0
    saddles = (-math.pi, math.pi)
    point_symmetric = True

    def potential(self, q):
        return -np.cos(q) - 1.0

    def potential_slope(self, q):
        # math.sin costs far less than np.sin on a float
        return math.sin(q) if isinstance(q, float) else np.sin(q)

    def radicand(self, q, E):
        # accuracy form: 2E + 4 cos^2(q/2) cancels between few, small terms;
        # (E - V)/α took ℓ(-1e-6) from 5.9e-17 to 3.2e-15 relative
        q = np.asarray(q, dtype=np.float64)
        return _value(2.0 * E + 4.0 * np.cos(0.5 * q) ** 2)

    def deflated_radicand(self, q, E, lo, hi, d_lo, d_hi, t_lo, t_hi):
        # turning ends are +-r: 2 (cos q - cos r) = 4 sin((r + q)/2) sin((r - q)/2)
        a = d_lo + np.where(t_lo, 0.0, lo + hi)  # r + q
        b = d_hi - np.where(t_hi, 0.0, lo + hi)  # r - q
        return (4.0 * np.sin(0.5 * a) * np.sin(0.5 * b)
                / (np.where(t_lo, a, 1.0) * np.where(t_hi, b, 1.0)))

    def _intervals(self, E, trunc):
        lib = (E >= self.e_min) & (E < 0.0)
        El = E[lib]
        # cos^2(theta/2) = -E/2 and sin^2(theta/2) = 1 + E/2, both exact
        # near their own end, so theta keeps full precision at E -> 0
        theta = 2.0 * np.arctan2(np.sqrt(1.0 + 0.5 * El), np.sqrt(-0.5 * El))
        theta = self._polish_turning(theta, El, +1)
        lo = np.full(E.size, -math.pi)
        hi = np.full(E.size, math.pi)
        lo[lib], hi[lib] = -theta, theta
        flag = np.where(lib, TURNING, self._turning_flag(math.pi, E))
        rows = _columns_to_rows(E.size, [(lo, hi, flag, flag, hi > 0.0)])
        return (*rows, self._below_minimum(E))


class Duffing(HamiltonianModel):
    """H = p^2/2 - q^2/2 + q^4/4; 8-shaped separatrix through the origin."""

    name = "duffing"
    multiplier = 4
    e_min = -0.25
    e_sx = 0.0
    saddles = (0.0,)
    point_symmetric = True

    def potential(self, q):
        return -0.5 * q * q + 0.25 * q ** 4

    def potential_slope(self, q):
        # the field's -V' is q - q^3, +0.0 at 0 and +-1; q * q * q, as numpy's
        # power and float pow differ in the last bit on some inputs
        return -(q - q * q * q)

    def radicand(self, q, E):
        # accuracy form: beside the minima q = +-1, 2 - q^2 and the sum are
        # exact; (E - V)/α took ℓ(-0.25 + 1e-12) from 5.5e-11 to 6.7e-9 relative
        q = np.asarray(q, dtype=np.float64)
        return _value(2.0 * E + 0.5 * q * q * (2.0 - q * q))

    def radicand_dq(self, q):
        # V'/(-α) is as accurate against references, but it took ldbench's
        # ell_rel_err_max.duffing from 5.370e-14 to 5.869e-14
        q = np.asarray(q, dtype=np.float64)
        return _value(2.0 * q - 2.0 * q ** 3)

    def deflated_radicand(self, q, E, lo, hi, d_lo, d_hi, t_lo, t_hi):
        # p^2 = (q^2 - x1^2)(x2^2 - q^2)/2, x1^2 = -4E/(1 + s), x2^2 = 1 + s;
        # a turning lo is x1 and a turning hi is x2
        s = np.sqrt(1.0 + 4.0 * E)
        a = np.where(t_lo, q + lo, q * q + 4.0 * E / (1.0 + s))
        b = np.where(t_hi, q + hi, (1.0 + s) - q * q)
        return 0.5 * a * b

    def _intervals(self, E, trunc):
        ok = E >= self.e_min
        lib = ok & (E < 0.0)
        s = np.sqrt(np.maximum(1.0 + 4.0 * E, 0.0))
        x2 = self._polish_turning(np.sqrt(1.0 + s[ok]), E[ok], +1)
        # x1^2 = 1 - s without the cancellation
        x1 = self._polish_turning(np.sqrt(-4.0 * E[lib] / (1.0 + s[lib])), E[lib], -1)
        lo = np.zeros(E.size)
        hi = np.zeros(E.size)
        lo[lib], hi[ok] = x1, x2
        f_lo = np.where(lib, TURNING, self._turning_flag(0.0, E))
        keep = ok & ~(lib & (hi - lo <= _MERGE_TOL))
        rows = _columns_to_rows(E.size, [(lo, hi, f_lo, TURNING, keep)])
        return (*rows, self._below_minimum(E))


class Fishtail(HamiltonianModel):
    """H = p^2 + q^3 + 6 q^2 - 32; fish-tail separatrix, unbounded motions.

    Every level curve has an unbounded left branch, so lengths are finite
    only after truncating the coordinate at ``a`` (a :class:`Truncation`
    must be passed to :meth:`domain`). With ``bounded_librations=True`` the
    model restricts to the bounded oscillations with q >= -4 and E <= 0 and
    needs no truncation.
    """

    name = "fishtail"
    alpha = 1.0
    multiplier = 2
    e_min = -32.0
    e_sx = 0.0
    saddles = (-4.0,)

    def __init__(self, bounded_librations=False):
        self.bounded_librations = bool(bounded_librations)
        self.bounded = self.bounded_librations
        self.uses_cut = not self.bounded_librations

    def potential(self, q):
        return q ** 3 + 6.0 * q * q - 32.0

    def potential_slope(self, q):
        return 3.0 * q * q + 12.0 * q

    def radicand(self, q, E):
        # accuracy form about the nearer critical point, as _librational_roots:
        # below E = -16, E + 32 is exact and (E + 32) - q^2 (q + 6) does not
        # cancel beside the minimum, where E - (q - 2)(q + 4)^2 does; (E - V)/α
        # took ℓ(1e-6) from 6.6e-17 to 3.0e-14 relative
        q = np.asarray(q, dtype=np.float64)
        return _value(np.where(E < -16.0, (E + 32.0) - q * q * (q + 6.0),
                               E - (q - 2.0) * (q + 4.0) ** 2))

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

    @staticmethod
    def _circulational_x2(E):
        """Rightmost branch endpoint for E >= 0. w = q + 2 solves
        w^3 - 12 w = 16 + E, so w = 4 cosh(chi/3) with sinh^2(chi/2) = E/32."""
        chi = 2.0 * np.arcsinh(np.sqrt(E / 32.0))
        return 4.0 * np.cosh(chi / 3.0) - 2.0

    @staticmethod
    def _librational_roots(E):
        """(x2, x3, x4) for -32 <= E <= 0: the left branch's end and the oval.

        w = q + 2 solves w^3 - 12 w = 16 + E, so w = -4 cos a and
        4 cos(pi/3 -+ a), with a = psi/3 and cos psi = -(1 + E/16). The half
        angle psi/2 comes from its sine about the nearer of E = -32 and
        E = 0, where that sine is exact; x3 then sums terms of one sign at
        the saddle, and x4 subtracts two small, accurate terms at the minimum.
        """
        psi = np.where(E < -16.0, 2.0 * np.arcsin(np.sqrt((E + 32.0) / 32.0)),
                       math.pi - 2.0 * np.arcsin(np.sqrt(-E / 32.0)))
        a = psi / 3.0
        s = 2.0 * math.sqrt(3.0) * np.sin(a)
        c = 4.0 * np.sin(0.5 * a) ** 2
        return -4.0 * np.cos(a) - 2.0, -s - c, s - c

    def _intervals(self, E, trunc):
        errors = self._below_minimum(E)
        ok = E >= self.e_min
        if self.bounded_librations:
            errors.update(_errors_at(ok & (E > 0.0), lambda e: OutsideDomain(
                "fishtail bounded librations exist only for E <= 0"), E))
            lib = ok & (E <= 0.0)
            x3, x4 = np.zeros(E.size), np.zeros(E.size)
            _, x3[lib], x4[lib] = self._librational_roots(E[lib])
            oval = lib & (x4 - x3 > _MERGE_TOL)
            x3[oval] = self._polish_turning(x3[oval], E[oval], -1)
            x4[oval] = self._polish_turning(x4[oval], E[oval], +1)
            rows = _columns_to_rows(E.size, [(x3, x4, TURNING, TURNING, oval)])
            return (*rows, errors)

        if trunc is None:
            errors.update(_errors_at(ok, lambda e: TruncationRequired(
                "fishtail level curves are unbounded; pass a Truncation"), E))
            return (*_columns_to_rows(E.size, []), errors)
        a = float(trunc.a)

        circ = ok & (E >= 0.0)
        x2c = np.zeros(E.size)
        x2c[circ] = self._polish_turning(self._circulational_x2(E[circ]), E[circ], +1)
        errors.update(_errors_at(circ & (a >= x2c), lambda e, x2: TruncationInsideDomain(
            f"truncation a={a} exceeds x2={x2}"), E, x2c))

        lib = ok & (E < 0.0)
        x2, x3, x4 = np.zeros(E.size), np.zeros(E.size), np.zeros(E.size)
        x2[lib], x3[lib], x4[lib] = self._librational_roots(E[lib])
        x2p, x3p, x4p = x2.copy(), x3.copy(), x4.copy()
        for x, xp, outward in ((x2, x2p, +1), (x3, x3p, -1), (x4, x4p, +1)):
            xp[lib] = self._polish_turning(x[lib], E[lib], outward)
        # the cut keeps the part of the level curve with q >= a; pieces that
        # fall entirely left of it are dropped, and a branch end within
        # _MERGE_TOL of the oval merges with it into one interval from a
        left = lib & (a < x2)
        oval_exists = lib & (x4 - x3 > _MERGE_TOL)
        oval = oval_exists & (a < x4)
        merge = oval & left & (x3p - x2p <= _MERGE_TOL)
        from_cut = merge | (a >= x3p)
        # with no piece left, a point oval (E = -32) has zero length
        errors.update(_errors_at(oval_exists & ~left & ~oval, lambda e: TruncationInsideDomain(
            f"truncation a={a} lies right of the whole level curve"), E))
        rows = _columns_to_rows(E.size, [
            (a, np.where(circ, x2c, x2p), TRUNCATION, TURNING,
             (circ & (a < x2c)) | (left & ~merge)),
            (np.where(from_cut, a, x3p), x4p,
             np.where(from_cut, TRUNCATION, TURNING), TURNING, oval)])
        return (*rows, errors)


class HarmonicOscillator(HamiltonianModel):
    """H = (q^2 + p^2)/2; circular level curves, no separatrix."""

    name = "harmonic-oscillator"
    multiplier = 2
    e_min = 0.0
    point_symmetric = True

    def potential(self, q):
        return 0.5 * q * q

    def potential_slope(self, q):
        return q

    def deflated_radicand(self, q, E, lo, hi, d_lo, d_hi, t_lo, t_hi):
        # p^2 = (r - q)(r + q) with turning ends -r, r
        return np.where(t_lo & t_hi, 1.0, np.where(t_hi, q + hi, -lo - q))

    def _intervals(self, E, trunc):
        errors = _errors_at(E < 0.0, lambda e: BelowMinimum(
            "harmonic oscillator has no level curve below E=0"), E)
        pos = E > 0.0
        r = np.zeros(E.size)
        r[pos] = self._polish_turning(np.sqrt(2.0 * E[pos]), E[pos], +1)
        rows = _columns_to_rows(E.size, [(-r, r, TURNING, TURNING, pos)])
        return (*rows, errors)


class HarmonicRepulsor(HamiltonianModel):
    """H = (p^2 - q^2)/2; hyperbolic level curves truncated at hyperbolic angle t_star.

    One branch piece is parametrised per energy sign, giving the exact
    closed form length sqrt(2|E|) * integral_0^{t_star} sqrt(sinh^2 + cosh^2).
    The cut is intrinsic to the model (no Truncation object needed).
    """

    name = "harmonic-repulsor"
    e_sx = 0.0
    bounded = False
    saddles = (0.0,)
    point_symmetric = True

    def __init__(self, t_star=1.0):
        if not 0.0 < t_star < math.inf:
            raise ValueError("t_star must be positive and finite")
        self.t_star = float(t_star)
        try:
            # the cut's |q| over sqrt(2|E|), for E > 0 and for E < 0
            self._cut_pos, self._cut_neg = math.sinh(self.t_star), math.cosh(self.t_star)
        except OverflowError:
            raise ValueError(f"t_star={self.t_star} overflows cosh(t_star)") from None
        # the E < 0 cut r cosh(t_star) has an ulp of r in a width r (cosh(t_star) - 1)
        if self._cut_neg - 1.0 < 1e-6:
            raise ValueError(f"t_star={self.t_star} is below about 1.4e-3 (cosh(t_star) "
                             "- 1 < 1e-6): the E < 0 cut cannot hold its width in floats")

    def potential(self, q):
        return -0.5 * q * q

    def potential_slope(self, q):
        return -q

    def deflated_radicand(self, q, E, lo, hi, d_lo, d_hi, t_lo, t_hi):
        # p^2 = (q - r)(q + r) for E < 0, turning at lo = r or hi = -r
        return np.where(t_lo, q + lo, -q - hi)

    def _intervals(self, E, trunc):
        # sqrt(2E) for E > 0, sqrt(-2E) for E < 0
        r = np.sqrt(np.abs(2.0 * E))
        pos, neg = E > 0.0, E < 0.0
        hi = r * np.where(pos, self._cut_pos, self._cut_neg)
        lo = np.zeros(E.size)
        lo[neg] = self._polish_turning(r[neg], E[neg], -1)
        f_lo = np.where(pos, REGULAR, TURNING)
        rows = _columns_to_rows(E.size, [(lo, hi, f_lo, TRUNCATION, pos | neg)])
        return (*rows, {})


def _ordinal(i):
    """The bits of floats (as int64) to their rank among floats, with both
    zeros at 0, so adjacent floats differ by 1; applied to ranks, the same
    map gives back the bits."""
    return np.where(i < 0, np.iinfo(np.int64).min - i, i)


def _bisect(f, y, a, b):
    """Roots of f = y by bisection, elementwise on arrays.

    ``a`` is each bracket's end where y - f <= 0 and ``b`` its other end.
    A bracket is halved in its number of floats, not in length, on the sign
    of y - f at the midpoint, until f equals y there, when that midpoint is
    returned, or its ends are adjacent floats (or equal), when ``a`` is
    returned: y - f <= 0 there and > 0 at its neighbour toward ``b``. That
    takes at most 64 halvings, about 42 for a scan cell near |q| = 1. f is
    called once per halving on the midpoints of the open brackets; a NaN
    there raises ValueError.
    """
    a = _ordinal(np.asarray(a, dtype=np.float64).view(np.int64))
    b = _ordinal(np.asarray(b, dtype=np.float64).view(np.int64))
    y = np.broadcast_to(np.asarray(y, dtype=np.float64), a.shape)
    live = np.arange(a.size)
    while True:
        la, lb = a[live], b[live]
        m = (la >> 1) + (lb >> 1) + (la & lb & 1)  # floor((la + lb) / 2)
        open_ = (m != la) & (m != lb)
        live, m = live[open_], m[open_]
        if not live.size:
            return _ordinal(a).view(np.float64)
        g = y[live] - np.asarray(f(_ordinal(m).view(np.float64)), dtype=np.float64)
        if np.isnan(g).any():
            raise ValueError("NaN function value inside a bracket")
        a[live[g <= 0.0]] = m[g <= 0.0]
        b[live[g >= 0.0]] = m[g >= 0.0]  # g == 0 closes the bracket on m


# cells of a custom model's scan grid, before its extrema are inserted
_SCAN_CELLS = 4096


class MechanicalModel(HamiltonianModel):
    """Custom system H = p^2/2 + V(q); domains found by bisection on a scan grid.

    ``potential`` V and ``potential_slope`` V' must be vectorized: given an
    array of coordinates they return an array of the same shape. Energies,
    domains and batched temporal descriptors (``temporal_map``,
    ``ld_landscape_line``) evaluate them on arrays.

    The level-curve turning points of E - V(q) = 0 are located on
    ``search_interval`` from a scan grid of ``_SCAN_CELLS`` equal cells.
    Every interior extremum of V on that grid is polished to the root of V'
    on the cell pair around it (one :func:`_bisect` call for all of them)
    and inserted as a node, so a cell holds at most one turning point of an
    energy (unless V has extrema that the scan misses). The polished maxima
    are the model's saddles, whose energies are breakpoints and which split
    the quadrature panels, and ``e_min`` is the least scan value. A batch
    of energies finds every energy's sign-change cells by searching each
    cell's V range in the sorted energies and bisects all their roots with
    one :func:`_bisect` call; the search ends and the roots, in q order,
    bound the candidate intervals. A root has radicand <= 0: it is an exact
    root of the computed radicand, or the float just outside the level
    curve beside one where it is > 0. V may be infinite (a hard wall),
    where no maximum is taken, but not NaN on the scan grid, which raises
    ``ValueError``.
    """

    kernel_code = None
    multiplier = 2

    def __init__(self, potential, potential_slope, search_interval,
                 name="custom-mechanical", e_sx=None):
        self.potential, self.potential_slope = potential, potential_slope
        self.search_lo, self.search_hi = map(float, search_interval)
        if not (math.isfinite(self.search_lo) and math.isfinite(self.search_hi)):
            raise ValueError("search interval must be finite")
        if not self.search_lo < self.search_hi:
            raise ValueError("search interval must have lo < hi")
        self.name = name
        qs = np.linspace(self.search_lo, self.search_hi, _SCAN_CELLS + 1)
        v = np.asarray(potential(qs), dtype=np.float64)
        nan = np.flatnonzero(np.isnan(v))
        if nan.size:
            # a NaN minimum would leave no energy below it and no rows: every
            # ell would read 0 (an infinite V is a hard wall and stays)
            raise ValueError(f"{name}: potential is NaN at q={float(qs[nan[0]])!r} of the scan grid")
        # a maximum only at a finite node: inf >= inf > V beside a hard wall
        # is no saddle
        mid = v[1:-1]
        tops = np.flatnonzero(np.isfinite(mid) & (mid >= v[:-2]) & (mid > v[2:])) + 1
        pits = np.flatnonzero((mid <= v[:-2]) & (mid < v[2:])) + 1
        j = np.concatenate([tops, pits])
        step = np.repeat([1, -1], [tops.size, pits.size])
        # -V' <= 0 left of a maximum and right of a minimum
        x = _bisect(potential_slope, 0.0, qs[j - step], qs[j + step])
        self.saddles = tuple(x[:tops.size].tolist())
        # an extremum that V places no further out than its node (a flat
        # one) adds no node
        x = x[step * np.asarray(potential(x), dtype=np.float64) > step * v[j]]
        self._qs = np.union1d(qs, x)
        self._vs = np.asarray(potential(self._qs), dtype=np.float64)
        self.scan_points = self._qs.size - 1  # cells of the scan grid
        self.e_min = float(np.min(self._vs))
        self.e_sx = math.nan if e_sx is None else float(e_sx)

    def breakpoints(self, trunc=None):
        # the search ends cut the level curves like a truncation
        ends = [e for e in (self._vs[0], self._vs[-1]) if math.isfinite(e)]
        return np.union1d(super().breakpoints(), ends)

    def _crossing_cells(self, E):
        """(energy, cell) index pairs, sorted, of the scan cells with a root.

        These are the cells of the dense test
        ``g0 == 0 | sign(g0) * sign(g1) < 0`` on g = E - V over the scan grid
        (a root on the cell's left node, or a sign change across the cell);
        cell ``scan_points`` stands for a root on the last node.

        Each cell's candidates are the energies in its range of V, [min,
        max] of its two node values (the last node's range is its one
        value): two ``searchsorted`` calls of the range ends into the sorted
        batch bound them. The dense test then keeps exactly its cells.
        """
        vs, last = self._vs, self.scan_points
        order = np.argsort(E, kind="stable")
        sorted_e = E[order]
        first = np.searchsorted(sorted_e, np.append(np.minimum(vs[:-1], vs[1:]), vs[-1]))
        count = np.searchsorted(sorted_e, np.append(np.maximum(vs[:-1], vs[1:]), vs[-1]),
                                side="right") - first
        c = np.repeat(np.arange(last + 1), count)
        e = order[np.repeat(first - (np.cumsum(count) - count), count) + np.arange(c.size)]
        # the sign change is tested on signs (g0 * g1 can underflow to -0.0);
        # at the last node g1 is g0, so only a root on it is kept
        g0 = E[e] - vs[c]
        g1 = E[e] - vs[np.minimum(c + 1, last)]
        keep = (g0 == 0.0) | (np.sign(g0) * np.sign(g1) < 0.0)
        e, c = e[keep], c[keep]
        order = np.lexsort((c, e))
        return e[order], c[order]

    def _intervals(self, E, trunc):
        errors = _errors_at(E < self.e_min, lambda e: BelowMinimum(
            f"{self.name}: E={e} below potential minimum"), E)
        qs, vs = self._qs, self._vs
        ok = np.flatnonzero(E >= self.e_min)
        owner, cell = self._crossing_cells(E[ok])
        owner = ok[owner]
        # each root's cell bisected from its end where E - V <= 0; a root on
        # a node is a bracket of one point
        left, right = qs[cell], qs[np.minimum(cell + 1, self.scan_points)]
        g0 = E[owner] - vs[cell]
        roots = _bisect(self.potential, E[owner], np.where(g0 > 0.0, right, left),
                        np.where(g0 < 0.0, right, left))

        # edges of an energy: search_lo (a cut), its roots in q order (turning
        # points), search_hi (a cut); a root may coincide with a search end.
        # Listed by kind, one stable sort by owner puts them in q order.
        n = ok.size
        edge_owner = np.concatenate([ok, owner, ok])
        edges = np.concatenate([np.full(n, self.search_lo), roots, np.full(n, self.search_hi)])
        flags = np.repeat(np.array([TRUNCATION, TURNING, TRUNCATION], dtype=np.int8),
                          [n, roots.size, n])
        by_owner = np.argsort(edge_owner, kind="stable")
        owner, lo, hi, f_lo, f_hi = _edge_rows(edge_owner[by_owner], edges[by_owner],
                                               flags[by_owner])
        # an interval is kept where it is wider than _MERGE_TOL and the
        # branch is real at its midpoint
        wide = np.flatnonzero(hi - lo > _MERGE_TOL)
        keep = wide[self.radicand(0.5 * (lo[wide] + hi[wide]), E[owner[wide]]) > 0.0]
        return owner[keep], lo[keep], hi[keep], f_lo[keep], f_hi[keep], errors


# the built-ins by name, in catalogue order
_BUILTINS = {m.name: m for m in (Pendulum, Duffing, Fishtail, HarmonicOscillator,
                                 HarmonicRepulsor)}
MODEL_NAMES = tuple(_BUILTINS)

pendulum = Pendulum
duffing = Duffing
fishtail = Fishtail
harmonic_oscillator = HarmonicOscillator
harmonic_repulsor = HarmonicRepulsor
mechanical = MechanicalModel


def get_model(name, **options):
    """Look up a built-in model by name; options go to its constructor."""
    try:
        cls = _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; built-ins: {', '.join(MODEL_NAMES)}"
        ) from None
    return cls(**options)
