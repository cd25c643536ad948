#!/usr/bin/env python3
"""Generate the reference data the benchmark checks ldkit against.

    python3 ldbench/make_refs.py            # rewrites ldbench/refs/*.json

* ``refs/ell_mpmath.json``: level-curve lengths ell(E) to 40 significant
  digits, computed with mpmath at 60 digits of working precision. Turning
  points come from mpmath (closed forms or ``polyroots``), never from
  ldkit's ``domain``. The radicand is evaluated in factored form from its
  roots, and every interval is integrated in the variable phi with
  q = x1 + (x2 - x1) (1 - cos phi) / 2, which makes the inverse-square-root
  endpoint behaviour smooth. Each value is computed twice with different
  breakpoint sets and must agree to 1e-45 relative.
* ``refs/ld_dop853.json``: temporal Lagrangian descriptors (arc length over
  [-t, t]) from scipy's DOP853 at rtol 1e-13 on the augmented system
  (q, p, s), for the initial conditions of the benchmark's check grid and
  check line.

The energy sets deliberately keep points where ldkit is known to be
inaccurate (for example Duffing at E = -1e-5 and -1e-6, pendulum at
E = -1e-8); the benchmark reports the error, it does not gate on it.
"""

import json
import math
import pathlib

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp

HERE = pathlib.Path(__file__).resolve().parent
REFS = HERE / "refs"

DPS = 60
DIGITS = 40
LADDER = [10.0 ** -k for k in range(2, 9)]  # eps = |E - E_c|, 1e-2 .. 1e-8

# Initial conditions of the temporal reference check (see checks.py).
LD_T = 20.0
LD_GRID = dict(q_lo=-math.pi, q_hi=math.pi, p_lo=-2.5, p_hi=2.5, nq=6, np=4)
LD_LINE = dict(fixed="q", value=0.0, lo=0.1, hi=1.5, n=8)


# ----------------------------------------------------------------------
# level-curve models in mpmath
# ----------------------------------------------------------------------
#
# Each model returns (multiplier, pieces); a piece is (x1, x2, rad, drad):
# rad(d1, d2) evaluates the radicand p^2 at q = x1 + d1 = x2 - d2 from the
# two endpoint distances (so no root is ever subtracted from a nearby q),
# and drad(q) is its q-derivative.

def pendulum(E):
    # p^2 = 2(E + 1 + cos q)
    drad = lambda q: -2 * mp.sin(q)
    if E < 0:
        th = mp.acos(-E - 1)
        # 2(cos q - cos th) = 4 sin((th + q)/2) sin((th - q)/2)
        rad = lambda d1, d2: 4 * mp.sin(d1 / 2) * mp.sin(d2 / 2)
        return 2, [(-th, th, rad, drad)]
    # 2E + 4 cos^2(q/2); cos(q/2) = sin(d/2) at distance d from +-pi
    rad = lambda d1, d2: 2 * E + 4 * mp.sin(min(d1, d2) / 2) ** 2
    return 2, [(-mp.pi, mp.pi, rad, drad)]


def _duffing_piece(E, lo, hi):
    """Piece of p^2 = 2E + q^2 - q^4/2 = (q^2 - x1^2)(x2^2 - q^2)/2."""
    s = mp.sqrt(1 + 4 * E)
    x2 = mp.sqrt(1 + s)
    x1 = mp.sqrt(1 - s) if E < 0 else None
    right = lo >= 0  # piece on q >= 0, outer root at its upper end

    def rad(d1, d2):
        do = d2 if right else d1  # distance of |q| from x2
        outer = do * (2 * x2 - do)
        if E < 0:
            di = d1 if right else d2  # distance of |q| from x1
            inner = di * (2 * x1 + di)
        else:
            q = lo + d1 if d1 <= d2 else hi - d2
            inner = q * q + (s - 1)
        return inner * outer / 2

    return (lo, hi, rad, lambda q: 2 * q - 2 * q ** 3)


def _duffing_ends(E):
    s = mp.sqrt(1 + 4 * E)
    return (mp.sqrt(1 - s) if E < 0 else None), mp.sqrt(1 + s)


def duffing(E):
    x1, x2 = _duffing_ends(E)
    if E < 0:
        return 4, [_duffing_piece(E, x1, x2)]
    return 4, [_duffing_piece(E, mp.mpf(0), x2)]


def mechanical_double_well(E):
    """V = -q^2/2 + q^4/4 on the search interval (-2, 2), multiplier 2."""
    x1, x2 = _duffing_ends(E)
    if E < 0:
        return 2, [_duffing_piece(E, -x2, -x1), _duffing_piece(E, x1, x2)]
    return 2, [_duffing_piece(E, -x2, mp.mpf(0)), _duffing_piece(E, mp.mpf(0), x2)]


def fishtail(E, a=-5):
    # p^2 = E + 32 - q^3 - 6 q^2 = -(q - r1)(q - r2)(q - r3)
    a = mp.mpf(a)
    m4 = mp.mpf(-4)
    drad = lambda q: -3 * q * (q + 4)
    if E == 0:
        # (2 - q)(q + 4)^2: double root at the saddle q = -4
        left = lambda d1, d2: (6 + d2) * d2 ** 2
        right = lambda d1, d2: d2 * d1 ** 2
        return 2, [(a, m4, left, drad), (m4, mp.mpf(2), right, drad)]
    roots = mp.polyroots([1, 6, 0, -(E + 32)], maxsteps=400, extraprec=400)
    if E < 0:
        x2, x3, x4 = sorted(mp.re(r) for r in roots)
        pieces = []
        if a < x2:
            pieces.append((a, x2, _cubic_rad(a, x2, (x2, x3, x4)), drad))
        pieces.append((x3, x4, _cubic_rad(x3, x4, (x2, x3, x4)), drad))
        return 2, pieces
    # one real root x2 and a complex pair u +- iv: (x2 - q)((q - u)^2 + v^2)
    x2 = max(mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -40)
    cpx = max(roots, key=lambda r: abs(mp.im(r)))
    u, v = mp.re(cpx), mp.im(cpx)

    def make(lo, hi):
        def rad(d1, d2):
            q = lo + d1 if d1 <= d2 else hi - d2
            return ((x2 - hi) + d2) * ((q - u) ** 2 + v ** 2)
        return rad
    return 2, [(a, m4, make(a, m4), drad), (m4, x2, make(m4, x2), drad)]


def _cubic_rad(lo, hi, roots):
    def rad(d1, d2):
        out = mp.mpf(-1)
        for r in roots:
            if r == lo:
                out *= d1
            elif r == hi:
                out *= -d2
            elif r < lo:
                out *= (lo - r) + d1
            else:
                out *= -((r - hi) + d2)
        return out
    return rad


def ell_pieces(multiplier, pieces, step):
    """multiplier * sum of branch arc lengths, integrated in phi."""
    total = mp.mpf(0)
    for x1, x2, rad, drad in pieces:
        w = x2 - x1

        def g(phi):
            s2 = mp.sin(phi / 2) ** 2
            c2 = mp.cos(phi / 2) ** 2
            d1, d2 = w * s2, w * c2
            q = x1 + d1 if d1 <= d2 else x2 - d2
            r = rad(d1, d2)
            if r <= 0:
                return mp.mpf(0)
            dq = w * mp.sin(phi) / 2
            return abs(dq) * mp.sqrt(1 + drad(q) ** 2 / (4 * r))

        # cluster breakpoints geometrically toward both ends, where the
        # near-separatrix necks of the level curves sit
        pts = [mp.mpf(0)]
        k = 1.0
        while k <= 16.0:
            d = mp.mpf(10) ** (-k / 2.0)
            pts.append(2 * mp.asin(mp.sqrt(d)))
            k += step
        pts = sorted(set(pts))
        pts = pts + [mp.pi - p for p in reversed(pts)]
        pts = sorted(set(pts))
        total += mp.quad(g, pts, maxdegree=10)
    return multiplier * total


def repulsor(E, t_star=1):
    # closed form sqrt(2|E|) * int_0^t* sqrt(sinh^2 + cosh^2) dt
    c = mp.quad(lambda t: mp.sqrt(mp.sinh(t) ** 2 + mp.cosh(t) ** 2), [0, t_star])
    return mp.sqrt(2 * abs(E)) * c


def oscillator(E):
    return 2 * mp.pi * mp.sqrt(2 * E)


def ladder(e_c, regular=(), elliptic=None):
    out = []
    for eps in LADDER:
        out.append((e_c - eps, "below", eps))
        out.append((e_c + eps, "above", eps))
    out.append((e_c, "separatrix", 0.0))
    for e in regular:
        out.append((e, "regular", None))
    if elliptic is not None:
        for eps in (1e-2, 1e-4, 1e-6):
            out.append((elliptic + eps, "elliptic", eps))
    return out


CASES = [
    ("pendulum", None, pendulum,
     ladder(0.0, (-1.9, -1.5, -1.0, -0.5, 0.5, 1.0), elliptic=-2.0)),
    ("duffing", None, duffing,
     ladder(0.0, (-0.2, -0.1, 0.5, 1.0), elliptic=-0.25)),
    ("fishtail", -5.0, fishtail,
     ladder(0.0, (-20.0, -10.0, -5.0, 5.0, 10.0), elliptic=-32.0)),
    ("harmonic-oscillator", None, None,
     [(e, "regular", None) for e in (1e-8, 1e-6, 1e-4, 1e-2, 0.5, 1.0, 2.0)]),
    ("harmonic-repulsor", None, None,
     [c for c in ladder(0.0, (-1.0, -0.5, 0.5, 1.0)) if c[1] != "separatrix"]),
    ("double-well", None, mechanical_double_well,
     ladder(0.0, (-0.2, 0.5, 1.0))),
]


def ell_reference(name, E):
    Em = mp.mpf(E)  # the exact binary double ldkit is given
    if name == "harmonic-oscillator":
        return oscillator(Em), oscillator(Em)
    if name == "harmonic-repulsor":
        return repulsor(Em), repulsor(Em)
    fn = dict((c[0], c[2]) for c in CASES)[name]
    mult, pieces = fn(Em)
    return ell_pieces(mult, pieces, 1.0), ell_pieces(mult, pieces, 0.5)


def make_ell_refs():
    mp.mp.dps = DPS
    entries = []
    for name, trunc, _, energies in CASES:
        for E, side, eps in energies:
            a, b = ell_reference(name, E)
            rel = abs(a - b) / abs(a)
            if rel > mp.mpf(10) ** -45:
                raise RuntimeError(f"{name} E={E!r}: variants differ by {mp.nstr(rel, 3)}")
            entries.append({
                "model": name, "trunc": trunc, "E": float(E), "side": side,
                "eps": eps, "ell": mp.nstr(a, DIGITS, strip_zeros=False),
            })
            print(f"{name:20s} {E!r:>14} {side:10s} {mp.nstr(a, 20)}", flush=True)
    return {
        "generator": "ldbench/make_refs.py",
        "method": "mpmath quad in phi, factored radicand, turning points from mpmath",
        "working_dps": DPS,
        "digits": DIGITS,
        "entries": entries,
    }


# ----------------------------------------------------------------------
# temporal references
# ----------------------------------------------------------------------

def _ld_dop853(field, q0, p0, t):
    """(forward, backward) arc lengths over [0, t] of the augmented flow."""
    def rhs(_, y, sign):
        fq, fp = field(y[0], y[1])
        return [sign * fq, sign * fp, math.hypot(fq, fp)]

    out = []
    for sign in (1.0, -1.0):
        sol = solve_ivp(rhs, (0.0, t), [q0, p0, 0.0], args=(sign,),
                        method="DOP853", rtol=1e-13, atol=1e-15)
        if sol.status != 0:
            raise RuntimeError(f"DOP853 failed at ({q0}, {p0}): {sol.message}")
        out.append(float(sol.y[2, -1]))
    return out


def make_ld_refs():
    g = LD_GRID
    qs = np.linspace(g["q_lo"], g["q_hi"], g["nq"])
    ps = np.linspace(g["p_lo"], g["p_hi"], g["np"])
    pend = lambda q, p: (p, -math.sin(q))
    well = lambda q, p: (p, q - q ** 3)
    entries = []
    for p in ps:
        for q in qs:
            plus, minus = _ld_dop853(pend, float(q), float(p), LD_T)
            entries.append({"model": "pendulum", "q": float(q), "p": float(p),
                            "plus": plus, "minus": minus})
    line = LD_LINE
    for p in np.linspace(line["lo"], line["hi"], line["n"]):
        plus, minus = _ld_dop853(well, line["value"], float(p), LD_T)
        entries.append({"model": "double-well", "q": line["value"], "p": float(p),
                        "plus": plus, "minus": minus})
    return {
        "generator": "ldbench/make_refs.py",
        "method": "scipy solve_ivp DOP853, rtol 1e-13, atol 1e-15, augmented (q, p, s)",
        "t": LD_T,
        "grid": LD_GRID,
        "line": LD_LINE,
        "entries": entries,
    }


def main():
    REFS.mkdir(exist_ok=True)
    ld = make_ld_refs()
    (REFS / "ld_dop853.json").write_text(json.dumps(ld, indent=1) + "\n")
    ell = make_ell_refs()
    (REFS / "ell_mpmath.json").write_text(json.dumps(ell, indent=1) + "\n")


if __name__ == "__main__":
    main()
