"""The custom models' bracketed root finder, and ldkit's scipy-free import.

``models._brentq`` ports the C loop behind ``scipy.optimize.brentq``;
scipy serves here only as a test oracle, as ``scipy.special.ellipe`` does
elsewhere. Each case compares the returned float, or the exception type,
and the sequence of points at which f was evaluated, bit for bit.
"""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

import ldkit as lk
from ldkit.models import _brentq

# the tolerances custom models have solved their turning points at
XTOL, RTOL = 1e-12, 9e-16


def solve_both(f, a, b, **options):
    """[(result or exception type, evaluation points)] of scipy's brentq at
    the port's relative tolerance and of the port, in that order."""
    out = []
    for solve in (lambda *args, **kw: brentq(*args, rtol=RTOL, **kw), _brentq):
        xs = []

        def g(x):
            xs.append(x)
            return f(x)

        try:
            r = solve(g, a, b, **options)
        except (ValueError, RuntimeError) as exc:
            r = type(exc)
        out.append((r, xs))
    return out


def double_well(scale):
    return lk.mechanical(lambda q: scale * (-0.5 * q * q + 0.25 * q ** 4),
                         lambda q: scale * (-q + q ** 3), (-2.0, 2.0))


def turning_brackets(model, energies):
    """(f, a, b) of every turning point of ``model`` at ``energies`` that is
    solved inside a scan cell, as the model's domains solve it."""
    owner, cell = model._crossing_cells(energies)
    for e, i in zip(owner.tolist(), cell.tolist()):
        E = float(energies[e])
        if i == model.scan_points or E - model._vs[i] == 0.0:
            continue
        yield ((lambda x, E=E: E - float(model.system.potential(x))),
               model._qs[i], model._qs[i + 1])


@pytest.mark.parametrize("scale", [1.0, 1e-200])
def test_port_matches_brentq_on_double_well_turning_points(scale):
    # at the 1e-200 scale the extrapolation denominator underflows to zero,
    # where C bisects on an inf or NaN step and Python would raise
    m = double_well(scale)
    energies = scale * np.concatenate([np.linspace(-0.25, 2.5, 601),
                                       -0.25 + np.logspace(-14, -1, 40)])
    n = 0
    for f, a, b in turning_brackets(m, energies):
        ref, port = solve_both(f, a, b, xtol=XTOL)
        assert port == ref
        assert isinstance(ref[0], float)
        n += 1
    assert n > 1000


def test_port_matches_brentq_on_slope_roots():
    # the e_min and saddle searches: roots of V' across the scan cell pair
    # around the scan grid's lowest node and around each interior maximum
    wells = [(lambda q, c=c: -0.5 * q * q + 0.25 * q ** 4 + c * q,
              lambda q, c=c: -q + q ** 3 + c) for c in (0.0, 0.1, 1e-10, -0.3, 0.37)]
    wells += [(lambda q: np.cos(5.0 * q) + 0.1 * q * q,
               lambda q: -5.0 * np.sin(5.0 * q) + 0.2 * q)]
    n = 0
    for V, dV in wells:
        m = lk.mechanical(V, dV, (-3.0, 3.0))
        v = m._vs
        tops = np.flatnonzero((v[1:-1] >= v[:-2]) & (v[1:-1] > v[2:])) + 1
        slope = lambda x: float(np.ravel(dV(np.array([x])))[0])
        for j in [int(np.argmin(v)), *tops.tolist()]:
            a, b = m._qs[j - 1], m._qs[j + 1]
            for xtol in (XTOL, np.finfo(float).eps * (b - a), 5e-324):
                ref, port = solve_both(slope, a, b, xtol=xtol)
                assert port == ref
                assert isinstance(ref[0], float)
                n += 1
    assert n >= 30


def test_port_root_on_either_end():
    for a, b in ((1.0, 2.0), (0.0, 1.0)):
        ref, port = solve_both(lambda x: x - 1.0, a, b, xtol=XTOL)
        assert port == ref
        assert port[0] == 1.0


def test_port_raises_as_brentq():
    cases = [(lambda x: x * x + 1.0, -1.0, 1.0),  # same-sign ends
             (lambda x: x - 3.0, 0.0, 1.0),
             (lambda x: math.nan if x > 1.5 else x - 1.0, 0.0, 2.0)]  # NaN at b
    for f, a, b in cases:
        ref, port = solve_both(f, a, b, xtol=XTOL)
        assert port == ref
        assert port[0] is ValueError


def test_port_iteration_cap():
    f = lambda x: x ** 3 - 2.0
    ref, port = solve_both(f, 0.0, 2.0, xtol=XTOL)
    assert port == ref
    # each iteration but the last (which finds the bracket converged)
    # evaluates f once after the two ends
    needed = len(port[1]) - 1
    for cap in (1, 3, needed - 1):
        ref, port = solve_both(f, 0.0, 2.0, xtol=XTOL, maxiter=cap)
        assert port == ref
        assert port[0] is RuntimeError
        assert len(port[1]) == cap + 2
    ref, port = solve_both(f, 0.0, 2.0, xtol=XTOL, maxiter=needed)
    assert port == ref
    assert port[0] == pytest.approx(2.0 ** (1.0 / 3.0), rel=0, abs=XTOL)


def test_import_and_model_builds_leave_scipy_unloaded():
    # a fresh interpreter, so that no earlier import in the test session
    # hides scipy coming back onto ldkit's import path
    code = (
        "import sys\n"
        "import ldkit as lk, ldkit.cli\n"
        "lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4,"
        " lambda q: -q + q ** 3, (-2.0, 2.0))\n"
        "lk.pendulum()\n"
        "assert ldkit.cli.run(['models']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = pathlib.Path(lk.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"
