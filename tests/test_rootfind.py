"""The custom models' array bisection, and ldkit's scipy-free import.

``models._bisect`` solves every turning point of a custom model's batch of
energies, and polishes the scan's extrema to roots of V', in one call.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ldkit as lk
from ldkit.models import TURNING, _bisect


def test_turning_ends_are_outside_and_tight(double_well):
    # each turning end has radicand <= 0 (so ``branch`` is exactly 0 there,
    # as _polish_turning makes it for the built-ins). Where it is < 0, the
    # float beside it on the inner side has radicand > 0; where it is 0,
    # the bisection stopped on an exact root of the radicand as computed
    m = double_well
    energies = np.concatenate([np.linspace(-0.25, 2.5, 601),
                               -0.25 + np.logspace(-14, -1, 40)])
    rows = m.domains(energies)
    n = 0
    for ends, flags, inward in ((rows.lo, rows.f_lo, np.inf),
                                (rows.hi, rows.f_hi, -np.inf)):
        turning = flags == TURNING
        q, E = ends[turning], energies[rows.owner[turning]]
        rad = m.radicand(q, E)
        assert np.all(rad <= 0.0)
        below = rad < 0.0
        assert np.all(m.radicand(np.nextafter(q[below], inward), E[below]) > 0.0)
        n += np.count_nonzero(below)
    assert n > 800


def test_slope_returning_a_scalar():
    # V = (q - 0.3)^2 has one extremum, so its slope is only ever called on
    # one point, and may return a Python float
    m = lk.mechanical(lambda q: (np.asarray(q) - 0.3) ** 2,
                      lambda q: 2.0 * (float(np.ravel(q)[0]) - 0.3), (-1.0, 1.5))
    assert m.e_min <= 1e-30
    ((lo, hi), _), = m.domain(0.01).pairs()
    assert lo == pytest.approx(0.2, abs=1e-12) and hi == pytest.approx(0.4, abs=1e-12)
    # on arrays, a scalar f broadcasts to every bracket: where y - f <= 0
    # throughout, the end a moves up to b; where it is > 0, a stays
    x = _bisect(lambda q: 2.0, np.array([1.0, 3.0]), np.array([0.0, 5.0]),
                np.array([5.0, 0.0]))
    assert x.tolist() == [np.nextafter(5.0, 0.0), 5.0]


def test_bracket_of_one_point_and_adjacent_ends():
    a = np.array([1.0, 2.0, -0.0])
    b = np.array([1.0, np.nextafter(2.0, 3.0), 5e-324])
    calls = []
    x = _bisect(lambda q: calls.append(q) or q, 0.0, a, b)
    assert x.tolist() == [1.0, 2.0, 0.0] and not calls


def test_nan_inside_a_bracket_raises():
    f = lambda q: np.where(q > 0.5, np.nan, q)
    with pytest.raises(ValueError):
        _bisect(f, 0.7, np.array([1.0]), np.array([0.0]))
    # a NaN band inside one scan cell of a custom potential, hit by the
    # bisection of a turning point there (cell [0.5, 0.5 + 2^-10])
    m = lk.mechanical(
        lambda q: np.where((np.asarray(q) > 0.5004) & (np.asarray(q) < 0.5006),
                           np.nan, np.asarray(q) ** 2),
        lambda q: 2.0 * np.asarray(q), (-2.0, 2.0))
    with pytest.raises(ValueError):
        m.domain(0.5005 ** 2)


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
