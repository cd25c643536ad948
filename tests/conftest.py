import math

import numpy as np
import pytest

import ldkit as lk


@pytest.fixture(scope="session")
def pend():
    return lk.pendulum()


@pytest.fixture(scope="session")
def duff():
    return lk.duffing()


@pytest.fixture(scope="session")
def fish():
    return lk.fishtail()


@pytest.fixture(scope="session")
def trunc():
    return lk.Truncation(-5.0)


@pytest.fixture(scope="session")
def ho():
    return lk.harmonic_oscillator()


@pytest.fixture(scope="session")
def rep():
    return lk.harmonic_repulsor()


@pytest.fixture(scope="session")
def double_well():
    """A custom model with an even V; only built-ins declare that symmetry."""
    return lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4,
                         lambda q: q ** 3 - q, (-2.0, 2.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def lane_counts(monkeypatch):
    """Number of lanes of every batched-stepper call the test makes."""
    from ldkit import _kernels

    seen = []
    real = _kernels.dp45_lanes

    def spy(f, q0, p0, *args):
        seen.append(np.size(q0))
        return real(f, q0, p0, *args)

    monkeypatch.setattr(_kernels, "dp45_lanes", spy)
    return seen


def random_energies(model, rng, n, span_above=1.0):
    """Random energies in (e_min, e_sx) and (e_sx, e_sx + span_above)."""
    e_min, e_sx = model.critical_energies()
    if not math.isfinite(e_sx):
        lo = e_min if math.isfinite(e_min) else 0.0
        return lo + 1e-6 + rng.uniform(0.0, span_above, n)
    out = []
    for u in rng.uniform(0.0, 1.0, n):
        if u < 0.5 and math.isfinite(e_min):
            out.append(e_min + (e_sx - e_min) * rng.uniform(1e-4, 1.0 - 1e-4))
        else:
            out.append(e_sx + span_above * rng.uniform(1e-4, 1.0))
    return np.array(out)


def interior_points(model, E, trunc, rng, n):
    """Random coordinates strictly inside the domain intervals."""
    dom = model.domain(E, trunc)
    pts = []
    intervals = list(dom.pairs())
    if not intervals:
        return np.array([])
    while len(pts) < n:
        (lo, hi), _ = intervals[rng.integers(len(intervals))]
        w = hi - lo
        pts.append(lo + w * rng.uniform(0.05, 0.95))
    return np.array(pts)
