import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ellipe

import ldkit as lk
from ldkit import REGULAR, TURNING
from ldkit.quadrature import QuadratureConfig
from conftest import random_energies


def test_quarter_circle(ho):
    r = lk.arclength_interval(ho, 0.5, (0.0, 1.0), (REGULAR, TURNING))
    assert r.value == pytest.approx(math.pi / 2, rel=1e-9)
    assert r.converged
    assert r.est_error <= 1e-10 * r.value + 1e-12
    assert r.evaluations > 0


def test_pendulum_separatrix_half_length(pend):
    # complete-elliptic-integral oracle for the single-branch length at E=0
    r = lk.arclength_interval(pend, 0.0, (-math.pi, math.pi), (TURNING, TURNING))
    assert r.value == pytest.approx(4.0 * ellipe(-1.0), rel=1e-10)
    oracle = lk.polyline_oracle(pend, 0.0, (-math.pi, math.pi), 1_000_000)
    assert r.value == pytest.approx(oracle, rel=1e-7)
    assert f"{r.value:.4f}" == "7.6404"


def test_near_elliptic_circle_limit(pend):
    E = -2.0 + 1e-6
    dom = pend.domain(E)
    iv, fl = next(iter(dom.pairs()))
    r = lk.arclength_interval(pend, E, iv, fl)
    assert r.value == pytest.approx(math.pi * math.sqrt(2.0 * (E + 2.0)), rel=1e-3)


def test_polyline_zero_width(ho):
    assert lk.polyline_oracle(ho, 0.5, (0.3, 0.3), 100) == 0.0


def test_polyline_quarter_circle(ho):
    v = lk.polyline_oracle(ho, 0.5, (0.0, 1.0), 1_000_000)
    assert v == pytest.approx(math.pi / 2, abs=1e-9)


def test_polyline_duffing_self_consistency(duff):
    E = -0.1
    iv, fl = next(iter(duff.domain(E).pairs()))
    quad = lk.arclength_interval(duff, E, iv, fl)
    poly = lk.polyline_oracle(duff, E, iv, 1_000_000)
    assert quad.value == pytest.approx(poly, rel=1e-6)


def test_polyline_monotone_in_segments(pend):
    E = -1.0
    iv, _ = next(iter(pend.domain(E).pairs()))
    vals = [lk.polyline_oracle(pend, E, iv, n)
            for n in (1000, 2000, 4000, 8000, 16000, 32000, 64000)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_polyline_rejects_tiny_segment_count(ho):
    with pytest.raises(ValueError):
        lk.polyline_oracle(ho, 0.5, (0.0, 1.0), 1)


def test_polyline_outside_domain(ho):
    with pytest.raises(lk.OutsideDomain):
        lk.polyline_oracle(ho, 0.5, (0.0, 2.0), 100)


def test_scheme_agreement_no_singular_endpoints(rng):
    # interior sub-intervals run plain Gauss-Kronrod in q; scipy's QUADPACK
    # integrator on the raw integrand is the independent second scheme
    from scipy.integrate import quad

    models = [lk.pendulum(), lk.duffing(), lk.harmonic_oscillator()]
    checked = 0
    while checked < 100:
        m = models[rng.integers(len(models))]
        E = float(random_energies(m, rng, 1)[0])
        dom = m.domain(E)
        if not dom.lo.size:
            continue
        (lo, hi), _ = next(iter(dom.pairs()))
        w = hi - lo
        sub = (lo + 0.1 * w, hi - 0.1 * w)  # interior: no singular endpoints
        a = lk.arclength_interval(m, E, sub, (REGULAR, REGULAR))

        def integrand(x):
            rad = float(m.radicand(x, E))
            return math.hypot(1.0, 0.5 * float(m.radicand_dq(x)) / math.sqrt(rad))

        b, _ = quad(integrand, *sub, limit=200, epsabs=1e-13, epsrel=1e-13)
        assert a.converged
        assert a.value == pytest.approx(b, rel=1e-9)
        checked += 1


def test_unconverged_flag_returns_best_estimate(pend):
    cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-15, max_levels=4)
    (lo, hi), fl = next(iter(pend.domain(-1.0).pairs()))
    r = lk.arclength_interval(pend, -1.0, (lo, hi), fl, cfg)
    assert not r.converged
    assert r.value == pytest.approx(lk.arclength_interval(pend, -1.0, (lo, hi), fl).value,
                                    rel=1e-6)


def test_invalid_interval(pend):
    with pytest.raises(lk.InvalidInterval):
        lk.arclength_interval(pend, -1.0, (1.0, -1.0), (REGULAR, REGULAR))


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    for bad in ({"rel_tol": math.nan}, {"abs_tol": math.nan}):
        with pytest.raises(ValueError):
            QuadratureConfig(**bad)
    for bad in (3, math.nan, 4.5):  # nan and 4.5 were once accepted
        with pytest.raises(ValueError, match="max_levels"):
            QuadratureConfig(max_levels=bad)
    assert QuadratureConfig(max_levels=np.int64(20)).max_levels == 20
    with pytest.raises(TypeError):
        QuadratureConfig(scheme="tanh-sinh")  # one scheme, no choice


def test_config_is_frozen():
    # rel_tol = nan assigned after the checks once left ell unconverged
    cfg = QuadratureConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.rel_tol = math.nan
    assert cfg.rel_tol == 1e-10


def test_against_external_integrator(pend, duff):
    # third route: scipy's adaptive QUADPACK integrator on the raw integrand
    from scipy.integrate import quad

    def total_length(model, E):
        def integrand(x):
            rad = float(model.radicand(x, E))
            return math.hypot(1.0, 0.5 * float(model.radicand_dq(x)) / math.sqrt(rad))

        out = 0.0
        for (lo, hi), fl in model.domain(E).pairs():
            brk = [b for b in model.saddles if lo < b < hi]
            v, _ = quad(integrand, lo, hi, points=brk or None, limit=400,
                        epsabs=1e-12, epsrel=1e-12)
            out += v
        return model.multiplier * out

    for model, E in ((pend, -0.6), (pend, 0.25), (duff, 1e-2), (duff, -1e-2)):
        assert lk.ell(model, E) == pytest.approx(total_length(model, E), rel=1e-8)


def test_unsplittable_panel_stops_at_any_depth_cap():
    # NaN slopes on a band keep the worst panel there until it reaches
    # floating-point resolution; a depth cap beyond any reachable depth must
    # still retire it, and the row stops unconverged
    def slope(q):
        q = np.asarray(q, dtype=np.float64)
        return np.where((q > 0.3) & (q < 0.35), np.nan, -q + q ** 3)

    well = lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4, slope, (-3.0, 3.0))
    cfg = QuadratureConfig(max_levels=10 ** 6)
    r = lk.arclength_interval(well, 0.5, (0.1, 0.9), (REGULAR, REGULAR), cfg)
    assert not r.converged
    assert 0 < r.evaluations <= 2 * 15 * 1024
