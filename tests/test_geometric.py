import math
import warnings

import numpy as np
import pytest
from scipy.special import ellipe

import ldkit as lk
from ldkit import REGULAR, TURNING


def test_ell_point_level_sets(pend, duff, ho):
    assert lk.ell(pend, -2.0) == 0.0
    assert lk.ell(duff, -0.25) == 0.0
    assert lk.ell(ho, 0.0) == 0.0


def test_ell_circle(ho):
    assert lk.ell(ho, 2.0) == pytest.approx(4.0 * math.pi, rel=1e-9)


def test_ell_pendulum_separatrix(pend):
    v = lk.ell(pend, 0.0)
    # two independent routes: chord-sum oracle and the complete elliptic
    # integral of the second kind (lobe-half composition)
    oracle = 2.0 * lk.polyline_oracle(pend, 0.0, (-math.pi, math.pi), 1_000_000)
    assert v == pytest.approx(oracle, rel=1e-7)
    assert v == pytest.approx(8.0 * ellipe(-1.0), rel=1e-10)
    assert f"{v:.4f}" == "15.2808"


def test_ell_full_output(pend):
    v, info = lk.ell(pend, -0.5, full_output=True)
    assert info.converged
    assert info.evaluations > 0
    assert info.est_error < 1e-8


def test_symmetry_half_interval(pend):
    E = -0.7
    theta = pend.domain(E).intervals[0][1]
    full = lk.arclength_interval(pend, E, (-theta, theta), (TURNING, TURNING))
    half = lk.arclength_interval(pend, E, (0.0, theta), (REGULAR, TURNING))
    assert 2.0 * half.value == pytest.approx(full.value, rel=1e-10)


def test_ell_continuity(pend, rng):
    for E in rng.uniform(-1.9, 0.9, 20):
        E = float(E)
        if abs(E) < 1e-3:
            continue
        base = lk.ell(pend, E)
        slope = abs(lk.dell_dE(pend, E, h=1e-5))
        for delta in (1e-4, 1e-6, 1e-8):
            assert abs(lk.ell(pend, E + delta) - base) <= 3.0 * slope * delta + 1e-9


def test_dell_circle(ho):
    assert lk.dell_dE(ho, 1.0) == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-5)


def test_dell_pendulum_elliptic(pend):
    eps = 1e-4
    got = lk.dell_dE(pend, -2.0 + eps)
    assert got == pytest.approx(2.0 * math.pi / math.sqrt(2.0 * eps), rel=1e-2)


def test_dell_repulsor_closed_form(rep):
    ts = np.linspace(0.0, 1.0, 2_000_001)
    kappa = np.trapezoid(np.sqrt(np.sinh(ts) ** 2 + np.cosh(ts) ** 2), ts)
    E = 0.7
    assert lk.dell_dE(rep, E) == pytest.approx(kappa / math.sqrt(2.0 * E), rel=1e-8)
    assert lk.ell(rep, E) == pytest.approx(math.sqrt(2.0 * E) * kappa, rel=1e-10)
    assert lk.ell(rep, -E) == pytest.approx(math.sqrt(2.0 * E) * kappa, rel=1e-9)


def test_dell_errors(pend):
    with pytest.raises(lk.StraddlesCritical):
        lk.dell_dE(pend, 0.0)
    # beside a breakpoint the derivative is defined: its panel ends there
    assert math.isfinite(lk.dell_dE(pend, 1e-13))
    with pytest.raises(lk.StraddlesCritical):
        lk.dell_dE(pend, -2.0)


def test_no_domain_is_built_outside_ell_batch(pend, fish, monkeypatch):
    # an energy's domain error comes back from the ell_batch calls of its
    # ell(E) pass, so landscapes, dell_dE and rate ladders build no domain
    # of their own, and raise the errors they raised when they did
    from ldkit import geometric, models
    depth, calls = [0], {True: 0, False: 0}
    real_batch = geometric.ell_batch

    def batch(*args, **kw):
        depth[0] += 1
        try:
            return real_batch(*args, **kw)
        finally:
            depth[0] -= 1

    def counted(real):
        def method(self, *args, **kw):
            calls[depth[0] > 0] += 1
            return real(self, *args, **kw)
        return method

    monkeypatch.setattr(geometric, "ell_batch", batch)
    for name in ("domain", "domains"):
        monkeypatch.setattr(models.HamiltonianModel, name,
                            counted(getattr(models.HamiltonianModel, name)))
    below = (lk.BelowMinimum, "pendulum has no level curve below E=-2.0")
    uncut = "fishtail level curves are unbounded; pass a Truncation"
    for call, (kind, message) in [
            (lambda: lk.landscape(pend, -3.0, 1.0, 11, with_derivs=True), below),
            (lambda: lk.landscape(fish, -10.0, 1.0, 11, with_derivs=True),
             (lk.TruncationRequired, uncut)),
            (lambda: lk.dell_dE(pend, -3.0), below),
            (lambda: lk.dell_dE(pend, math.nan),
             (lk.NonFiniteEnergy, "pendulum: energy E=nan is not finite")),
            (lambda: lk.sample_rates(fish, "separatrix", "below"),
             (lk.EmptyLadder, f"fishtail: every separatrix/below sample failed: {uncut}"))]:
        with pytest.raises(lk.LdkitError) as info:
            call()
        assert (type(info.value), str(info.value)) == (kind, message)
    assert math.isfinite(lk.dell_dE(pend, -0.5))
    assert calls[True] > 0 and calls[False] == 0


def test_landscape_insertion(pend):
    ls = lk.landscape(pend, -2.0, 1.0, 11)
    assert len(ls.energies) == 12  # separatrix energy inserted
    assert 0.0 in ls.energies
    ls = lk.landscape(pend, -2.0, 1.0, 601)
    assert len(ls.energies) == 601  # already a grid point
    assert np.all(np.diff(ls.energies) > 0)
    assert np.all(ls.lengths >= 0.0)


def test_landscape_derivs(pend):
    ls = lk.landscape(pend, -2.0, 1.0, 31, with_derivs=True)
    i0 = int(np.where(ls.energies == 0.0)[0][0])
    assert math.isnan(ls.derivs[i0])  # omitted at the separatrix energy
    assert math.isnan(ls.derivs[0])  # e_min sample cannot be differenced
    ok = np.isfinite(ls.derivs)
    assert ok.sum() >= len(ls.energies) - 2


def test_landscape_pendulum_argmax(pend):
    ls = lk.landscape(pend, -2.0, 1.0, 121)
    assert ls.energies[int(np.argmax(ls.lengths))] == 0.0


def test_landscape_duffing_local_max(duff):
    ls = lk.landscape(duff, -0.25, 0.5, 301)
    i0 = int(np.where(ls.energies == 0.0)[0][0])
    assert ls.lengths[i0] > ls.lengths[i0 - 1]
    assert ls.lengths[i0] > ls.lengths[i0 + 1]


def test_landscape_fishtail_local_max_and_cusp(fish, trunc):
    ls = lk.landscape(fish, -32.0, 10.0, 301, trunc=trunc)
    assert len(ls.energies) == 302  # inserted separatrix sample
    i0 = int(np.where(ls.energies == 0.0)[0][0])
    assert ls.lengths[i0] == max(ls.lengths[i0 - 2:i0 + 3])
    # cusp: one-sided slopes have opposite sign and both are steep
    d = 1e-4
    left = (lk.ell(fish, 0.0, trunc) - lk.ell(fish, -d, trunc)) / d
    right = (lk.ell(fish, d, trunc) - lk.ell(fish, 0.0, trunc)) / d
    assert left > 10.0
    assert right < -10.0


def test_landscape_validation(pend):
    with pytest.raises(ValueError):
        lk.landscape(pend, 1.0, -1.0, 10)
    with pytest.raises(ValueError):
        lk.landscape(pend, -1.0, 1.0, 1)
    with pytest.raises(lk.BelowMinimum):
        lk.landscape(pend, -3.0, 1.0, 10)


def test_landscape_rejects_non_integer_counts_and_infinite_ranges(pend):
    # n = 2.5 once ran 2 samples; e_hi = inf warned in np.linspace, then
    # raised NonFiniteEnergy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in ((-1.0, 1.0, 2.5), (-1.0, math.inf, 10), (-math.inf, 1.0, 10)):
            with pytest.raises(ValueError):
                lk.landscape(pend, *args)
    assert lk.landscape(pend, -1.0, -0.5, np.int64(3)).energies.size == 3


# -- ray crossing factor ----------------------------------------------------

def test_ray_arc_factor_endpoint():
    for lam in (0.1, 1.0, 10.0):
        assert lk.ray_arc_factor(lam, math.pi) == pytest.approx(math.pi / lam,
                                                                abs=1e-12)


def test_ray_arc_factor_origin_limit():
    for lam in (0.1, 1.0, 10.0):
        assert lk.ray_arc_factor(lam, 0.0) == 0.0
        assert lk.ray_arc_factor(lam, 1e-9) == pytest.approx(0.0, abs=1e-8)


def test_ray_arc_factor_specific():
    assert lk.ray_arc_factor(10.0, math.pi) == pytest.approx(math.pi / 10.0,
                                                             abs=1e-12)


def test_ray_arc_factor_monotone():
    qs = np.linspace(0.0, math.pi, 10_000)
    for lam in (0.1, 1.0, 10.0):
        vals = lk.ray_arc_factor(lam, qs)
        assert np.all(np.diff(vals) >= 0.0)


def test_ray_arc_factor_rejects_bad_slope():
    # a NaN slope once passed the sign test, and both it and an infinite
    # one returned NaN
    for lam in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            lk.ray_arc_factor(lam, 1.0)


def test_pendulum_ignores_a_cut(pend):
    # the cut's energy V(-1) once counted as a breakpoint of every model:
    # dell_dE raised StraddlesCritical there and map nodes moved by 1e-14
    E = -1.5403023058681398
    assert lk.dell_dE(pend, E, lk.Truncation(-1.0)) == lk.dell_dE(pend, E)
    assert lk.dell_dE(pend, E) == pytest.approx(6.896065130917497, rel=1e-12)
    spec = lk.GridSpec(-math.pi, math.pi, -2.5, 2.5, 41, 41)
    cut = lk.ell_map(pend, spec, trunc=lk.Truncation(-1.0))
    full = lk.ell_map(pend, spec)
    assert np.array_equal(cut.mask, full.mask)
    assert np.array_equal(cut.values, full.values, equal_nan=True)
