import math

import numpy as np
import pytest

import ldkit as lk
from ldkit import TRUNCATION, TURNING, models
from conftest import interior_points, random_energies

ALL_BUILTINS = ("pendulum", "duffing", "fishtail", "harmonic-oscillator",
                "harmonic-repulsor")
EVEN_BUILTINS = ("pendulum", "duffing", "harmonic-oscillator", "harmonic-repulsor")


def model_and_trunc(name):
    m = lk.get_model(name)
    t = lk.Truncation(-5.0) if name == "fishtail" else None
    return m, t


# -- energy ---------------------------------------------------------------

def test_energy_examples(pend, fish):
    assert pend.energy(math.pi, 0.0) == 0.0
    assert pend.energy(0.0, 0.0) == -2.0
    assert fish.energy(0.0, 0.0) == -32.0


# -- branch ---------------------------------------------------------------

def test_branch_examples(pend, duff, fish):
    assert pend.branch(0.0, 0.0) == pytest.approx(2.0, rel=1e-14)
    assert duff.branch(0.0, 0.5) == pytest.approx(1.0, rel=1e-14)
    assert fish.branch(0.0, 0.0) == pytest.approx(math.sqrt(32.0), rel=1e-14)


def test_branch_outside_domain_raises(pend):
    with pytest.raises(lk.OutsideDomain):
        pend.branch(math.pi, -1.0)


def test_branch_clamps_tiny_negative(pend):
    # radicand -1e-13 at E just below the turning energy of q=0
    E = -2.0 - 5e-14
    with pytest.raises(lk.BelowMinimum):
        pend.domain(E)
    assert pend.branch(0.0, E) == 0.0


def test_branch_energy_roundtrip_all_models(rng):
    for name in ALL_BUILTINS:
        m, t = model_and_trunc(name)
        for E in random_energies(m, rng, 10):
            qs = interior_points(m, E, t, rng, 100)
            if qs.size == 0:
                continue
            ps = m.branch(qs, E)
            back = m.energy(qs, ps)
            assert np.max(np.abs(back - E)) < 1e-12


# -- branch slope ---------------------------------------------------------

def test_slope_examples(pend, duff):
    assert pend.branch_slope(0.0, -1.0) == 0.0
    assert pend.branch_slope(0.0, 0.5) == 0.0
    assert duff.branch_slope(1.0, 0.0) == 0.0


def test_slope_matches_finite_difference(rng):
    for name in ALL_BUILTINS:
        m, t = model_and_trunc(name)
        for E in random_energies(m, rng, 5):
            qs = interior_points(m, E, t, rng, 20)
            for q in qs:
                h = 1e-6 * max(1.0, abs(q))
                try:
                    fd = (m.branch(q + h, E) - m.branch(q - h, E)) / (2 * h)
                except lk.OutsideDomain:
                    continue
                got = m.branch_slope(q, E)
                if abs(fd) > 1e-4:  # away from the flat top and endpoints
                    assert got == pytest.approx(fd, rel=1e-6)


def test_slope_derived_value_pendulum(pend):
    # central finite-difference oracle fixes the expected value
    q, E, h = math.pi / 2, 0.0, 1e-7
    fd = (pend.branch(q + h, E) - pend.branch(q - h, E)) / (2 * h)
    got = pend.branch_slope(q, E)
    assert got == pytest.approx(fd, rel=1e-8)
    assert got == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-12)


def test_slope_raises_at_turning_point(pend):
    theta = pend.domain(-1.0).intervals[0][1]
    with pytest.raises(lk.TurningPoint):
        pend.branch_slope(theta, -1.0)


# -- domains --------------------------------------------------------------

def test_pendulum_domain_libration(pend):
    dom = pend.domain(-1.0)
    (lo, hi), flags = next(iter(dom.pairs()))
    assert hi == pytest.approx(math.pi / 2, rel=1e-12)
    assert lo == pytest.approx(-math.pi / 2, rel=1e-12)
    assert flags == (TURNING, TURNING)


def test_pendulum_domain_circulation(pend):
    dom = pend.domain(0.5)
    assert dom.intervals == ((-math.pi, math.pi),)
    assert dom.flags[0] == ("regular", "regular")
    dom0 = pend.domain(0.0)
    assert dom0.flags[0] == (TURNING, TURNING)


def test_duffing_domain(duff):
    dom = duff.domain(0.0)
    (lo, hi), flags = next(iter(dom.pairs()))
    assert lo == 0.0
    assert hi == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert flags == (TURNING, TURNING)
    dom = duff.domain(-0.1)
    (lo, hi), flags = next(iter(dom.pairs()))
    assert lo == pytest.approx(math.sqrt(1.0 - math.sqrt(0.6)), rel=1e-12)
    assert hi == pytest.approx(math.sqrt(1.0 + math.sqrt(0.6)), rel=1e-12)
    assert flags == (TURNING, TURNING)
    dom = duff.domain(0.3)
    assert dom.flags[0] == ("regular", TURNING)


def test_fishtail_domain_separatrix(fish, trunc):
    dom = fish.domain(0.0, trunc)
    sup = dom.support
    assert sup[0] == -5.0
    # Cardano oracle: substitute the endpoint back into the level cubic
    x2 = sup[1]
    assert x2 == pytest.approx(2.0, abs=1e-9)
    assert abs(-(x2 ** 3) - 6 * x2 * x2 + 32.0) <= 1e-9 * max(1.0, abs(x2) ** 3)
    assert dom.flags[0][0] == TRUNCATION
    assert dom.flags[-1][1] == TURNING


def test_fishtail_domain_libration(fish, trunc):
    E = -4.0  # cut at -5 keeps part of the unbounded branch and the oval
    dom = fish.domain(E, trunc)
    assert len(dom.intervals) == 2
    (a, x2), (x3, x4) = dom.intervals
    assert a == -5.0
    assert x2 < x3 < x4
    for r in (x2, x3, x4):
        assert abs(-(r ** 3) - 6.0 * r * r + E + 32.0) <= 1e-9 * max(1.0, abs(r) ** 3)
    assert dom.flags[0] == (TRUNCATION, TURNING)
    assert dom.flags[1] == (TURNING, TURNING)


def test_fishtail_domain_deep_libration_drops_left_branch(fish, trunc):
    # below E = -7 the unbounded branch ends left of the a = -5 cut
    dom = fish.domain(-16.0, trunc)
    assert len(dom.intervals) == 1
    assert dom.intervals[0][0] == pytest.approx(-2.0, abs=1e-9)
    assert dom.flags[0] == (TURNING, TURNING)


def test_fishtail_truncation_errors(fish):
    with pytest.raises(lk.TruncationRequired):
        fish.domain(1.0)
    with pytest.raises(lk.TruncationInsideDomain):
        fish.domain(1.0, lk.Truncation(10.0))


def test_fishtail_unbounded_branch_outside_window(fish):
    # the cut can fall right of the unbounded branch; only the oval remains
    dom = fish.domain(-16.0, lk.Truncation(-4.5))
    assert len(dom.intervals) == 1
    assert dom.intervals[0][0] == pytest.approx(-2.0, abs=1e-9)
    # at the bottom energy the oval is a point: empty domain, zero length
    dom = fish.domain(-32.0, lk.Truncation(-4.5))
    assert dom.intervals == ()


def test_below_minimum_raises():
    for name, e_min in (("pendulum", -2.0), ("duffing", -0.25), ("fishtail", -32.0)):
        m, t = model_and_trunc(name)
        with pytest.raises(lk.BelowMinimum):
            m.domain(e_min - 1e-6, t)


def test_turning_endpoints_have_vanishing_branch(rng):
    for name in ALL_BUILTINS:
        m, t = model_and_trunc(name)
        for E in random_energies(m, rng, 100):
            dom = m.domain(float(E), t)
            for (lo, hi), (flo, fhi) in dom.pairs():
                if flo == TURNING:
                    assert m.branch(lo, float(E)) < 1e-9
                if fhi == TURNING:
                    assert m.branch(hi, float(E)) < 1e-9


def test_pendulum_aperture_monotone(pend):
    es = np.linspace(-1.999, -1e-4, 200)
    thetas = np.array([pend.domain(float(e)).intervals[0][1] for e in es])
    assert np.all(np.diff(thetas) > 0)
    assert pend.domain(-1e-9).intervals[0][1] == pytest.approx(math.pi, abs=1e-4)
    assert pend.domain(-2.0 + 1e-9).intervals[0][1] == pytest.approx(0.0, abs=1e-4)


def test_critical_energies():
    assert lk.pendulum().critical_energies() == (-2.0, 0.0)
    assert lk.duffing().critical_energies() == (-0.25, 0.0)
    assert lk.fishtail().critical_energies() == (-32.0, 0.0)


def test_energy_domain_validation():
    with pytest.raises(ValueError):
        lk.EnergyDomain(((1.0, 0.0),), (("regular", "regular"),))
    with pytest.raises(ValueError):
        lk.EnergyDomain(((0.0, 2.0), (1.0, 3.0)),
                        (("regular", "regular"), ("regular", "regular")))


def test_get_model_unknown():
    with pytest.raises(ValueError):
        lk.get_model("rotor")


# -- the catalogue ----------------------------------------------------------

def test_model_names_are_the_catalogue_in_order():
    assert lk.MODEL_NAMES == ALL_BUILTINS
    assert lk.MODEL_NAMES == tuple(lk.get_model(n).name for n in lk.MODEL_NAMES)


def test_get_model_unknown_lists_the_builtins():
    with pytest.raises(ValueError, match="unknown model 'rotor'; built-ins: "
                       "pendulum, duffing, fishtail, harmonic-oscillator, "
                       "harmonic-repulsor$"):
        lk.get_model("rotor")


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_lower_case_names_are_the_classes(name):
    cls = getattr(lk, name.replace("-", "_"))
    assert isinstance(cls, type)
    assert type(lk.get_model(name)) is cls
    assert type(cls()) is cls


def test_lower_case_names_take_their_options():
    fb = lk.fishtail(bounded_librations=True)
    assert fb.bounded_librations and fb.bounded
    assert not lk.fishtail().bounded
    assert lk.harmonic_repulsor(t_star=2.0).t_star == 2.0
    assert lk.get_model("harmonic-repulsor", t_star=2.0).t_star == 2.0


def test_mechanical_positional_and_keyword_forms():
    V = lambda q: -0.5 * q * q + 0.25 * q ** 4
    dV = lambda q: q ** 3 - q
    a = lk.mechanical(V, dV, (-2.0, 2.0), name="double-well", e_sx=0.0)
    b = lk.mechanical(potential=V, potential_slope=dV, search_interval=(-2.0, 2.0),
                      name="double-well", e_sx=0.0)
    for m in (a, b):
        assert m.name == "double-well"
        assert m.kernel_code is None
        assert (m.potential, m.potential_slope) == (V, dV)
        assert m.critical_energies() == (a.e_min, 0.0)
    assert a.breakpoints().tolist() == b.breakpoints().tolist()
    assert a.domain(-0.1) == b.domain(-0.1)
    assert lk.mechanical(V, dV, (-2.0, 2.0)).name == "custom-mechanical"


# -- truncations --------------------------------------------------------------

@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_truncation_must_be_finite(a):
    # a NaN cut once gave ell = 0 (converged) after no evaluations, and -inf
    # a NaN after 30,360 of them
    with pytest.raises(ValueError, match="not finite"):
        lk.Truncation(a)
    with pytest.raises(ValueError):
        lk.ell(lk.fishtail(), 1.0, lk.Truncation(a))


def test_cut_is_a_breakpoint_only_where_the_domain_uses_it(pend, double_well):
    cut = lk.Truncation(-5.0)
    assert lk.fishtail().breakpoints(cut).tolist() == [-32.0, -7.0, 0.0]
    assert lk.fishtail(bounded_librations=True).breakpoints(cut).tolist() == [-32.0, 0.0]
    assert pend.breakpoints(lk.Truncation(-1.0)).tolist() == [-2.0, 0.0]
    assert (double_well.breakpoints(lk.Truncation(-1.0)).tolist()
            == double_well.breakpoints().tolist())


# -- harmonic repulsor ----------------------------------------------------

def test_repulsor_domains(rep):
    dom = rep.domain(0.5)
    (lo, hi), flags = next(iter(dom.pairs()))
    assert lo == 0.0
    assert hi == pytest.approx(math.sinh(1.0), rel=1e-12)
    assert flags == ("regular", TRUNCATION)
    dom = rep.domain(-0.5)
    (lo, hi), flags = next(iter(dom.pairs()))
    assert lo == pytest.approx(1.0, rel=1e-12)
    assert flags == (TURNING, TRUNCATION)
    assert rep.domain(0.0).intervals == ()


def test_repulsor_rejects_bad_cut():
    with pytest.raises(ValueError):
        lk.harmonic_repulsor(t_star=-1.0)


@pytest.mark.parametrize("t_star", [math.nan, math.inf])
def test_repulsor_rejects_non_finite_cut(t_star):
    # t_star = nan once gave ell(0.5) = 0, converged; inf a NaN, unconverged
    with pytest.raises(ValueError, match="t_star must be positive"):
        lk.harmonic_repulsor(t_star=t_star)


def test_repulsor_rejects_cut_whose_cosh_overflows():
    # t_star = 800 once passed the constructor, then ell and rate_report
    # raised OverflowError from math.sinh, which neither handler catches
    with pytest.raises(ValueError, match="overflows"):
        lk.ell(lk.harmonic_repulsor(t_star=800.0), 0.5)
    with pytest.raises(ValueError, match="overflows"):
        lk.rate_report(lk.harmonic_repulsor(t_star=800.0))
    rep = lk.harmonic_repulsor(t_star=700.0)
    assert rep.domain(0.5).intervals[0][1] == math.sinh(700.0)


def _smallest_accepted_t_star():
    """The least float t with cosh(t) - 1 >= 1e-6, by bisection on floats."""
    lo, hi = 1e-3, 2e-3
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        lo, hi = (mid, hi) if math.cosh(mid) - 1.0 < 1e-6 else (lo, mid)


def test_repulsor_cut_is_accurate_down_to_the_smallest_accepted_t_star():
    # the E < 0 cut r cosh(t_star) carries an ulp of r beside a width of
    # r (cosh(t_star) - 1): t_star = 1e-8 once made an empty interval, and
    # 1e-6 a length 4.4e-5 off that still read converged
    mp = pytest.importorskip("mpmath")
    t_star = _smallest_accepted_t_star()
    assert 1.4e-3 < t_star < 1.5e-3
    rep = lk.harmonic_repulsor(t_star=t_star)
    with mp.workdps(40):
        exact = float(mp.quad(lambda x: mp.sqrt(mp.cosh(2 * x)), [0, mp.mpf(t_star)]))
    for E in (0.5, -0.5):  # sqrt(2|E|) = 1
        length, info = lk.ell(rep, E, full_output=True)
        assert info.converged
        assert abs(length - exact) <= 1e-10 * exact
    for t_star in (math.nextafter(t_star, 0.0), 1e-6, 1e-8, 1e-9):
        with pytest.raises(ValueError, match="below about 1.4e-3"):
            lk.harmonic_repulsor(t_star=t_star)


# -- fish-tail bounded oscillations ---------------------------------------

def test_bounded_librations_mode(fish, trunc):
    fb = lk.fishtail(bounded_librations=True)
    assert fb.bounded
    dom = fb.domain(-4.0)
    full = fish.domain(-4.0, trunc)
    assert dom.intervals == (full.intervals[1],)
    with pytest.raises(lk.OutsideDomain):
        fb.domain(0.5)
    assert dom.intervals[0][0] >= -4.0


_FISH_ENERGIES = [e for k in range(1, 15)
                  for e in (-32.0 + 10.0 ** -k, -(10.0 ** -k), 10.0 ** -k)] + [1e3]


def _fishtail_root_error(bounded, energies, oval_only=False):
    """Largest relative error of the fish-tail's turning points against
    40-digit roots of q^3 + 6 q^2 = E + 32; the cut at -10 keeps the branch."""
    mp = pytest.importorskip("mpmath")
    model = lk.fishtail(bounded_librations=bounded)
    worst = 0.0
    for E in energies:
        dom = model.domain(E, None if bounded else lk.Truncation(-10.0))
        ends = sorted(x for iv, fl in dom.pairs() for x, f in zip(iv, fl) if f == TURNING)
        with mp.workdps(40):
            roots = mp.polyroots([1, 6, 0, -(mp.mpf(E) + 32)], maxsteps=400, extraprec=400)
            real = sorted(mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -30)
            # the oval (two upper roots) when bounded; every real root on the cut
            expected = real[1:] if bounded else real
            assert len(ends) == len(expected), E
            if oval_only:
                ends, expected = ends[-2:], expected[-2:]
            for x, r in zip(ends, expected):
                worst = max(worst, float(abs((mp.mpf(x) - r) / r)))
    return worst


@pytest.mark.parametrize("bounded", [False, True])
def test_fishtail_turning_points_against_mpmath(bounded):
    # the roots beside the minimum (where a general cubic's acos form with
    # Newton steps once put x3 and x4 8.6e-6 off), beside the saddle and far
    # above it
    energies = [E for E in _FISH_ENERGIES if not (bounded and E > 0.0)]
    assert _fishtail_root_error(bounded, energies) <= 2e-14


@pytest.mark.parametrize("bounded", [False, True])
def test_fishtail_oval_ends_beside_the_minimum(bounded):
    # the radicand written about the minimum does not cancel there, so the
    # turning-point polish keeps the closed form's roots; about the saddle
    # its sign was noise, and the polish walked x3 and x4 1.3e-14 off
    energies = [-32.0 + 10.0 ** -k for k in range(1, 15)]
    assert _fishtail_root_error(bounded, energies, oval_only=True) <= 5e-16


# -- custom mechanical systems ---------------------------------------------

@pytest.fixture(scope="module")
def mech_pendulum():
    return lk.mechanical(lambda q: -np.cos(q) - 1.0, lambda q: np.sin(q),
                         (-math.pi, math.pi), name="pendulum-potential", e_sx=0.0)


def test_mechanical_minimum_found(mech_pendulum):
    assert mech_pendulum.e_min == pytest.approx(-2.0, abs=1e-10)


def test_mechanical_branch_form(mech_pendulum, rng):
    for E in (-1.5, -0.4, 0.3):
        qs = interior_points(mech_pendulum, E, None, rng, 50)
        v = -np.cos(qs) - 1.0
        assert mech_pendulum.branch(qs, E) == pytest.approx(np.sqrt(2.0 * (E - v)))


def test_mechanical_slope_consistency():
    pot = lambda q: 0.5 * np.asarray(q) ** 2
    slope = lambda q: np.asarray(q)
    m = lk.mechanical(pot, slope, (-3.0, 3.0))
    for q in (-1.2, 0.4, 2.0):
        h = 1e-6
        fd = (pot(q + h) - pot(q - h)) / (2 * h)
        assert float(slope(q)) == pytest.approx(fd, rel=1e-6)


def test_mechanical_matches_builtin_pendulum(mech_pendulum, pend):
    for E in (-1.5, -0.3, 0.4):
        a = lk.ell(mech_pendulum, E)
        b = lk.ell(pend, E)
        assert a == pytest.approx(b, rel=1e-8)


def test_mechanical_domain_flags(mech_pendulum):
    dom = mech_pendulum.domain(-1.0)
    assert dom.flags[0] == (TURNING, TURNING)
    dom = mech_pendulum.domain(0.5)
    assert dom.flags[0] == (TRUNCATION, TRUNCATION)


def test_mechanical_domain_roots_on_scan_nodes():
    # V = q^2 on [-2, 2] with 4096 scan cells puts nodes on multiples of
    # 2^-10, so E = 0.25 vanishes exactly at the nodes q = +-0.5 (no bracket
    # there) while E = 0.3 brackets its roots inside cells
    m = lk.mechanical(lambda q: np.asarray(q) ** 2, lambda q: 2.0 * np.asarray(q),
                      (-2.0, 2.0))
    dom = m.domain(0.25)
    assert dom.intervals == ((-0.5, 0.5),)
    assert dom.flags == ((TURNING, TURNING),)
    (lo, hi), = m.domain(0.3).intervals
    assert lo == pytest.approx(-math.sqrt(0.3), abs=1e-12)
    assert hi == pytest.approx(math.sqrt(0.3), abs=1e-12)
    dom = m.domain(5.0)  # no root inside the scan: cut at the search interval
    assert dom.intervals == ((-2.0, 2.0),)
    assert dom.flags == ((TRUNCATION, TRUNCATION),)


def test_mechanical_tiny_scale_keeps_its_turning_points():
    # E - V is ~1e-201 on the scan nodes next to a root, so the product of
    # two neighbours underflows; the sign change must still be found
    m = lk.mechanical(lambda q: 1e-200 * np.asarray(q) ** 2,
                      lambda q: 2e-200 * np.asarray(q), (-2.0, 2.0))
    dom = m.domain(0.3e-200)
    (lo, hi), = dom.intervals
    assert lo == pytest.approx(-math.sqrt(0.3), abs=1e-12)
    assert hi == pytest.approx(math.sqrt(0.3), abs=1e-12)
    assert dom.flags == ((TURNING, TURNING),)


def test_mechanical_root_on_the_search_end_is_a_turning_point():
    # at E = 1/2 the right root of q^2/2 is q = 1, the search interval's end
    m = lk.mechanical(lambda q: 0.5 * np.asarray(q) ** 2, lambda q: np.asarray(q),
                      (-1.5, 1.0))
    dom = m.domain(0.5)
    assert dom.intervals == ((-1.0, 1.0),)
    assert dom.flags == ((TURNING, TURNING),)
    length, info = lk.ell(m, 0.5, full_output=True)
    assert info.converged
    assert length == pytest.approx(2.0 * math.pi, rel=0, abs=1e-12)


def test_mechanical_nan_potential_is_rejected():
    # a NaN scan value once made e_min NaN, and every ell read 0, converged
    def potential(q):
        q = np.asarray(q, dtype=np.float64)
        return np.where(q > 1.5, np.nan, 0.5 * q * q)

    with pytest.raises(ValueError, match="NaN at q=1.5009765625"):
        lk.mechanical(potential, lambda q: np.asarray(q, dtype=np.float64), (-2.0, 2.0))


@pytest.mark.parametrize("interval", [(-2.0, math.inf), (-math.inf, 2.0), (math.nan, 2.0)])
def test_mechanical_rejects_a_non_finite_search_interval(interval):
    # (-2, inf) once failed with "potential is NaN at q=nan of the scan
    # grid", after numpy warnings
    with pytest.raises(ValueError, match="search interval must be finite"):
        lk.mechanical(lambda q: 0.5 * q * q, lambda q: q, interval)


def test_mechanical_infinite_potential_is_a_hard_wall():
    def potential(q):
        q = np.asarray(q, dtype=np.float64)
        return np.where(np.abs(q) >= 2.0, np.inf, 0.5 * q * q)

    m = lk.mechanical(potential, lambda q: np.asarray(q, dtype=np.float64), (-2.0, 2.0))
    assert m.e_min == 0.0
    length, info = lk.ell(m, 0.5, full_output=True)
    assert info.converged
    assert length == pytest.approx(2.0 * math.pi, rel=0, abs=1e-13)
    with pytest.raises(lk.BelowMinimum):
        lk.ell(m, -1.0)


def test_mechanical_minimum_is_not_above_the_true_one():
    # V's minimum q = 0 lies between scan nodes: e_min is V at the root of V'
    m = lk.mechanical(lambda q: 0.5 * np.asarray(q) ** 2, lambda q: np.asarray(q),
                      (-1.5, 1.0))
    assert m.e_min == 0.0
    assert lk.ell(m, 0.0) == 0.0
    g = lk.ell_map(m, lk.GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5))
    assert g.mask[2, 2] and g.values[2, 2] == 0.0
    well = lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4, lambda q: -q + q ** 3,
                         (-2.0, 2.0))
    assert well.e_min == -0.25


def test_mechanical_saddle_is_a_critical_point():
    # the double well's saddle is the root of V' at q = 0, not a maximizer
    # a few 1e-20 off it, so its energy is exactly e_sx = 0 and no second
    # breakpoint sits beside it
    well = lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4, lambda q: -q + q ** 3,
                         (-2.0, 2.0))
    assert well.saddles == (0.0,)
    assert well.breakpoints().tolist() == [-0.25, 0.0, 2.0]
    # a tilted well's saddle is off every scan node; V' vanishes there to
    # roundoff and the saddle is within an ulp of the 40-digit root
    mpmath = pytest.importorskip("mpmath")
    tilted = lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4 + 0.1 * q,
                           lambda q: -q + q ** 3 + 0.1, (-2.0, 2.0))
    (qs,) = tilted.saddles
    assert abs(-qs + qs ** 3 + 0.1) <= 2.0 * np.finfo(float).eps * 0.1
    with mpmath.workdps(40):
        exact = mpmath.findroot(lambda x: -x + x ** 3 + mpmath.mpf(0.1), 0.1)
        assert abs(qs - exact) <= math.ulp(qs)


def test_mechanical_extrema_inside_a_scan_cell_keep_their_roots():
    # V = q^2/2 on (-1.5, 1.0) has its minimum inside a scan cell; both
    # roots of E < 2.98e-8 lie in that cell, which once gave ell = 0 as
    # converged. The polished minimum is a scan node, so each root has a
    # cell of its own
    m = lk.mechanical(lambda q: 0.5 * np.asarray(q) ** 2, lambda q: np.asarray(q),
                      (-1.5, 1.0))
    for E in (1e-10, 1e-8, 2.9e-8):
        length, info = lk.ell(m, E, full_output=True)
        assert info.converged
        assert length == pytest.approx(2.0 * math.pi * math.sqrt(2.0 * E), rel=1e-12)
    # roots at +-1.4e-150: the oval is narrower than _MERGE_TOL, so it is
    # dropped, but the bisection toward it must return
    assert lk.ell(m, 1e-300) == 0.0
    # the tilted well's saddle lies inside a scan cell too; just below its
    # energy the two lobes once merged into one unconverged interval
    tilted = lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4 + 0.1 * q,
                           lambda q: -q + q ** 3 + 0.1, (-2.0, 2.0))
    (qs,) = tilted.saddles
    e_s = tilted.energy(qs, 0.0)
    for gap in (1e-6, 1e-8, 1e-10, 1e-12):
        (a, b), (c, d) = tilted.domain(e_s - gap).intervals
        assert a < b < qs < c < d
        assert lk.ell(tilted, e_s - gap, full_output=True)[1].converged


def test_vector_field_on_arrays(pend, duff, fish, ho, rep, mech_pendulum, rng):
    # the batched stepper evaluates the field on arrays and the scalar
    # stepper on floats; every model must give the same bits on both
    qs = rng.uniform(-3.0, 3.0, 37)
    ps = rng.uniform(-2.0, 2.0, 37)
    for m in (pend, duff, fish, ho, rep, mech_pendulum):
        fq, fp = m.vector_field(qs, ps)
        assert fq.shape == fp.shape == qs.shape
        for q, p, aq, ap in zip(qs, ps, fq, fp):
            sq, sp = m.vector_field(float(q), float(p))
            assert type(sq) is float and type(sp) is float
            assert (aq, ap) == (sq, sp)


def test_mechanical_vector_field_array_shapes():
    # a slope that returns a scalar or a list for array input still gives
    # one array per component, shaped like q
    qs = np.array([0.25, 0.5, 1.5])
    ps = np.array([1.0, -1.0, 2.0])
    const = lk.mechanical(lambda q: np.asarray(q), lambda q: 1.0, (-4.0, 4.0))
    fq, fp = const.vector_field(qs, ps)
    assert np.array_equal(fq, ps) and np.array_equal(fp, [-1.0, -1.0, -1.0])
    assert const.vector_field(1, 2) == (2.0, -1.0)
    listy = lk.mechanical(lambda q: np.asarray(q) ** 2,
                          lambda q: [2.0 * x for x in q], (-4.0, 4.0))
    fq, fp = listy.vector_field(qs, ps)
    assert np.array_equal(fp, -2.0 * qs)


@pytest.mark.parametrize("name", ALL_BUILTINS + ("double-well",))
def test_formulas_agree_with_alpha_and_the_potential(name, double_well, rng):
    # every model is H = alpha p^2 + V(q): a kept radicand_dq is V'/(-alpha)
    # to a few ulp of its terms, and alpha * radicand and the energy are
    # E - V and alpha p^2 + V to roundoff of their terms (the fish-tail's
    # radicand adds and removes 32)
    m = double_well if name == "double-well" else lk.get_model(name)
    eps = np.finfo(float).eps
    qs = rng.uniform(-4.0, 4.0, 2001)
    ps = rng.uniform(-3.0, 3.0, qs.size)
    slope = np.asarray(m.potential_slope(qs), dtype=np.float64)
    terms = 1.0 + np.abs(qs) + qs * qs + np.abs(qs) ** 3
    assert np.all(np.abs(m.radicand_dq(qs) - slope / -m.alpha) <= 4.0 * eps * terms / m.alpha)
    for q in qs[:50].tolist():
        assert m.radicand_dq(q) == pytest.approx(float(m.potential_slope(q)) / -m.alpha,
                                                 rel=1e-14, abs=1e-14)
    v = np.asarray(m.potential(qs), dtype=np.float64)
    h = np.asarray(m.energy(qs, ps))
    assert np.all(np.abs(h - (m.alpha * ps * ps + v))
                  <= 8.0 * eps * (np.abs(h) + 32.0 + np.abs(v)))
    for E in (-20.0, -1.0, -0.1, 0.0, 0.3, 5.0):
        gap = m.alpha * np.asarray(m.radicand(qs, E)) - (E - v)
        assert np.all(np.abs(gap) <= 8.0 * eps * (abs(E) + 32.0 + np.abs(v)))


def test_only_the_base_class_writes_the_formulas():
    # alpha, V and V' are each model's; the field and the energy are always
    # derived, and a radicand or its slope only where a built-in keeps an
    # accuracy form (Duffing's slope for the benchmark's worst Duffing ell error)
    classes = [c for c in vars(models).values() if isinstance(c, type)
               and issubclass(c, models.HamiltonianModel) and c is not models.HamiltonianModel]
    assert {c.__name__ for c in classes} == {
        "Pendulum", "Duffing", "Fishtail", "HarmonicOscillator", "HarmonicRepulsor",
        "MechanicalModel"}
    for cls in classes:
        assert "vector_field" not in vars(cls), cls.__name__
    kept = {c.__name__: sorted({"energy", "radicand", "radicand_dq"} & set(vars(c)))
            for c in classes}
    assert kept == {"Pendulum": ["radicand"],
                    "Duffing": ["radicand", "radicand_dq"],
                    "Fishtail": ["radicand"],
                    "HarmonicOscillator": [], "HarmonicRepulsor": [],
                    "MechanicalModel": []}
    for name in ALL_BUILTINS:
        m = lk.get_model(name)
        assert m.alpha == (1.0 if name == "fishtail" else 0.5)
        assert callable(m.potential) and callable(m.potential_slope)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("name, field", [
    ("pendulum", lambda q, p: (p, -np.sin(q))),
    ("duffing", lambda q, p: (p, q - q * q * q)),
    ("fishtail", lambda q, p: (2.0 * p, -(3.0 * q * q + 12.0 * q))),
    ("harmonic-oscillator", lambda q, p: (p, -q)),
    ("harmonic-repulsor", lambda q, p: (p, q))])
def test_vector_field_is_the_closed_form_bit_for_bit(name, field):
    # (2 alpha p, -V') is each built-in's closed-form field, bit for bit and
    # signed zeros included (Duffing's q - q^3 is +0.0 at q = 0 and +-1)
    qs = np.repeat([-3.0, -1.0, -0.0, 0.0, 0.7, 1.0, 2.9], 7)
    ps = np.tile([0.0, -0.0, 5e-324, 0.3, -2.5, 1e200, 1e308], 7)
    with np.errstate(over="ignore"):
        for got, want in zip(lk.get_model(name).vector_field(qs, ps), field(qs, ps)):
            assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("name", ALL_BUILTINS + ("double-well",))
def test_vector_field_time_reversal_bitwise(name):
    # the batched temporal stepper runs each backward piece as the forward
    # piece from (q, -p); that is exact because fq is odd and fp even in p,
    # bit for bit, on arrays and on floats (signed zeros, overflowing fq and
    # a region where the custom slope is NaN included)
    if name == "double-well":
        m = lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4,
                          lambda q: np.where(np.abs(q) > 2.5, np.nan, q ** 3 - q),
                          (-2.0, 2.0))
    else:
        m = lk.get_model(name)
    qs = np.repeat([-3.0, -1.0, -0.0, 0.0, 0.7, 1.0, 2.9], 7)
    ps = np.tile([0.0, -0.0, 5e-324, 0.3, 2.5, 1e200, 1e308], 7)
    with np.errstate(over="ignore"):  # the fish-tail's 2p at p = 1e308
        fq, fp = m.vector_field(qs, ps)
        rq, rp = m.vector_field(qs, -ps)
        assert np.array_equal(_bits(rq), _bits(-fq))
        assert np.array_equal(_bits(rp), _bits(fp))
        if name == "double-well":
            assert np.isnan(fp).sum() == 14
        for q, p in zip(qs.tolist(), ps.tolist()):
            fq, fp = m.vector_field(q, p)
            rq, rp = m.vector_field(q, -p)
            assert type(fq) is float and type(rq) is float
            assert _bits(rq) == _bits(-fq) and _bits(rp) == _bits(fp)


def test_point_symmetry_declared_on_even_builtins(double_well):
    # declared per class, never inferred: the fish-tail's V is not even, and
    # a custom V is a black box even where it happens to be even
    assert tuple(n for n in ALL_BUILTINS
                 if lk.get_model(n).point_symmetric) == EVEN_BUILTINS
    assert not double_well.point_symmetric


@pytest.mark.parametrize("name", EVEN_BUILTINS)
def test_vector_field_point_reflection_bitwise(name, rng):
    # the batched temporal stepper runs (q, p) and (-q, -p) as one lane; that
    # is exact because the field is odd under the reflection, bit for bit up
    # to the sign of a zero (which + 0.0 folds), on arrays of lengths that
    # take numpy's vector loops and their tails, and on floats; a platform
    # whose sin is not odd fails here instead of shifting maps
    m = lk.get_model(name)
    special = [0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, math.pi, 3.0, 710.0, 1e5]
    for size in (1, 2, 3, 4, 7, 8, 9, 16, 17, 64, 1001):
        qs = rng.uniform(-1.0, 1.0, size) * rng.choice([1e-3, 1.0, 1e2, 1e5], size)
        ps = rng.uniform(-1.0, 1.0, size) * rng.choice([1e-3, 1.0, 1e2, 1e5], size)
        if size == 64:
            qs[:20] = special + [-x for x in special]
            ps[:20] = special[::-1] + [-x for x in special]
        fq, fp = m.vector_field(qs, ps)
        rq, rp = m.vector_field(-qs, -ps)
        assert np.array_equal(_bits(rq + 0.0), _bits(-fq + 0.0))
        assert np.array_equal(_bits(rp + 0.0), _bits(-fp + 0.0))
        for q, p in zip(qs.tolist(), ps.tolist()):
            fq, fp = m.vector_field(q, p)
            rq, rp = m.vector_field(-q, -p)
            assert type(rq) is float and type(rp) is float
            assert _bits(rq + 0.0) == _bits(-fq + 0.0)
            assert _bits(rp + 0.0) == _bits(-fp + 0.0)
