import math

import numpy as np
import pytest

import ldkit as lk
from ldkit.rates import RateSample, local_slopes


def test_pendulum_ladder_shape(pend):
    ladder = lk.sample_rates(pend, "separatrix", "below",
                             eps_hi=1e-2, eps_lo=1e-6, pts_per_decade=25)
    assert len(ladder.samples) == 101
    assert ladder.n_failed == 0
    eps = np.array([s.eps for s in ladder.samples])
    dv = np.array([s.deriv_abs for s in ladder.samples])
    assert np.all(np.diff(eps) < 0)
    assert dv[-1] > dv[0]  # diverges toward the critical energy


def test_elliptic_ladder_matches_circle_law(pend):
    ladder = lk.sample_rates(pend, "elliptic", "above",
                             eps_hi=1e-3, eps_lo=1e-5, pts_per_decade=10)
    for s in ladder.samples:
        assert s.deriv_abs == pytest.approx(2.0 * math.pi / math.sqrt(2.0 * s.eps),
                                            rel=2e-2)


def test_fit_exact_power_law():
    eps = np.geomspace(1e-2, 1e-6, 60)
    samples = [RateSample(float(e), 3.7 * float(e) ** -0.5) for e in eps]
    fit = lk.fit_power_law(samples, critical="separatrix", side="below")
    assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-10)
    assert fit.n_samples == 60


def _samples(eps, log_dv):
    return [RateSample(float(e), float(math.exp(v))) for e, v in zip(eps, log_dv)]


@pytest.mark.parametrize("critical", ["separatrix", "elliptic"])
def test_fit_recovers_asymptotic_exponent(critical):
    # log|ell'| with the leading corrections of each critical point's expansion
    eps = np.geomspace(1e-2, 1e-6, 101)
    x = np.log(eps)
    if critical == "separatrix":
        log_dv = 0.3 - 0.5 * x + 1.7 * np.sqrt(eps) * x - 2.3 * np.sqrt(eps)
    else:
        log_dv = 0.3 - 0.5 * x + 4.1 * eps
    samples = _samples(eps, log_dv)
    fit = lk.fit_power_law(samples, critical=critical, side="above")
    assert fit.exponent == pytest.approx(-0.5, abs=1e-9)
    assert fit.intercept == pytest.approx(0.3, abs=1e-8)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert abs(fit.ols_slope + 0.5) > 1e-3  # the plain line is biased

    # Without ``critical`` the fit is the plain log-log OLS line, bit for bit.
    plain = lk.fit_power_law(samples)
    y = np.log(np.array([s.deriv_abs for s in samples]))
    xm, ym = x.mean(), y.mean()
    slope = float(np.sum((x - xm) * (y - ym))) / float(np.sum((x - xm) ** 2))
    assert plain.exponent == slope
    assert plain.intercept == ym - slope * xm
    assert (plain.ols_slope, plain.ols_r_squared) == (plain.exponent, plain.r_squared)
    assert (fit.ols_slope, fit.ols_r_squared) == (plain.exponent, plain.r_squared)


def test_fit_rejects_unknown_critical():
    eps = np.geomspace(1e-2, 1e-4, 20)
    with pytest.raises(ValueError):
        lk.fit_power_law(_samples(eps, -0.5 * np.log(eps)), critical="saddle")


def test_local_slopes_per_whole_decade():
    eps = np.geomspace(1e-2, 10 ** -4.5, 36)  # 2.5 decades: the half is dropped
    slopes = local_slopes(_samples(eps, 1.1 - 0.5 * np.log(eps)))
    assert len(slopes) == 2
    assert slopes == pytest.approx([-0.5, -0.5], abs=1e-12)


def test_fit_requires_enough_samples():
    samples = [RateSample(10.0 ** -k, 1.0) for k in range(4)]
    with pytest.raises(ValueError):
        lk.fit_power_law(samples)


@pytest.mark.parametrize("bad", [math.inf, 0.0])
@pytest.mark.parametrize("field", ["eps", "deriv_abs"])
def test_fit_rejects_a_sample_it_cannot_fit(field, bad):
    # one such sample in a clean ladder once gave exponent nan with
    # r_squared 1.0, and numpy only warned
    eps = np.geomspace(1e-2, 1e-6, 20)
    samples = _samples(eps, 1.1 - 0.5 * np.log(eps))
    samples[7] = RateSample(**{"eps": samples[7].eps, "deriv_abs": samples[7].deriv_abs,
                               field: bad})
    with pytest.raises(ValueError, match="finite and positive"):
        lk.fit_power_law(samples)
    with pytest.raises(ValueError, match="finite and positive"):
        lk.fit_power_law(samples, critical="separatrix")


def test_fit_degenerate_span():
    samples = [RateSample(1e-3 * (1 + 0.1 * k), 1.0) for k in range(8)]
    with pytest.raises(lk.DegenerateFit):
        lk.fit_power_law(samples)


def test_sample_rates_validation(pend, ho):
    with pytest.raises(ValueError):
        lk.sample_rates(pend, "separatrix", "sideways")
    with pytest.raises(ValueError):
        lk.sample_rates(pend, "nowhere", "below")
    with pytest.raises(ValueError):
        lk.sample_rates(pend, "elliptic", "below")
    with pytest.raises(ValueError):
        lk.sample_rates(pend, "separatrix", "below", eps_hi=1e-6, eps_lo=1e-2)
    with pytest.raises(ValueError):
        lk.sample_rates(ho, "separatrix", "above")  # no separatrix
    for bad in ({"eps_hi": math.inf}, {"pts_per_decade": math.inf},
                {"pts_per_decade": math.nan}):
        with pytest.raises(ValueError):
            lk.sample_rates(pend, "separatrix", "below", **bad)


def test_empty_ladder_raised():
    fb = lk.fishtail(bounded_librations=True)
    with pytest.raises(lk.EmptyLadder):
        lk.sample_rates(fb, "separatrix", "above", eps_hi=1e-2, eps_lo=1e-3,
                        pts_per_decade=5)


def test_empty_ladder_names_the_model_error(fish):
    # without a cut every fish-tail energy raises TruncationRequired, which
    # the ladder's message carries instead of a bare "failed"
    with pytest.raises(lk.EmptyLadder, match="every separatrix/above sample "
                       "failed: .*pass a Truncation"):
        lk.sample_rates(fish, "separatrix", "above")
    report = lk.rate_report(fish)
    assert len(report["fits"]) == 3
    assert all("pass a Truncation" in f["error"] for f in report["fits"])
    fb = lk.fishtail(bounded_librations=True)
    above = lk.rate_report(fb)["fits"][1]
    assert above["side"] == "above"
    with pytest.raises(lk.OutsideDomain) as exc:
        fb.domain(1e-2)
    assert above["error"].endswith(f"every separatrix/above sample failed: {exc.value}")


@pytest.mark.parametrize("side", ["below", "above"])
def test_empty_ladder_names_unconverged_samples(pend, side):
    # no sample fails, but none of the 13 converges at this cap
    cfg = lk.QuadratureConfig(rel_tol=1e-15, abs_tol=1e-15, max_levels=4)
    with pytest.raises(lk.EmptyLadder, match="none of the 13 separatrix/"
                       f"{side} samples converged"):
        lk.sample_rates(pend, "separatrix", side, eps_hi=1e-2, eps_lo=1e-5,
                        pts_per_decade=4, cfg=cfg)


def test_repulsor_exponent_exact(rep):
    report = lk.rate_report(rep, eps_hi=1e-2, eps_lo=1e-4, pts_per_decade=10)
    assert [f["side"] for f in report["fits"]] == ["below", "above"]
    for f in report["fits"]:
        assert f["exponent"] == pytest.approx(-0.5, abs=1e-5)
        assert f["r2"] > 1.0 - 1e-9


def test_rate_report_structure(ho):
    report = lk.rate_report(ho, eps_hi=1e-2, eps_lo=1e-3, pts_per_decade=6)
    assert report["model"] == "harmonic-oscillator"
    assert report["truncation"] is None
    assert len(report["fits"]) == 1  # elliptic only: no separatrix
    entry = report["fits"][0]
    assert entry["critical"] == "elliptic"
    assert entry["side"] == "above"
    for key in ("exponent", "intercept", "r2", "n_samples", "ols_slope",
                "ols_r2", "local_slopes"):
        assert key in entry
    assert len(entry["local_slopes"]) == 1
    assert entry["exponent"] == pytest.approx(-0.5, abs=1e-3)


def test_rate_report_partial_entries():
    fb = lk.fishtail(bounded_librations=True)
    report = lk.rate_report(fb, eps_hi=1e-2, eps_lo=1e-4, pts_per_decade=6)
    by_side = {f["side"]: f for f in report["fits"] if f["critical"] == "separatrix"}
    assert "error" in by_side["above"]  # no bounded branch above
    assert "exponent" in by_side["below"]


def _duffing_ell_mp(mp, E):
    """Duffing level-curve length by mpmath, turning points in closed form.

    p^2 = 2E + q^2 - q^4/2 = (q^2 - a)(b - q^2)/2 with a, b = 1 -+ sqrt(1+4E).
    The substitution puts the inverse-square-root turning-point behaviour
    into a smooth integrand: q = x1 + (x2 - x1)(1 - cos phi)/2 on each lobe
    below the separatrix, q = x2 sin(phi) on the outer curve above it (four
    copies by symmetry in both cases).
    """
    s = mp.sqrt(1 + 4 * E)
    a, b = 1 - s, 1 + s
    x2 = mp.sqrt(b)

    def speed(q):  # sqrt(4 p^2 + (d p^2/dq)^2) / 2 = p |d(q, p)/dq|
        return mp.sqrt(2 * (q * q - a) * (b - q * q) + (2 * q * (1 - q * q)) ** 2) / 2

    if E < 0:
        x1 = mp.sqrt(a)

        def f(phi):
            q = x1 + (x2 - x1) * (1 - mp.cos(phi)) / 2
            return speed(q) / mp.sqrt((q + x1) * (q + x2) / 2)
        # the integrand peaks within phi ~ sqrt(x1 / x2) of the inner root
        return 4 * mp.quad(f, [0, mp.sqrt(x1 / x2), mp.pi])

    def f(phi):
        q = x2 * mp.sin(phi)
        return speed(q) / mp.sqrt((q * q - a) / 2)
    # the momentum dips to ~sqrt(E) within q ~ sqrt(E) of the saddle
    return 4 * mp.quad(f, [0, mp.sqrt(-a) / x2, mp.pi / 2])


@pytest.mark.parametrize("side", ["below", "above"])
def test_duffing_separatrix_curvature_is_real(duff, side):
    """The ladder is accurate, so the secant slope's bias is the function's.

    |d ell/dE| from ``sample_rates`` matches a 30-digit mpmath reference at
    every decade of the default ladder, and the reference's own slope on the
    1e-3..1e-2 decade is far from -1/2: the pre-asymptotic curvature that
    ``fit_power_law`` models is real and no quadrature change can remove it.
    """
    mp = pytest.importorskip("mpmath")
    ladder = lk.sample_rates(duff, "separatrix", side)
    assert ladder.n_failed == 0 and len(ladder.samples) == 101
    picks = ladder.samples[::25]  # eps = 1e-2, 1e-3, ..., 1e-6
    sign = -1 if side == "below" else 1
    refs = []
    with mp.workdps(30):
        for smp in picks:
            E = sign * mp.mpf(smp.eps)
            h = E * mp.mpf(10) ** -8
            d = (_duffing_ell_mp(mp, E + h) - _duffing_ell_mp(mp, E - h)) / (2 * h)
            refs.append(float(abs(d)))
    for smp, ref in zip(picks, refs):
        assert smp.deriv_abs == pytest.approx(ref, rel=1e-4)
    secant = math.log(refs[1] / refs[0]) / math.log(picks[1].eps / picks[0].eps)
    assert abs(secant + 0.5) > 0.05, secant


@pytest.mark.parametrize("name", ["pendulum", "duffing", "fishtail"])
def test_default_ladders_converge(name):
    model = lk.get_model(name)
    trunc = lk.Truncation(-5.0) if name == "fishtail" else None
    for critical, side in (("separatrix", "below"), ("separatrix", "above"),
                           ("elliptic", "above")):
        ladder = lk.sample_rates(model, critical, side, trunc=trunc)
        assert ladder.n_failed == 0
        assert ladder.n_unconverged == 0, (critical, side)


@pytest.mark.parametrize("name", ["pendulum", "fishtail"])
def test_elliptic_exponent_on_deep_ladder(name):
    # near e_min (-32 for the fish-tail) the panels' energies e_min + u^2
    # round in units of 7e-15; interpolating in the u they really have keeps
    # the fitted exponent at -1/2 down to eps = 1e-10
    model = lk.get_model(name)
    trunc = lk.Truncation(-5.0) if name == "fishtail" else None
    ladder = lk.sample_rates(model, "elliptic", "above", eps_lo=1e-10, trunc=trunc)
    assert (ladder.n_failed, ladder.n_unconverged) == (0, 0)
    fit = lk.fit_power_law(ladder.samples, "elliptic", "above")
    assert abs(fit.exponent + 0.5) <= 1e-6


def test_rate_report_lists_infinite_ladder_settings_as_errors(pend, ell_batch_calls):
    # an infinite eps_hi or density once crashed rate_report with an
    # OverflowError instead of an error entry per fit; with no valid ladder
    # no ell(E) is evaluated
    for bad in ({"eps_hi": math.inf}, {"pts_per_decade": math.inf}):
        report = lk.rate_report(pend, **bad)
        assert len(report["fits"]) == 3
        assert all("need" in f["error"] for f in report["fits"])
    assert ell_batch_calls == []


def _composed_report(model, trunc=None, **kw):
    """rate_report's dict built from one sample_rates call per approach."""
    e_min, e_sx = model.critical_energies()
    wanted = ([("separatrix", "below"), ("separatrix", "above")] if math.isfinite(e_sx)
              else []) + ([("elliptic", "above")] if math.isfinite(e_min) else [])
    fits = []
    for critical, side in wanted:
        entry = {"critical": critical, "side": side}
        try:
            ladder = lk.sample_rates(model, critical, side, trunc=trunc, **kw)
            fit = lk.fit_power_law(ladder.samples, critical=critical, side=side)
        except (lk.LdkitError, ValueError) as exc:
            entry["error"] = str(exc)
        else:
            entry.update(exponent=fit.exponent, intercept=float(fit.intercept),
                         r2=fit.r_squared, n_samples=fit.n_samples,
                         ols_slope=fit.ols_slope, ols_r2=fit.ols_r_squared,
                         local_slopes=local_slopes(ladder.samples))
        fits.append(entry)
    return {"model": model.name, "truncation": None if trunc is None else trunc.a,
            "fits": fits}


@pytest.fixture
def ell_batch_calls(monkeypatch):
    """Energy counts of the ell_batch calls the test makes."""
    from ldkit import geometric

    seen = []
    real = geometric.ell_batch

    def spy(model, energies, *args):
        seen.append(np.size(energies))
        return real(model, energies, *args)

    monkeypatch.setattr(geometric, "ell_batch", spy)
    return seen


@pytest.mark.parametrize("name,calls", [("pendulum", 1), ("duffing", 2), ("fishtail", 1),
                                        ("bounded-fishtail", None),
                                        ("harmonic-oscillator", None),
                                        ("harmonic-repulsor", None), ("double-well", None)])
def test_rate_report_is_its_ladders(name, calls, double_well, ell_batch_calls):
    # a report's ladders are one ell(E) pass, one ell_batch per panel round,
    # and it equals the report composed from per-approach ladders byte for byte
    special = {"bounded-fishtail": (lk.fishtail(bounded_librations=True), None),
               "fishtail": (lk.fishtail(), lk.Truncation(-5.0)),
               "double-well": (double_well, None)}
    model, trunc = special[name] if name in special else (lk.get_model(name), None)
    report = lk.rate_report(model, trunc)
    if calls is not None:
        assert len(ell_batch_calls) == calls
    assert repr(report) == repr(_composed_report(model, trunc))
    if name == "bounded-fishtail":
        assert ["error" in f for f in report["fits"]] == [False, True, False]


def test_rate_report_shared_pass_error_marks_every_entry(pend, monkeypatch):
    from ldkit import rates

    def fail(*args, **kw):
        raise lk.NonFiniteEnergy("no ell(E) pass")

    monkeypatch.setattr(rates, "_ell_function", fail)
    report = lk.rate_report(pend)
    assert [f["error"] for f in report["fits"]] == ["no ell(E) pass"] * 3
