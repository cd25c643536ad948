"""Energy-batched ell: a batch equals its parts bit for bit.

Every consumer (landscapes, rate ladders, maps) evaluates its energies in one
``ell_batch``; these tests pin that a row's result never depends on which
other rows share the batch, how it is split into chunks, or whether it is
evaluated alone.
"""

import math

import numpy as np
import pytest

import ldkit as lk
from ldkit import geometric, quadrature


def double_well():
    return lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4,
                         lambda q: -q + q ** 3, (-2.0, 2.0),
                         name="double-well", e_sx=0.0)


def _cases():
    rng = np.random.default_rng(7)
    return {
        # model, truncation, energies (the first one raises, except for the
        # repulsor, which has no minimum)
        "pendulum": (lk.pendulum(), None,
                     [-3.0, -2.0, -1.0, -1e-8, 0.0, 1e-8, 0.5,
                      *rng.uniform(-2.0, 2.0, 9)]),
        "duffing": (lk.duffing(), None,
                    [-1.0, -0.25, -0.1, -1e-6, 0.0, 1e-6, 0.7,
                     *rng.uniform(-0.25, 1.0, 9)]),
        "fishtail": (lk.fishtail(), lk.Truncation(-5.0),
                     [-40.0, -32.0, -10.0, -1e-7, 0.0, 1e-7, 9.6,
                      *rng.uniform(-32.0, 10.0, 9)]),
        "harmonic-oscillator": (lk.harmonic_oscillator(), None,
                                [-1.0, 0.0, 1e-9, 0.5, *rng.uniform(0.0, 3.0, 9)]),
        "harmonic-repulsor": (lk.harmonic_repulsor(), None,
                              [-1.0, 0.0, 1e-9, 0.5, *rng.uniform(-3.0, 3.0, 9)]),
        "double-well": (double_well(), None,
                        [-1.0, -0.25, -0.1, -1e-6, 0.0, 1e-6, 0.7,
                         *rng.uniform(-0.25, 1.0, 9)]),
    }


def _rows(b):
    """Per-energy tuples: value bits, error bits, evaluations, flag, error type."""
    return [(float(v).hex(), float(e).hex(), int(n), bool(c),
             type(x).__name__ if x is not None else None)
            for v, e, n, c, x in zip(b.values, b.est_error, b.evaluations,
                                     b.converged, b.errors)]


# tolerances of 1e-15 sit below QUADPACK's roundoff floor of the error
# estimate (50 eps per panel), so every row stops unconverged at its depth cap
_TIGHT = lk.QuadratureConfig(rel_tol=1e-15, abs_tol=1e-15, max_levels=4)


@pytest.mark.parametrize("cfg", [None, _TIGHT], ids=["default", "max_levels=4"])
@pytest.mark.parametrize("name", list(_cases()))
def test_batch_equals_halves_and_singletons(name, cfg):
    model, trunc, energies = _cases()[name]
    whole = _rows(lk.ell_batch(model, energies, trunc, cfg))
    k = len(energies) // 2
    halves = (_rows(lk.ell_batch(model, energies[:k], trunc, cfg))
              + _rows(lk.ell_batch(model, energies[k:], trunc, cfg)))
    singles = [r for E in energies for r in _rows(lk.ell_batch(model, [E], trunc, cfg))]
    assert whole == halves
    assert whole == singles
    if name != "harmonic-repulsor":
        assert whole[0][4] == "BelowMinimum"
    if cfg is not None:
        # rows stop at the depth cap, except the harmonic models' tiny
        # curves at E = 1e-9, which meet abs_tol
        stopped = [not r[3] for r, E in zip(whole, energies) if r[2] > 0 and E != 1e-9]
        assert stopped and all(stopped)


def test_ell_is_a_batch_of_one():
    model, trunc, energies = _cases()["fishtail"]
    b = lk.ell_batch(model, energies, trunc)
    with pytest.raises(lk.BelowMinimum):
        lk.ell(model, energies[0], trunc)
    for i, E in enumerate(energies[1:], start=1):
        v, info = lk.ell(model, E, trunc, full_output=True)
        assert (v, info.est_error, info.evaluations, info.converged) == (
            b.values[i], b.est_error[i], b.evaluations[i], b.converged[i])


def test_batch_larger_than_chunk_budget(pend, monkeypatch):
    # unconverged rows near the separatrix refine every seed panel to the
    # depth cap, so the batch's live panels outgrow the chunk budget and the
    # chunk is halved (each halving calls _refine twice more)
    calls = []
    refine = quadrature._refine

    def spy(model, ch, cfg, out):
        calls.append(ch.ids.size)
        return refine(model, ch, cfg, out)

    monkeypatch.setattr(quadrature, "_refine", spy)
    energies = -np.geomspace(1e-6, 1e-7, 240)
    b = lk.ell_batch(pend, energies, cfg=_TIGHT)
    assert calls[0] == energies.size and len(calls) > 1
    assert not b.converged.any()
    halves = (_rows(lk.ell_batch(pend, energies[:100], cfg=_TIGHT))
              + _rows(lk.ell_batch(pend, energies[100:], cfg=_TIGHT)))
    assert _rows(b) == halves
    for i in range(0, energies.size, 37):
        assert _rows(b)[i] == _rows(lk.ell_batch(pend, energies[i:i + 1], cfg=_TIGHT))[0]


_LANDSCAPES = pytest.mark.parametrize("name", ["pendulum", "fishtail", "double-well"])


@_LANDSCAPES
def test_landscape_matches_scalar_calls(name):
    # without derivatives a landscape is one ell_batch: scalar ell's bits
    model, trunc, _ = _cases()[name]
    e_min, e_sx = model.critical_energies()
    ls = lk.landscape(model, e_min, 1.0, 41, trunc)
    assert ls.derivs is None
    for E, length, conv in zip(ls.energies, ls.lengths, ls.converged):
        v, info = lk.ell(model, float(E), trunc, full_output=True)
        assert (length, conv) == (v, info.converged)


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@_LANDSCAPES
def test_landscape_with_derivatives_is_one_panel_pass(name):
    # values, mask and derivatives are _ell_function's bit for bit, with no
    # error; the values are scalar ell's to roundoff, with the same flags
    model, trunc, _ = _cases()[name]
    e_min, e_sx = model.critical_energies()
    ls = lk.landscape(model, e_min, 1.0, 41, trunc, with_derivs=True)
    *one_pass, errors = geometric._ell_function(model, ls.energies, trunc, None, derivs=True)
    assert _bits(ls.lengths, ls.converged, ls.derivs) == _bits(*one_pass)
    assert errors == [None] * ls.energies.size
    for E, length, d, conv in zip(ls.energies, ls.lengths, ls.derivs, ls.converged):
        v, info = lk.ell(model, float(E), trunc, full_output=True)
        assert conv == info.converged
        assert abs(length - v) <= 1e-12 * abs(v)
        try:
            ref = lk.dell_dE(model, float(E), trunc)
        except lk.StraddlesCritical:
            assert math.isnan(d)
        else:
            assert d == ref


def _sweep_landscapes():
    """energy-sweep's four landscapes: (model, e_lo, e_hi, n, trunc)."""
    return {"pendulum": (lk.pendulum(), -2.0, 1.0, 601, None),
            "duffing": (lk.duffing(), -0.25, 1.0, 601, None),
            "fishtail": (lk.fishtail(), -32.0, 10.0, 601, lk.Truncation(-5.0)),
            "double-well": (double_well(), -0.25, 1.0, 201, None)}


@pytest.mark.parametrize("name", list(_sweep_landscapes()))
def test_landscape_with_derivatives_makes_no_direct_batch(name, monkeypatch):
    # the panel pass's ell_batch calls hold Chebyshev points and the
    # breakpoints, never the samples as one batch; its values are the
    # direct batch's to 1e-12, with the same flags
    model, lo, hi, n, trunc = _sweep_landscapes()[name]
    calls, real = [], geometric.ell_batch

    def spy(model, energies, *args):
        calls.append(np.array(energies, dtype=np.float64))
        return real(model, energies, *args)

    monkeypatch.setattr(geometric, "ell_batch", spy)
    ls = lk.landscape(model, lo, hi, n, trunc, with_derivs=True)
    monkeypatch.undo()
    assert calls and not any(np.isin(ls.energies, c).all() for c in calls)
    b = lk.ell_batch(model, ls.energies, trunc)
    assert np.array_equal(ls.converged, b.converged) and ls.converged.all()
    assert (np.abs(ls.lengths - b.values) <= 1e-12 * np.abs(b.values)).all()


def test_landscape_with_derivatives_raises_the_domain_error():
    # without a cut every fish-tail energy above the minimum needs one; the
    # error is the one the direct batch raises first
    messages = []
    for derivs in (False, True):
        with pytest.raises(lk.TruncationRequired) as exc:
            lk.landscape(lk.fishtail(), -32.0, 10.0, 5, with_derivs=derivs)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def _barycentric_loop(xn, w, x, *fs):
    """The node-by-node loop _barycentric replaced: the reference."""
    den, nums = np.zeros(x.shape), [np.zeros(x.shape) for _ in fs]
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(xn.shape[0]):
            c = w[j] / (x - xn[j])
            den += c
            for num, f in zip(nums, fs):
                num += c * f[j]
        outs = [num / den for num in nums]
    hit = np.flatnonzero(np.isinf(den))
    xn, *fs = np.broadcast_arrays(xn, *fs, x[None])[:-1]
    j = (xn[:, hit] == x[hit]).argmax(axis=0)
    for out, f in zip(outs, fs):
        out[hit] = f[j, hit]
    return outs


@pytest.mark.parametrize("m", [1, 2, 7, 40])
def test_barycentric_matches_the_loop_bit_for_bit(m):
    # m random panels of 17 points, ordered as _ell_function builds them,
    # and m targets per call, about a third of them exactly on a point
    rng = np.random.default_rng(m)
    cheb = np.cos(np.pi * np.arange(17) / 16)
    hits = 0
    for _ in range(20):
        x = np.sort(cheb + rng.normal(0.0, 1e-3, (m, 17)), axis=1)[:, ::-1]
        F = rng.normal(size=(2, m, 17)) * np.exp(rng.normal(size=(2, m, 17)))
        t = rng.uniform(-1.0, 1.0, m)
        on = rng.random(m) < 0.3
        t[on] = x[0, rng.integers(0, 17, on.sum())]
        hits += on.sum()
        # one panel's columns (values and derivatives) at the targets
        w = geometric._weights(x[:1])[0]
        args = (x[0, :, None], w[:, None], t, F[0, 0, :, None], F[1, 0, :, None])
        assert _bits(*geometric._barycentric(*args)) == _bits(*_barycentric_loop(*args))
        # the nested interpolant: each panel's 9 even points at its 8 odd ones
        even = (x[:, ::2], geometric._weights(x[:, ::2]), F[0, :, ::2])
        xe, we, fe = (np.repeat(v, 8, axis=0).T for v in even)
        args = (xe, we, x[:, 1::2].ravel(), fe)
        assert _bits(*geometric._barycentric(*args)) == _bits(*_barycentric_loop(*args))
    assert hits > 0


def test_panel_pass_is_the_loops_bit_for_bit(pend, monkeypatch):
    # rate reports, maps, dell_dE and landscapes are unchanged with the
    # reference loop in _barycentric's place
    def run():
        spec = lk.GridSpec(-3.0, 3.0, -2.0, 2.0, 21, 21)
        return (repr(lk.rate_report(pend)), *_bits(lk.ell_map(pend, spec).values),
                *(lk.dell_dE(pend, E).hex() for E in (-1.9, -1e-6, 1e-3, 0.7)),
                *_bits(*vars(lk.landscape(pend, -2.0, 1.0, 61, with_derivs=True)).values()))

    new = run()
    monkeypatch.setattr(geometric, "_barycentric", _barycentric_loop)
    assert run() == new


def _rounds(monkeypatch, model, energies, trunc, cfg):
    """_ell_function's results, the energies of each ell_batch call it made,
    and its panel rounds (one derivative pass each)."""
    batches, rounds = [], []
    real_batch, real_diff = geometric.ell_batch, geometric._differentiate

    def batch(model, energies, *args):
        batches.append(np.array(energies))
        return real_batch(model, energies, *args)

    def diff(*args):
        rounds.append(1)
        return real_diff(*args)

    monkeypatch.setattr(geometric, "ell_batch", batch)
    monkeypatch.setattr(geometric, "_differentiate", diff)
    out = geometric._ell_function(model, energies, trunc, cfg, derivs=True)
    monkeypatch.undo()
    return out, batches, len(rounds)


@pytest.mark.parametrize("cfg", [None, _TIGHT], ids=["default", "max_levels=4"])
@pytest.mark.parametrize("name", ["pendulum", "fishtail", "double-well"])
def test_breakpoints_ride_the_first_panel_round(name, cfg, monkeypatch):
    # breakpoints and non-finite energies are evaluated in the first round's
    # ell_batch; a trailing batch holds exactly the energies of panels that
    # were not certified (at the default tolerances there is none), and a
    # breakpoint's value is ell there bit for bit
    model, trunc, _ = _cases()[name]
    B = model.breakpoints(trunc)
    energies = np.r_[B, np.linspace(B[0], B[-1] + 1.0, 23), math.inf, math.nan]
    (values, mask, d, errors), batches, rounds = _rounds(monkeypatch, model, energies,
                                                          trunc, cfg)
    assert np.isin(np.r_[B, math.inf], batches[0]).all() and np.isnan(batches[0]).any()
    plain = np.isfinite(energies) & ~np.isin(energies, B)
    uncertified = np.unique(energies[plain & np.isnan(d)])
    if cfg is None:
        assert uncertified.size == 0 and len(batches) == rounds
    else:
        assert uncertified.size > 0 and len(batches) == rounds + 1
        assert np.array_equal(batches[-1], uncertified)
    at = np.isin(energies, B)
    assert np.isnan(d[at]).all()
    ref = [lk.ell(model, b, trunc, cfg, full_output=True) for b in energies[at]]
    assert [(float(v).hex(), bool(m)) for v, m in zip(values[at], mask[at])] == [
        (v.hex(), info.converged) for v, info in ref]
    assert np.isnan(values[~np.isfinite(energies)]).all()
    assert not mask[~np.isfinite(energies)].any()
    # only the non-finite energies raised, each its own error
    assert [type(x) for x in errors] == [
        type(None) if np.isfinite(E) else lk.NonFiniteEnergy for E in energies]


@pytest.mark.parametrize("name,hi,n", [("pendulum", 1.0, 31), ("duffing", 1.0, 6),
                                        ("fishtail", 10.0, 43), ("double-well", 2.0, 10)])
def test_derivative_undefined_exactly_at_breakpoints(name, hi, n):
    # every breakpoint is a landscape sample: the fish-tail's cut energy (-7
    # at q = -5) and the double well's search end (V(2) = 2) too
    model, trunc, _ = _cases()[name]
    B = model.breakpoints(trunc)
    for b in B.tolist():
        with pytest.raises(lk.StraddlesCritical):
            lk.dell_dE(model, b, trunc)
    ls = lk.landscape(model, B[0], hi, n, trunc, with_derivs=True)
    assert np.isin(B, ls.energies).all()
    assert np.array_equal(np.isnan(ls.derivs), np.isin(ls.energies, B))
    assert ls.converged.all()


def test_custom_double_well_derivative_matches_duffing():
    # the same potential, -q^2/2 + q^4/4, as Python callables and built in
    well, duff = _cases()["double-well"][0], lk.duffing()
    a = lk.landscape(well, -0.25, 1.0, 201, with_derivs=True)
    b = lk.landscape(duff, -0.25, 1.0, 201, with_derivs=True)
    assert np.array_equal(a.energies, b.energies)
    at = np.isin(a.energies, well.breakpoints())
    assert at.sum() == 2 and np.isnan(a.derivs[at]).all()
    rel = np.abs(a.derivs[~at] / b.derivs[~at] - 1.0)
    assert rel.max() <= 1e-9, rel.max()


_LADDERS = pytest.mark.parametrize("critical,side", [("separatrix", "below"),
                                                    ("separatrix", "above"),
                                                    ("elliptic", "above")])


def _ladder_vs_scalar(model, critical, side, cfg):
    """A rate ladder checked against scalar calls, and its omitted count.

    The ladder keeps exactly the samples whose scalar ``dell_dE`` is finite
    (their panel is certified), each with that derivative bit for bit; the
    others are omitted. Returns the ladder (None when every sample is
    omitted, in which case ``sample_rates`` raises ``EmptyLadder``) and the
    omitted count.
    """
    kw = dict(eps_hi=1e-2, eps_lo=1e-5, pts_per_decade=4, cfg=cfg)
    e_min, e_sx = model.critical_energies()
    e_c = e_sx if critical == "separatrix" else e_min
    sign = -1.0 if side == "below" else 1.0
    kept, omitted = [], 0
    for eps in np.geomspace(1e-2, 1e-5, 13).tolist():
        d = lk.dell_dE(model, e_c + sign * eps, cfg=cfg)
        if math.isnan(d):
            omitted += 1
        else:
            kept.append((eps, abs(d)))
    if not kept:
        with pytest.raises(lk.EmptyLadder):
            lk.sample_rates(model, critical, side, **kw)
        return None, omitted
    ladder = lk.sample_rates(model, critical, side, **kw)
    assert [(s.eps, s.deriv_abs) for s in ladder.samples] == kept
    assert ladder.n_failed == 0
    return ladder, omitted


@_LADDERS
def test_sample_rates_match_scalar_calls(pend, critical, side):
    ladder, omitted = _ladder_vs_scalar(pend, critical, side, None)
    assert ladder.n_unconverged == omitted == 0


@_LADDERS
def test_sample_rates_count_unconverged(pend, critical, side):
    # rows capped at four levels below their seeds cannot meet 1e-15: the
    # panels they serve are not certified, so their samples are left out of
    # the fit and counted (on the separatrix ladders every sample is, so the
    # ladder is empty)
    ladder, omitted = _ladder_vs_scalar(pend, critical, side, _TIGHT)
    assert omitted > 0
    if ladder is not None:
        assert ladder.n_unconverged == omitted
        assert len(ladder.samples) + omitted == 13
