import dataclasses
import math

import numpy as np
import pytest

import ldkit as lk
from ldkit import _kernels
from ldkit._kernels import dp45_arclength, dp45_callable, dp45_lanes
from ldkit.temporal import IntegratorConfig, _ld_lanes


def test_vector_field_examples(pend, duff):
    fq, fp = pend.vector_field(math.pi, 0.0)
    assert fq == 0.0
    assert fp == pytest.approx(0.0, abs=1e-12)
    assert pend.vector_field(0.0, 2.0) == (2.0, pytest.approx(0.0, abs=1e-15))
    fq, fp = duff.vector_field(1.0, 0.0)
    assert (fq, fp) == (0.0, 0.0)


def test_oscillator_closed_form(ho, rng):
    t = 20.0
    for _ in range(5):
        q0, p0 = rng.uniform(-2.0, 2.0, 2)
        if math.hypot(q0, p0) < 0.1:
            continue
        r = lk.temporal_ld(ho, (q0, p0), t)
        assert r.ok
        expected = 2.0 * t * math.hypot(q0, p0)  # = 2 t sqrt(2 E)
        assert r.total == pytest.approx(expected, rel=1e-6)
        assert r.plus == pytest.approx(0.5 * expected, rel=1e-6)
        assert r.minus == pytest.approx(0.5 * expected, rel=1e-6)


def test_saddle_has_zero_length(pend):
    r = lk.temporal_ld(pend, (math.pi, 0.0), 20.0)
    assert r.total == pytest.approx(0.0, abs=1e-6)


def test_circulation_matches_curve_length(pend):
    # wrap-counting oracle: a circulating trajectory covers the
    # positive-momentum branch once per angular revolution, so its arc
    # length is (whole revolutions) x (branch length) plus the partial piece
    t = 20.0
    q0, p0 = 0.0, 2.5
    E = pend.energy(q0, p0)
    s, q_end, _, status, _ = dp45_arclength(
        pend, q0, p0, t, 1e-10, 1e-12, math.inf, 10_000_000, False
    )
    assert status == 0
    assert q_end > q0
    n_rev = math.floor((q_end - q0) / (2.0 * math.pi))
    branch_len = lk.arclength_interval(pend, E, (-math.pi, math.pi),
                                       ("regular", "regular")).value
    e = q_end - q0 - n_rev * 2.0 * math.pi  # leftover angle in [0, 2 pi)
    partial = lk.polyline_oracle(pend, E, (0.0, min(e, math.pi)), 200_000)
    if e > math.pi:
        partial += lk.polyline_oracle(pend, E, (-math.pi, e - 2.0 * math.pi),
                                      200_000)
    expected = n_rev * branch_len + partial
    assert s == pytest.approx(expected, rel=5e-3)


def test_energy_conservation_bounded_models(pend, duff, ho):
    cases = [(pend, (0.5, 1.0)), (pend, (0.0, 2.1)), (duff, (0.2, 0.4)),
             (ho, (1.0, 0.3))]
    for m, (q0, p0) in cases:
        for reverse in (False, True):
            _, q, p, status, _ = dp45_arclength(
                m, q0, p0, 20.0, 1e-10, 1e-12, math.inf,
                10_000_000, reverse
            )
            assert status == 0
            assert abs(m.energy(q, p) - m.energy(q0, p0)) <= 1e-8


def test_time_reversal_symmetry(pend, duff):
    # H even in momentum: the backward piece is the forward piece of the
    # momentum-reflected initial condition, bit for bit
    for m, x0 in ((pend, (0.7, 0.9)), (duff, (0.9, 0.25))):
        a = lk.temporal_ld(m, x0, 15.0)
        b = lk.temporal_ld(m, (x0[0], -x0[1]), 15.0)
        assert a.minus.hex() == b.plus.hex()
        assert (a.status_minus, a.steps_minus) == (b.status_plus, b.steps_plus)


def test_reverse_piece_matches_reversed_field_bitwise(pend, duff, fish, ho, rep):
    # dp45_arclength runs the backward piece as the forward piece from
    # (q, -p) and mirrors the end momentum back; no bit differs from
    # integrating the time-reversed field itself (a fish-tail blow-up included)
    well = lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4,
                         lambda q: q ** 3 - q, (-2.0, 2.0))
    cfg = IntegratorConfig()
    opts = (10.0, cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.max_steps)
    for m, q0, p0 in ((pend, 0.7, 0.9), (duff, 0.9, 0.25), (fish, -5.0, 1.0),
                      (fish, 0.5, -0.75), (ho, 1.0, 0.3), (rep, 0.5, -0.2),
                      (well, 0.3, 0.4)):
        def reversed_field(q, p):
            fq, fp = m.vector_field(q, p)
            return -fq, -fp

        s, q, p, status, nsteps = dp45_arclength(m, q0, p0, *opts, True)
        want = dp45_callable(reversed_field, q0, p0, *opts)
        assert [s.hex(), q.hex(), p.hex(), status, nsteps] == [
            want[0].hex(), want[1].hex(), want[2].hex(), want[3], want[4]]


def test_tolerance_tightening(pend):
    x0, t = (0.3, 1.2), 20.0
    coarse = lk.temporal_ld(pend, x0, t, IntegratorConfig(rel_tol=1e-8))
    fine = lk.temporal_ld(pend, x0, t, IntegratorConfig(rel_tol=1e-9))
    assert abs(coarse.total - fine.total) < 10.0 * 1e-8 * coarse.total


def test_blowup_flag(fish):
    r = lk.temporal_ld(fish, (-5.0, 1.0), 20.0)
    assert not r.ok
    assert 1 in (r.status_plus, r.status_minus)
    assert math.isfinite(r.total)


def test_step_limit_flag(pend):
    cfg = IntegratorConfig(max_steps=40)
    r = lk.temporal_ld(pend, (0.3, 1.1), 50.0, cfg)
    assert r.status_plus == 2


def test_rejects_nonpositive_horizon(pend):
    with pytest.raises(ValueError):
        lk.temporal_ld(pend, (0.0, 1.0), 0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_horizon(pend, t):
    # a NaN window once gave LD 0.0 with status OK, and every lane of a
    # batch ran to max_steps; the small limit keeps a regression from hanging
    cfg = IntegratorConfig(max_steps=50)
    with pytest.raises(ValueError):
        lk.temporal_ld(pend, (0.3, 1.0), t, cfg)
    with pytest.raises(ValueError):
        lk.temporal_map(pend, lk.GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3), t, cfg)
    with pytest.raises(ValueError):
        lk.ld_landscape_line(pend, lk.LineSpec("q", 0.0, 0.0, 1.0, 3), t, cfg)


def test_rejects_nan_tolerances():
    for bad in ({"rel_tol": math.nan}, {"abs_tol": math.nan}, {"rel_tol": 0.0}):
        with pytest.raises(ValueError):
            IntegratorConfig(**bad)


def test_line_elliptic_point_zero(pend):
    line = lk.LineSpec("q", 0.0, 0.0, 2.5, 6)
    res = lk.ld_landscape_line(pend, line, 20.0)
    assert res.total[0] == pytest.approx(0.0, abs=1e-9)
    assert np.all(res.status == 0)


def test_line_oscillator_monotone(ho):
    line = lk.LineSpec("q", 0.0, 0.1, 2.0, 40)
    res = lk.ld_landscape_line(ho, line, 20.0)
    assert np.all(np.diff(res.total) > 0.0)
    expected = 2.0 * 20.0 * res.coords  # = 2 t sqrt(2 E)
    assert res.total == pytest.approx(expected, rel=1e-6)


def test_line_batch_composition(pend):
    # a line is one batched run; each point must not depend on which other
    # points share the batch (coordinates step by 1/16, exact in binary)
    line = lk.LineSpec("q", 0.0, 1.0, 2.5, 25)
    full = lk.ld_landscape_line(pend, line, 10.0)
    a = lk.ld_landscape_line(pend, lk.LineSpec("q", 0.0, 1.0, 1.75, 13), 10.0)
    b = lk.ld_landscape_line(pend, lk.LineSpec("q", 0.0, 1.8125, 2.5, 12), 10.0)
    assert np.array_equal(full.coords, np.concatenate([a.coords, b.coords]))
    for name in ("total", "plus", "minus", "status", "steps"):
        halves = np.concatenate([getattr(a, name), getattr(b, name)])
        assert np.array_equal(getattr(full, name), halves)


def test_line_spec_validation():
    with pytest.raises(ValueError):
        lk.LineSpec("x", 0.0, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        lk.LineSpec("q", 0.0, 0.0, 1.0, 1)
    with pytest.raises(ValueError):  # once accepted, then a TypeError
        lk.LineSpec("q", 0.0, 0.0, 1.0, 2.5)


def test_mechanical_model_flow():
    mech = lk.mechanical(lambda q: 0.5 * np.asarray(q) ** 2,
                         lambda q: np.asarray(q), (-4.0, 4.0))
    r = lk.temporal_ld(mech, (0.6, 0.8), 10.0)
    assert r.total == pytest.approx(2.0 * 10.0 * 1.0, rel=1e-6)


# -- batched lines and grids against the scalar stepper ------------------------

# 5 x 11 pendulum nodes: the centre (0, 0), the saddles (+-pi, 0), the
# separatrix through (0, +-2), librations and circulations (p = +-2.5)
PARITY_SPEC = lk.GridSpec(-math.pi, math.pi, -2.5, 2.5, 5, 11)


def _per_node(model, q0, p0, t, cfg=None):
    return [lk.temporal_ld(model, (float(q), float(p)), t, cfg)
            for q, p in zip(np.ravel(q0), np.ravel(p0))]


def _unmirrored(model, q0, p0, t, cfg=None):
    """Each start alone, as a batch of one lane, its backward piece run on
    the time-reversed field (no mirroring)."""
    cfg = cfg or IntegratorConfig()
    opts = (t, cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.max_steps)

    def reversed_field(q, p):
        fq, fp = model.vector_field(q, p)
        return -fq, -fp

    out = []
    for q, p in zip(q0.tolist(), p0.tolist()):
        for f in (model.vector_field, reversed_field):
            s, _, _, status, nsteps = dp45_lanes(f, [q], [p], *opts)
            out.append((s[0], status[0], nsteps[0]))
    s, status, nsteps = (np.array(col).reshape(-1, 2).T for col in zip(*out))
    return s[0], s[1], status[0], status[1], nsteps[0], nsteps[1]


def _close(batched, scalar, lone, stopped):
    # every piece equals its lone lane bit for bit, one stopped early
    # (blow-up, step limit) included; a piece that runs to t also matches
    # the scalar stepper to 1e-11
    scalar = np.asarray(scalar)
    if not np.array_equal(batched, lone):
        return False
    run = ~stopped
    return np.all(np.abs(batched[run] - scalar[run]) <= 1e-11 * np.abs(scalar[run]))


def _assert_line_parity(model, line, t, cfg=None):
    res = lk.ld_landscape_line(model, line, t, cfg)
    fixed = np.full(line.n, line.value)
    q0, p0 = (fixed, res.coords) if line.fixed == "q" else (res.coords, fixed)
    refs = _per_node(model, q0, p0, t, cfg)
    plus, minus = _unmirrored(model, q0, p0, t, cfg)[:2]
    st_p = np.array([r.status_plus for r in refs])
    st_m = np.array([r.status_minus for r in refs])
    assert np.array_equal(res.status, np.maximum(st_p, st_m))
    assert _close(res.plus, [r.plus for r in refs], plus, st_p != 0)
    assert _close(res.minus, [r.minus for r in refs], minus, st_m != 0)
    assert _close(res.total, [r.total for r in refs], plus + minus, res.status != 0)
    return res, refs


def _assert_map_parity(model, spec, t, cfg=None):
    g = lk.temporal_map(model, spec, t, cfg)
    Q, P = np.meshgrid(spec.q_nodes(), spec.p_nodes())
    refs = _per_node(model, Q, P, t, cfg)
    plus, minus = _unmirrored(model, Q.ravel(), P.ravel(), t, cfg)[:2]
    ok = np.array([r.ok for r in refs])
    assert np.array_equal(g.mask.ravel(), ok)
    assert _close(g.values.ravel(), [r.total for r in refs], plus + minus, ~ok)
    return g, refs


def test_batched_map_matches_scalar(pend):
    g, _ = _assert_map_parity(pend, PARITY_SPEC, 10.0)
    assert g.mask.all()
    assert g.values[5, 2] == 0.0  # the centre does not move


def test_batched_lines_match_scalar(pend):
    _assert_line_parity(pend, lk.LineSpec("q", 0.0, -2.5, 2.5, 11), 10.0)
    res, _ = _assert_line_parity(pend, lk.LineSpec("p", 0.0, -math.pi, math.pi, 5),
                                 10.0)
    assert np.all(res.status == 0)


def test_batched_blowup_matches_scalar(fish):
    g, _ = _assert_map_parity(fish, lk.GridSpec(-6.0, -4.5, 0.5, 1.5, 3, 3), 20.0)
    assert not g.mask.all()
    res, _ = _assert_line_parity(fish, lk.LineSpec("p", 1.0, -6.0, -4.5, 4), 20.0)
    assert np.any(res.status == 1)


def test_batched_step_limit_matches_scalar(pend):
    cfg = IntegratorConfig(max_steps=5)
    g, refs = _assert_map_parity(pend, PARITY_SPEC, 10.0, cfg)
    assert not g.mask.any()
    for r in refs:
        assert (r.status_plus, r.status_minus) == (2, 2)
        assert r.steps_plus == r.steps_minus == cfg.max_steps
    res, _ = _assert_line_parity(pend, lk.LineSpec("q", 0.0, -2.5, 2.5, 11), 10.0,
                                 cfg)
    assert np.all(res.status == 2)
    assert np.all(res.steps == 2 * cfg.max_steps)
    # the batched stepper stops these lanes on its own count too
    Q, P = np.meshgrid(PARITY_SPEC.q_nodes(), PARITY_SPEC.p_nodes())
    _, _, _, status, nsteps = dp45_lanes(
        pend.vector_field, Q.ravel(), P.ravel(), 10.0,
        cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.max_steps)
    assert np.all(status == 2)
    assert np.all(nsteps == cfg.max_steps)


def test_nan_field_stops_with_step_limit():
    # the slope turns NaN once a trajectory passes q = 1; the scalar stepper
    # shrinks h on the NaN error until it underflows (status 2 after 88
    # steps forward); a batched lane must stop the same way, not run on to
    # max_steps (lowered here from 10**7 so that a regression fails fast)
    mech = lk.mechanical(lambda q: 0.5 * np.asarray(q) ** 2,
                         lambda q: np.where(np.asarray(q) > 1.0, np.nan, q),
                         (-4.0, 4.0))
    cfg = IntegratorConfig(max_steps=10_000)
    r = lk.temporal_ld(mech, (0.5, 1.0), 10.0, cfg)
    assert r.status_plus == 2 and r.steps_plus < 200
    # the batched stepper itself, before a stopped lane is run again on the
    # scalar one
    _, _, _, status, nsteps = dp45_lanes(
        mech.vector_field, [0.5, 0.5], [1.0, 1.2], 10.0,
        cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.max_steps)
    assert np.all(status == 2)
    assert np.all(nsteps < 200)
    res = lk.ld_landscape_line(mech, lk.LineSpec("q", 0.5, 1.0, 1.2, 2), 10.0, cfg)
    assert np.all(res.status == 2)
    assert np.all(res.steps < 1000)


def test_nan_field_at_start_stops_at_once():
    # the field is NaN at the initial condition, so the first step size is
    # NaN; every path must stop on the step-size floor with status 2 after
    # one step, not run on to max_steps (10**7 at the default config)
    mech = lk.mechanical(lambda q: 0.5 * np.asarray(q) ** 2,
                         lambda q: np.where(np.asarray(q) > 1.0, np.nan, q),
                         (-4.0, 4.0))
    r = lk.temporal_ld(mech, (1.5, 0.0), 10.0)
    assert (r.status_plus, r.status_minus) == (2, 2)
    assert r.steps_plus <= 2 and r.steps_minus <= 2
    res = lk.ld_landscape_line(mech, lk.LineSpec("p", 0.0, 1.5, 2.0, 2), 10.0)
    assert np.all(res.status == 2)
    assert np.all(res.steps <= 4)  # both directions together
    # each start and its mirror (q, -0.0), whose forward lane is the
    # backward piece
    cfg = IntegratorConfig()
    _, _, _, status, nsteps = dp45_lanes(
        mech.vector_field, [1.5, 1.5, 2.0, 2.0], [0.0, -0.0, 0.0, -0.0], 10.0,
        cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.max_steps)
    assert np.all(status == 2)
    assert np.all(nsteps <= 2)


# -- backward pieces as mirrored forward lanes ---------------------------------

@pytest.mark.parametrize("line, lanes", [
    (lk.LineSpec("p", 0.0, -math.pi, math.pi, 9), 9),  # (q, 0.0) is its own mirror
    (lk.LineSpec("q", 0.0, -2.5, 2.5, 11), 11),  # p and -p both on the line
    (lk.LineSpec("q", 0.0, 0.0, 2.5, 11), 21),  # only p = 0 is mirrored
])
def test_line_runs_each_distinct_start_once(double_well, lane_counts, line, lanes):
    # a custom model is only time-reversed: (q, p) and (-q, -p) stay apart
    lk.ld_landscape_line(double_well, line, 2.0)
    assert lane_counts == [lanes]


@pytest.mark.parametrize("line, lanes", [
    (lk.LineSpec("p", 0.0, -2.0, 2.0, 9), 5),  # (q, 0) and (-q, 0) share a lane
    (lk.LineSpec("q", 0.0, -2.5, 2.5, 11), 6),  # (0, p), (0, -p): one lane
    (lk.LineSpec("q", 0.0, 0.0, 2.5, 11), 11),
    (lk.LineSpec("q", 0.5, -2.5, 2.5, 11), 11),  # (0.5, p) and (0.5, -p)
])
def test_line_folds_point_reflected_starts(pend, lane_counts, line, lanes):
    # the pendulum's V is even, so the lane from (-q, -p) is the lane from
    # (q, p) reflected through the origin and runs once
    res = lk.ld_landscape_line(pend, line, 2.0)
    assert lane_counts == [lanes]
    if line.lo == -line.hi:
        assert np.array_equal(res.total, res.total[::-1])


def _spy_scalar_steppers(monkeypatch):
    """Record every call of the scalar stepper, through either entry."""
    calls = []
    for name in ("dp45_callable", "dp45_arclength"):
        def spy(*args, _real=getattr(_kernels, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(_kernels, name, spy)
    return calls


def test_stopped_lanes_keep_their_batched_values(fish, monkeypatch):
    # p nodes step by 1.5, exact in binary and symmetric about 0, so each
    # start's mirror (q, -p) is a node too: the forward piece of one node is
    # the backward piece of another. No piece runs on the scalar stepper; a
    # stopped piece keeps the values of its own lane
    spec = lk.GridSpec(-6.0, 2.0, -3.0, 3.0, 5, 5)
    Q, P = np.meshgrid(spec.q_nodes(), spec.p_nodes())
    q0, p0 = Q.ravel(), P.ravel()
    calls = _spy_scalar_steppers(monkeypatch)
    got = _ld_lanes(fish, q0, p0, 20.0, None)
    lk.temporal_map(fish, lk.GridSpec(-6.0, -4.5, 0.5, 1.5, 3, 3), 20.0)
    lk.ld_landscape_line(fish, lk.LineSpec("p", 1.0, -6.0, -4.5, 4), 20.0)
    monkeypatch.undo()
    assert calls == []
    st_p, st_m = got[2:4]
    assert np.any(st_p == 1) and np.any(st_m == 1)
    stopped = (st_p != 0) | (st_m != 0)
    want = _unmirrored(fish, q0[stopped], p0[stopped], 20.0)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a[stopped], b)


@pytest.mark.parametrize("case", ["pendulum", "step-limit", "fishtail-mirrored",
                                  "fishtail", "double-well"])
def test_mirrored_lanes_match_reversed_field_bitwise(case, pend, fish):
    # running (q, -p) forward in place of (q, p) backward changes no bit of
    # any piece, status or step count, blow-up and step-limit lanes included
    cfg = IntegratorConfig()
    t = 5.0
    if case in ("pendulum", "step-limit"):
        model, spec = pend, PARITY_SPEC  # has a p = 0 row
        if case == "step-limit":
            cfg = IntegratorConfig(max_steps=5)
    elif case == "fishtail-mirrored":
        # escapes past the saddle at q = -4 and librations about q = 0
        model, spec, t = fish, lk.GridSpec(-6.0, -2.0, -1.0, 1.0, 3, 3), 4.0
    elif case == "fishtail":
        model, spec, t = fish, lk.GridSpec(-6.0, -4.5, 0.5, 1.5, 2, 2), 20.0
    else:
        model = lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4,
                              lambda q: q ** 3 - q, (-2.0, 2.0))
        spec = lk.GridSpec(-0.5, 0.5, -0.75, 0.75, 3, 3)
    Q, P = np.meshgrid(spec.q_nodes(), spec.p_nodes())
    q0, p0 = Q.ravel(), P.ravel()
    got = _ld_lanes(model, q0, p0, t, cfg)
    want = _unmirrored(model, q0, p0, t, cfg)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    plus, minus, st_p, st_m = want[:4]
    g = lk.temporal_map(model, spec, t, cfg)
    assert np.array_equal(g.values.ravel(), plus + minus)
    assert np.array_equal(g.mask.ravel(), (st_p == 0) & (st_m == 0))
    if case.startswith("fishtail"):
        assert np.any(st_p == 1) and np.any(st_m == 1)
    if case == "fishtail-mirrored":
        assert np.any((st_p == 0) & (st_m == 0))
    if case == "step-limit":
        assert np.all(st_p == 2) and np.all(st_m == 2)


# -- point-reflected starts as one lane ---------------------------------------

# symmetric about the origin (nodes step by 0.75, exact in binary), so every
# node's reflection (-q, -p) is a node; the repulsor's window is long enough
# for most of its lanes to blow up
SYMMETRIC = {"pendulum": (lk.GridSpec(-3.0, 3.0, -1.5, 1.5, 9, 5), 5.0),
             "duffing": (lk.GridSpec(-1.5, 1.5, -1.5, 1.5, 5, 5), 5.0),
             "harmonic-oscillator": (lk.GridSpec(-1.5, 1.5, -1.5, 1.5, 5, 5), 5.0),
             "harmonic-repulsor": (lk.GridSpec(-1.5, 1.5, -0.75, 0.75, 5, 3), 30.0)}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_point_reflected_lanes_match_unmirrored_bitwise(name, lane_counts,
                                                        monkeypatch):
    # running (-q, -p) in place of (q, p) changes no bit of any piece, status
    # or step count, and no piece runs on the scalar stepper, a stopped one
    # included
    model = lk.get_model(name)
    spec, t = SYMMETRIC[name]
    cfg = IntegratorConfig()
    Q, P = np.meshgrid(spec.q_nodes(), spec.p_nodes())
    q0, p0 = Q.ravel(), P.ravel()
    calls = _spy_scalar_steppers(monkeypatch)
    got = _ld_lanes(model, q0, p0, t, cfg)
    monkeypatch.undo()
    assert calls == []
    assert lane_counts == [(q0.size + 1) // 2]  # the origin is its own image
    want = _unmirrored(model, q0, p0, t, cfg)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    st_p, st_m = want[2:4]
    if name == "harmonic-repulsor":
        assert np.any(st_p == 1) and np.any(st_m == 1)
        assert np.any((st_p == 0) & (st_m == 0))
    g = lk.temporal_map(model, spec, t, cfg)
    assert np.array_equal(g.values, g.values[::-1, ::-1])
    assert np.array_equal(g.mask, g.mask[::-1, ::-1])


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_asymmetric_sub_grid_matches_symmetric_grid(name):
    # a sub-grid whose q nodes are not symmetric folds fewer starts; each node
    # still gets the bits it gets in the symmetric grid
    model = lk.get_model(name)
    spec, t = SYMMETRIC[name]
    dq = (spec.q_hi - spec.q_lo) / (spec.nq - 1)
    sub = dataclasses.replace(spec, q_lo=spec.q_lo + 3 * dq, nq=spec.nq - 3)
    assert np.array_equal(sub.q_nodes(), spec.q_nodes()[3:])
    whole = lk.temporal_map(model, spec, t)
    part = lk.temporal_map(model, sub, t)
    assert np.array_equal(part.values, whole.values[:, 3:])
    assert np.array_equal(part.mask, whole.mask[:, 3:])
    Q, P = np.meshgrid(sub.q_nodes(), sub.p_nodes())
    lanes = _ld_lanes(model, Q.ravel(), P.ravel(), t, None)
    Q, P = np.meshgrid(spec.q_nodes(), spec.p_nodes())
    ref = _ld_lanes(model, Q.ravel(), P.ravel(), t, None)
    for a, b in zip(lanes, ref):
        assert np.array_equal(a, b.reshape(spec.np, spec.nq)[:, 3:].ravel())


@pytest.mark.parametrize("kw", [dict(max_steps=-1), dict(max_steps=0),
                                dict(max_steps=4.5), dict(max_step=0.0),
                                dict(max_step=-1.0), dict(max_step=math.nan)])
def test_integrator_config_rejects_unusable_step_limits(kw):
    # max_steps=-1 or max_step=0 once marked every start step-limited
    with pytest.raises(ValueError):
        IntegratorConfig(**kw)


def test_integrator_config_accepts_integer_step_limits():
    assert IntegratorConfig(max_steps=np.int64(5), max_step=0.5).max_steps == 5


def test_integrator_config_is_frozen():
    # max_steps = -1 assigned after the checks once stopped every start
    # after 0 steps
    cfg = IntegratorConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.max_steps = -1
    assert cfg.max_steps == 10_000_000
