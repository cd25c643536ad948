"""Array-native domains: ``HamiltonianModel.domains`` builds the quadrature
rows of a whole batch of energies at once.

A batch equals its parts row for row and error for error; every batch
keeps the rows' invariants, and ``domain`` is its batch of one; a custom
model's sorted search of each scan cell's V range finds exactly the cells
of the dense sign-change test, hard walls included, without a numpy
warning and without a saddle at a wall; and NaN or infinite energies
raise, are flagged or are masked on every path.
"""

import math
import warnings

import numpy as np
import pytest

import ldkit as lk
from ldkit import geometric, models

NON_FINITE = [math.nan, math.inf, -math.inf]


def double_well():
    return lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4,
                         lambda q: -q + q ** 3, (-2.0, 2.0),
                         name="double-well", e_sx=0.0)


def hard_wall():
    """V = q^2/2 for |q| <= 1, infinite outside, on (-2, 2)."""
    def potential(q):
        q = np.asarray(q, dtype=np.float64)
        return np.where(np.abs(q) <= 1.0, 0.5 * q * q, np.inf)

    return lk.mechanical(potential, lambda q: np.asarray(q, dtype=np.float64),
                         (-2.0, 2.0), name="hard-wall")


def _cases():
    rng = np.random.default_rng(11)
    tiny = 1e-16
    return {
        # model, truncation, energies: below the minimum, at it, at the
        # separatrix and 1e-16 beside it, the range ends, non-finite values
        "pendulum": (lk.pendulum(), None,
                     [-3.0, -2.0, -2.0 + 1e-15, 0.0, -tiny, tiny, *NON_FINITE,
                      *rng.uniform(-2.0, 2.0, 12)]),
        "duffing": (lk.duffing(), None,
                    [-1.0, -0.25, -0.25 + 1e-16, 0.0, -tiny, tiny, *NON_FINITE,
                     *rng.uniform(-0.25, 1.0, 12)]),
        # -1e-20 and -1e-300: the branch end and the oval merge at the saddle
        "fishtail": (lk.fishtail(), lk.Truncation(-5.0),
                     [-40.0, -32.0, -32.0 + 1e-14, -32.0 + 1e-9, -1e-3, -1e-4,
                      0.0, -tiny, tiny, -1e-20, -1e-300, *NON_FINITE,
                      *rng.uniform(-32.0, 10.0, 12)]),
        # the oval ends at x4 <= 2 for E < 0 and the circulation at x2 >= 2
        # for E >= 0: a cut at 2.5 lies right of both up to E ~ 21, a cut
        # at 1 right of the oval below E = -25 (TruncationInsideDomain); at
        # E = -32 the oval is a point and the domain is empty
        "fishtail-cut": (lk.fishtail(), lk.Truncation(2.5),
                         [-32.0, -20.0, -1.0, 0.0, 1.0, 5.0, 25.0, -tiny, tiny,
                          *rng.uniform(-32.0, 30.0, 12)]),
        "fishtail-cut-oval": (lk.fishtail(), lk.Truncation(1.0),
                              [-32.0, -30.0, -20.0, -1.0, 0.0, 5.0, -tiny, tiny,
                               *rng.uniform(-32.0, 10.0, 12)]),
        "fishtail-unbounded-no-cut": (lk.fishtail(), None, [-40.0, -1.0, 1.0, math.nan]),
        "fishtail-bounded": (lk.fishtail(bounded_librations=True), None,
                             [-40.0, -32.0, -32.0 + 1e-14, -1e-3, -1e-4, -tiny, 0.0,
                              tiny, 1.0, *NON_FINITE, *rng.uniform(-32.0, 0.0, 12)]),
        "harmonic-oscillator": (lk.harmonic_oscillator(), None,
                                [-1.0, 0.0, 1e-300, *NON_FINITE,
                                 *rng.uniform(0.0, 3.0, 12)]),
        "harmonic-repulsor": (lk.harmonic_repulsor(), None,
                              [0.0, -tiny, tiny, -1e-300, *NON_FINITE,
                               *rng.uniform(-3.0, 3.0, 12)]),
        "double-well": (double_well(), None,
                        [-1.0, -0.25, 0.0, -tiny, tiny, *NON_FINITE,
                         *rng.uniform(-0.25, 1.0, 12)]),
    }


CASES = _cases()


def _per_energy(rows, n):
    """Per energy: its rows (bits of lo and hi, flag codes) and its error."""
    out = []
    for i in range(n):
        sel = rows.owner == i
        err = rows.errors[i]
        out.append((rows.lo[sel].tobytes(), rows.hi[sel].tobytes(),
                    rows.f_lo[sel].tolist(), rows.f_hi[sel].tolist(),
                    None if err is None else (type(err).__name__, str(err))))
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_equals_halves_and_singletons(case):
    model, trunc, energies = CASES[case]
    n = len(energies)
    whole = _per_energy(model.domains(energies, trunc), n)
    half = n // 2
    halves = (_per_energy(model.domains(energies[:half], trunc), half)
              + _per_energy(model.domains(energies[half:], trunc), n - half))
    singles = [_per_energy(model.domains([E], trunc), 1)[0] for E in energies]
    assert whole == halves == singles
    rows = model.domains(energies, trunc)
    assert np.all(np.diff(rows.owner) >= 0)
    assert np.all(rows.lo < rows.hi)
    assert rows.owner.size == rows.lo.size == rows.f_lo.size
    # rows of an energy are ordered and disjoint
    for i in range(n):
        lo, hi = rows.lo[rows.owner == i], rows.hi[rows.owner == i]
        assert np.all(hi[:-1] <= lo[1:])


@pytest.mark.parametrize("case", sorted(CASES))
def test_domain_and_panels_are_batches_of_one(case):
    model, trunc, energies = CASES[case]
    for E in energies:
        rows = model.domains([E], trunc)
        if rows.errors[0] is not None:
            with pytest.raises(type(rows.errors[0]), match=None) as info:
                model.domain(E, trunc)
            assert str(info.value) == str(rows.errors[0])
            continue
        panels = list(geometric._panels(model, E, model.domain(E, trunc)))
        assert panels == list(rows.pairs())


def periodic_well():
    """V = -cos q - 1 on (-pi, pi): the pendulum's potential as a custom model."""
    return lk.mechanical(lambda q: -np.cos(q) - 1.0, lambda q: np.sin(q),
                         (-math.pi, math.pi), name="periodic")


# model, truncation and the range of the uniform energies
INVARIANT_MODELS = {
    "pendulum": (lk.pendulum(), None, (-3.0, 3.0)),
    "duffing": (lk.duffing(), None, (-0.5, 1.5)),
    "fishtail": (lk.fishtail(), lk.Truncation(-5.0), (-40.0, 10.0)),
    "fishtail-bounded": (lk.fishtail(bounded_librations=True), None, (-40.0, 5.0)),
    "harmonic-oscillator": (lk.harmonic_oscillator(), None, (-1.0, 3.0)),
    "harmonic-repulsor": (lk.harmonic_repulsor(), None, (-3.0, 3.0)),
    "double-well": (double_well(), None, (-0.5, 2.5)),
    "periodic": (periodic_well(), None, (-3.0, 1.0)),
    "hard-wall": (hard_wall(), None, (-0.1, 1.0)),
}


@pytest.mark.parametrize("case", sorted(INVARIANT_MODELS))
def test_domain_rows_keep_their_invariants(case):
    model, trunc, (e_lo, e_hi) = INVARIANT_MODELS[case]
    rng = np.random.default_rng(32)
    B = model.breakpoints(trunc)
    energies = rng.permutation(np.concatenate([
        rng.uniform(e_lo, e_hi, 2000), B, B - 1e-12, B + 1e-12, NON_FINITE]))
    rows = model.domains(energies, trunc)
    owner = rows.owner
    assert owner.size == rows.lo.size == rows.hi.size == rows.f_lo.size == rows.f_hi.size
    assert len(rows.errors) == energies.size
    # grouped by owner in batch order, each row nonempty
    assert np.all(np.diff(owner) >= 0) and np.all((owner >= 0) & (owner < energies.size))
    assert np.all(rows.lo < rows.hi)
    # within an energy, in q order and disjoint
    same = owner[1:] == owner[:-1]
    assert np.all(rows.hi[:-1][same] <= rows.lo[1:][same])
    codes = [lk.REGULAR, lk.TURNING, lk.TRUNCATION]
    assert np.isin(rows.f_lo, codes).all() and np.isin(rows.f_hi, codes).all()
    failed = np.array([e is not None for e in rows.errors])
    assert not failed[owner].any()
    assert failed[~np.isfinite(energies)].all()
    # domain(E) is the energy's rows of the batch, bit for bit, or its error
    start = np.searchsorted(owner, np.arange(energies.size + 1))
    for i, E in enumerate(energies.tolist()):
        if failed[i]:
            with pytest.raises(type(rows.errors[i])) as info:
                model.domain(E, trunc)
            assert str(info.value) == str(rows.errors[i])
            continue
        one = model.domain(E, trunc)
        sl = slice(start[i], start[i + 1])
        assert one.errors == [None] and not one.owner.any()
        for a, b in ((one.lo, rows.lo[sl]), (one.hi, rows.hi[sl]),
                     (one.f_lo, rows.f_lo[sl]), (one.f_hi, rows.f_hi[sl])):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_errors_keep_their_types():
    expect = {
        "pendulum": [lk.BelowMinimum] + [None] * 5 + [lk.NonFiniteEnergy] * 3,
        "fishtail-cut": [None] + [lk.TruncationInsideDomain] * 5 + [None],
        "fishtail-cut-oval": [None, lk.TruncationInsideDomain] + [None] * 4,
        "fishtail-unbounded-no-cut": [lk.BelowMinimum, lk.TruncationRequired,
                                      lk.TruncationRequired, lk.NonFiniteEnergy],
        "fishtail-bounded": [lk.BelowMinimum] + [None] * 6 + [lk.OutsideDomain] * 2,
        "harmonic-oscillator": [lk.BelowMinimum, None, None] + [lk.NonFiniteEnergy] * 3,
    }
    for case, types in expect.items():
        model, trunc, energies = CASES[case]
        errors = model.domains(energies[:len(types)], trunc).errors
        assert [None if e is None else type(e) for e in errors] == types, case
    # the oscillator and the repulsor have an empty domain at E = 0
    for case in ("harmonic-oscillator", "harmonic-repulsor"):
        model, _, _ = CASES[case]
        rows = model.domains([0.0])
        assert rows.errors == [None] and rows.owner.size == 0
        assert model.domain(0.0).lo.size == 0


def test_fishtail_branch_and_oval_merge_at_the_saddle(fish, trunc):
    # the left branch ends at -4 - u and the oval starts at -4 + u with
    # u ~ sqrt(-E/6): 8e-9 apart at E = -1e-16, merged within 1e-9 at -1e-20
    ((lo1, hi1), _), ((lo2, hi2), _) = fish.domain(-1e-16, trunc).pairs()
    assert lo1 == -5.0 and hi1 < -4.0 < lo2
    # merged, the interval from the cut is split at the saddle again
    (iv1, fl1), ((lo, hi), fl2) = fish.domain(-1e-20, trunc).pairs()
    assert iv1 == (-5.0, -4.0) and lo == -4.0
    assert hi == pytest.approx(2.0, abs=1e-12)
    assert fl1 == (lk.TRUNCATION, lk.TURNING) and fl2 == (lk.TURNING, lk.TURNING)


def test_no_model_class_defines_a_scalar_domain():
    classes = [models.Pendulum, models.Duffing, models.Fishtail,
               models.HarmonicOscillator, models.HarmonicRepulsor,
               models.MechanicalModel]
    for cls in classes:
        assert "domain" not in vars(cls), cls.__name__
        assert "_intervals" in vars(cls), cls.__name__


def _dense_cells(model, E):
    g = E - model._vs
    g0, g1 = g[:-1], g[1:]
    cells = np.flatnonzero((g0 == 0.0) | (np.sign(g0) * np.sign(g1) < 0.0)).tolist()
    if g[-1] == 0.0:
        cells.append(model.scan_points)
    return cells


def _scan_cells(model, energies):
    owner, cell = model._crossing_cells(np.asarray(energies, dtype=np.float64))
    return [cell[owner == i].tolist() for i in range(len(energies))]


def test_run_scan_finds_the_dense_cells():
    # V = cos 5q + q^2/10 on [-3, 3] has nine extrema
    many = lk.mechanical(lambda q: np.cos(5.0 * np.asarray(q)) + 0.1 * np.asarray(q) ** 2,
                         lambda q: -5.0 * np.sin(5.0 * np.asarray(q)) + 0.2 * np.asarray(q),
                         (-3.0, 3.0))
    vs = many._vs
    rng = np.random.default_rng(5)
    energies = np.concatenate([
        rng.uniform(vs.min() - 0.1, vs.max() + 0.1, 400),
        vs[rng.integers(0, vs.size, 60)],  # roots on scan nodes
        [vs[-1], vs[0], vs.min(), vs.max()],  # on the last node and the extremes
        np.nextafter(vs[-1], [-math.inf, math.inf]),
    ])
    assert _scan_cells(many, energies) == [_dense_cells(many, E) for E in energies]

    # a flat bottom: every cell on it starts on a node equal to E = 0
    flat = lk.mechanical(lambda q: np.maximum(np.abs(np.asarray(q)) - 1.0, 0.0) ** 2,
                         lambda q: 2.0 * np.sign(q) * np.maximum(np.abs(q) - 1.0, 0.0),
                         (-2.0, 2.0))
    energies = [0.0, 1e-300, 0.25, 1.0, 2.0]
    cells = _scan_cells(flat, energies)
    assert len(cells[0]) == 2049  # the nodes on [-1, 1]
    assert cells == [_dense_cells(flat, E) for E in energies]

    # hard walls: V is infinite at both search ends and beyond |q| = 1
    wall = hard_wall()
    vs = wall._vs
    finite = vs[np.isfinite(vs)]
    assert np.isinf(vs[[0, -1]]).all() and finite[[0, -1]].tolist() == [0.5, 0.5]
    energies = np.concatenate([
        rng.uniform(-0.1, 1.0, 100),
        finite[rng.integers(0, finite.size, 40)],  # roots on scan nodes
        # V at the walls' finite neighbours and beside it
        np.nextafter(0.5, [-math.inf, math.inf]), [0.5],
        # up to the infinite V of both search ends, and the minimum
        [1e300, np.finfo(float).max, 0.0],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells = _scan_cells(wall, energies)
    assert cells == [_dense_cells(wall, E) for E in energies]
    assert cells[-1] == [int(np.flatnonzero(vs == 0.0)[0])]
    # E = 0.5: roots on the walls' finite nodes q = -1 and 1, none beyond them
    assert cells[-4] == np.flatnonzero(vs == 0.5).tolist() == [1024, 3072]


def test_a_hard_wall_builds_and_runs_without_warnings():
    # np.diff over the infinite nodes once warned when the model was built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = hard_wall()
        E = np.array([1e-3, 0.01, 0.1, 0.25, 0.3, 0.45])
        want = 2.0 * math.pi * np.sqrt(2.0 * E)  # circles of radius sqrt(2E) inside the walls
        assert np.all(np.abs(lk.ell_batch(m, E).values - want) <= 1e-12 * want)
        assert all(abs(lk.ell(m, float(e)) - w) <= 1e-12 * w for e, w in zip(E, want))
        ls = lk.landscape(m, 0.0, 0.45, 46, with_derivs=True)
    assert ls.converged.all()
    want = 2.0 * math.pi * np.sqrt(2.0 * ls.energies)
    assert np.all(np.abs(ls.lengths - want) <= 1e-12 * want)


def test_a_hard_wall_has_no_saddle():
    # the last infinite node before a finite one was once taken for a
    # maximum (inf >= inf > V): a saddle at q = -1.001953125, where V = inf
    m = hard_wall()
    assert m.saddles == ()
    assert m.breakpoints().tolist() == [0.0]
    assert lk.ell(m, 0.3).hex() == "0x1.377bda77efb1bp+2"


@pytest.mark.parametrize("case", ["pendulum", "duffing", "fishtail", "fishtail-bounded",
                                  "harmonic-oscillator", "harmonic-repulsor",
                                  "double-well"])
def test_non_finite_energies(case):
    model, trunc, energies = CASES[case]
    good = [E for E in energies if math.isfinite(E)][-3:]
    for E in NON_FINITE:
        with pytest.raises(lk.NonFiniteEnergy):
            lk.ell(model, E, trunc)
    batch = [good[0], math.nan, good[1], math.inf, -math.inf, good[2]]
    b = lk.ell_batch(model, batch, trunc)
    bad = [isinstance(e, lk.NonFiniteEnergy) for e in b.errors]
    assert bad == [False, True, False, True, True, False]
    assert np.all(np.isnan(b.values[bad])) and not b.converged[bad].any()
    alone = lk.ell_batch(model, good, trunc)
    assert b.values[[0, 2, 5]].tobytes() == alone.values.tobytes()


def test_ell_map_masks_non_finite_energies():
    # V is NaN right of q = 1.25 and infinite left of q = -1.5
    def potential(q):
        q = np.asarray(q, dtype=np.float64)
        return np.where(q > 1.25, np.nan, np.where(q < -1.5, np.inf, 0.5 * q * q))

    def slope(q):
        return np.asarray(q, dtype=np.float64)

    m = lk.mechanical(potential, slope, (-1.5, 1.25))
    spec = lk.GridSpec(-2.0, 2.0, -1.0, 1.0, 9, 4)
    q = spec.q_nodes()
    finite_cols = (q >= -1.5) & (q <= 1.25)
    for table in (False, True):
        g = lk.ell_map(m, spec, table=table)
        assert not g.mask[:, ~finite_cols].any()
        assert g.mask[:, finite_cols].all()
        assert np.all(np.isfinite(g.values[g.mask]))
