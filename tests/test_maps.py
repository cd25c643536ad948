import math
import os
import threading
import tracemalloc
from itertools import repeat
from types import SimpleNamespace

import numpy as np
import pytest

import ldkit as lk


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        lk.GridSpec(1.0, 0.0, 0.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        lk.GridSpec(0.0, 1.0, 0.0, 1.0, 1, 4)


def test_grid_spec_rejects_non_integer_counts():
    # a count of 2.5 was accepted, and np.linspace then raised TypeError
    for nq, np_ in ((2.5, 4), (4, 2.5), (4.0, 4)):
        with pytest.raises(ValueError):
            lk.GridSpec(0.0, 1.0, 0.0, 1.0, nq, np_)
    assert lk.GridSpec(0.0, 1.0, 0.0, 1.0, np.int64(3), 4).q_nodes().size == 3


def test_grid_spec_rejects_nodes_that_collapse():
    # bounds four ulps apart hold three floats, not five nodes: linspace
    # repeats two of them, on which a grid CSV did not read back ("q nodes
    # differ between rows") and B divided by a step the nodes do not have
    hi = 1.0000000000000004
    assert np.linspace(1.0, hi, 5).tolist() == [1.0, 1.0, 1.0000000000000002, hi, hi]
    for bounds in ((1.0, hi, -1.0, 1.0), (-1.0, 1.0, 1.0, hi)):
        with pytest.raises(ValueError, match="nodes are equal"):
            lk.GridSpec(*bounds, 5, 5)
    assert lk.GridSpec(1.0, hi, 1.0, hi, 3, 3).p_nodes().tolist() == [1.0, 1.0000000000000002, hi]


def _within_tolerance(got, want, cfg=lk.QuadratureConfig()):
    return np.abs(got - want) <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(want))


def test_tiny_grid_matches_pointwise_ell(pend):
    # ell_map interpolates ell(E), certified to the quadrature's tolerance
    spec = lk.GridSpec(-1.0, 1.0, -1.0, 1.0, 2, 2)
    g = lk.ell_map(pend, spec)
    for jp, p in enumerate(spec.p_nodes()):
        for iq, q in enumerate(spec.q_nodes()):
            assert _within_tolerance(g.values[jp, iq], lk.ell(pend, float(pend.energy(q, p))))
    assert g.mask.all()
    assert g.quantity == "ell"


def double_well():
    return lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4,
                         lambda q: -q + q ** 3, (-2.0, 2.0), name="double-well", e_sx=0.0)


# dyadic grids holding each elliptic minimum, the separatrix energy and the
# other breakpoints as exact nodes, and nodes on both sides of each
CONTRACT_CASES = {
    "pendulum": (lk.pendulum, None, (-math.pi, math.pi, -2.5, 2.5, 33, 41)),
    "duffing": (lk.duffing, None, (-2.0, 2.0, -1.0, 1.0, 33, 17)),
    "fishtail-cut": (lk.fishtail, -5.0, (-7.0, 1.0, -4.0, 4.0, 33, 33)),
    "fishtail-bounded": (lambda: lk.fishtail(bounded_librations=True), None,
                         (-6.0, 2.0, -4.0, 4.0, 33, 33)),
    "harmonic-oscillator": (lk.harmonic_oscillator, None, (-2.0, 2.0, -2.0, 2.0, 17, 17)),
    "harmonic-repulsor": (lk.harmonic_repulsor, None, (-2.0, 2.0, -2.0, 2.0, 17, 17)),
    "double-well": (double_well, None, (-2.0, 2.0, -1.0, 1.0, 33, 17)),
    # the upper well's minimum is no breakpoint: panels across its energy
    # fail the nested test and are split or evaluated directly
    "tilted-well": (lambda: lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4 + 0.1 * q,
                                          lambda q: -q + q ** 3 + 0.1, (-2.0, 2.0)),
                    None, (-2.0, 2.0, -1.0, 1.0, 33, 17)),
}


@pytest.mark.parametrize("case", list(CONTRACT_CASES))
def test_ell_map_per_node_contract(case):
    make, cut, bounds = CONTRACT_CASES[case]
    model, trunc, spec = make(), cut and lk.Truncation(cut), lk.GridSpec(*bounds)
    g = lk.ell_map(model, spec, trunc)
    E = lk.energy_map(model, spec).values
    energies, inverse = np.unique(E.ravel(), return_inverse=True)
    ref = lk.ell_batch(model, energies, trunc)
    want = ref.values[inverse].reshape(E.shape)
    valid = ref.converged[inverse].reshape(E.shape)
    assert not (~g.mask & valid).any()  # masked only where direct fails
    both = g.mask & valid
    assert both.sum() > E.size // 2
    assert _within_tolerance(g.values[both], want[both]).all()
    # nodes at a breakpoint sit on a panel end and equal ell there bit for bit
    at = np.isin(E, model.breakpoints(trunc))
    assert at.any()
    for b in np.unique(E[at]):
        one = lk.ell_batch(model, [b], trunc)
        sel = E == b
        assert np.array_equal(g.mask[sel], np.broadcast_to(one.converged[0], sel.sum()))
        if one.converged[0]:
            assert np.all(g.values[sel] == one.values[0])


def test_momentum_reflection_symmetry(pend):
    # dyadic spacing makes the p nodes mirror-exact, so E and hence the
    # lengths match bitwise under p -> -p
    spec = lk.GridSpec(-2.0, 2.0, -2.0, 2.0, 7, 9)
    g = lk.ell_map(pend, spec)
    assert np.array_equal(g.values, g.values[::-1, :])


def test_equal_energy_nodes_equal_values(pend):
    spec = lk.GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)
    g = lk.ell_map(pend, spec)
    E = np.asarray(pend.energy(*np.meshgrid(spec.q_nodes(), spec.p_nodes())))
    flat_e = E.ravel()
    flat_v = g.values.ravel()
    for e in np.unique(flat_e):
        sel = flat_v[np.abs(flat_e - e) < 1e-12]
        assert np.all(sel == sel[0])


def test_map_determinism(pend):
    spec = lk.GridSpec(-2.0, 2.0, -2.0, 2.0, 9, 8)
    a = lk.ell_map(pend, spec)
    b = lk.ell_map(pend, spec)
    c = lk.ell_map(pend, spec, threads=3)  # accepted and ignored
    d = lk.ell_map(pend, spec, table=True)  # likewise
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.values, c.values)
    assert a.values.tobytes() == d.values.tobytes() and np.array_equal(a.mask, d.mask)
    # ell and temporal maps run batched: a node must not depend on which
    # other nodes share its batches (q nodes step by 1/2, exact in binary)
    sub = lk.GridSpec(-1.0, 1.0, -2.0, 2.0, 5, 8)
    assert np.array_equal(sub.q_nodes(), spec.q_nodes()[2:7])
    eb = lk.ell_map(pend, sub)
    assert np.array_equal(a.values[:, 2:7], eb.values)
    assert np.array_equal(a.mask[:, 2:7], eb.mask)
    ta = lk.temporal_map(pend, spec, 3.0)
    tb = lk.temporal_map(pend, sub, 3.0)
    assert np.array_equal(ta.values[:, 2:7], tb.values)
    assert np.array_equal(ta.mask[:, 2:7], tb.mask)
    # an ell map's panels do not depend on the grid either; these grids
    # hold breakpoints as nodes and nodes masked by a domain error
    for case in ("fishtail-cut", "double-well"):
        make, cut, bounds = CONTRACT_CASES[case]
        model, trunc, spec = make(), cut and lk.Truncation(cut), lk.GridSpec(*bounds)
        sub = lk.GridSpec(*spec.q_nodes()[[0, 20]], *spec.p_nodes()[[6, 16]], 21, 11)
        assert np.array_equal(sub.q_nodes(), spec.q_nodes()[:21])
        assert np.array_equal(sub.p_nodes(), spec.p_nodes()[6:17])
        ea, eb = lk.ell_map(model, spec, trunc), lk.ell_map(model, sub, trunc)
        assert np.array_equal(ea.values[6:17, :21], eb.values, equal_nan=True)
        assert np.array_equal(ea.mask[6:17, :21], eb.mask)


def test_ell_map_evaluates_few_energies(pend, monkeypatch):
    # a 500x500 grid symmetric in q and p, node for node (dyadic steps)
    from ldkit import geometric

    seen = []
    real = geometric.ell_batch

    def spy(model, energies, *args):
        seen.append(np.size(energies))
        return real(model, energies, *args)

    monkeypatch.setattr(geometric, "ell_batch", spy)
    h = 249.5 / 64.0
    spec = lk.GridSpec(-h, h, -h, h, 500, 500)
    g = lk.ell_map(pend, spec)
    assert g.mask.all()
    assert np.unique(lk.energy_map(pend, spec).values).size == 250 * 250
    assert sum(seen) < 1000


def test_table_mode_close_to_exact(pend):
    spec = lk.GridSpec(-3.0, 3.0, -2.2, 2.2, 24, 20)
    exact = lk.ell_map(pend, spec)
    table = lk.ell_map(pend, spec, table=True)
    assert table.mask.all()
    rel = np.abs(table.values - exact.values) / np.abs(exact.values)
    assert float(np.max(rel)) < 1e-2


def test_table_mode_per_node_error_against_direct(pend):
    # the grid holds the elliptic minimum (q = p = 0) and crosses the
    # separatrix E = 0; the graded knots follow the square-root onset of
    # ell at both, where uniform knots were off by 25% beside the minimum
    spec = lk.GridSpec(-math.pi, math.pi, -3.0, 3.0, 201, 201)
    exact = lk.ell_map(pend, spec)
    table = lk.ell_map(pend, spec, table=True)
    assert table.mask.all()
    assert exact.values[100, 100] == table.values[100, 100] == 0.0  # E = -2
    pos = exact.values > 0.0
    rel = np.abs(table.values[pos] - exact.values[pos]) / exact.values[pos]
    assert float(np.max(rel)) <= 1e-4


def test_unconverged_nodes_masked(pend):
    spec = lk.GridSpec(-3.0, 3.0, -2.2, 2.2, 12, 10)
    tight = lk.QuadratureConfig(rel_tol=1e-15, abs_tol=1e-15, max_levels=4)
    assert not lk.ell_map(pend, spec, cfg=tight).mask.any()
    assert not lk.ell_map(pend, spec, cfg=tight, table=True).mask.any()
    loose = lk.QuadratureConfig(rel_tol=1e-6)
    assert lk.ell_map(pend, spec, cfg=loose).mask.all()
    assert lk.ell_map(pend, spec, cfg=loose, table=True).mask.all()


def test_energy_map(pend):
    spec = lk.GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)
    g = lk.energy_map(pend, spec)
    assert g.values[1, 1] == pend.energy(0.0, 0.0)
    assert g.quantity == "energy"


@pytest.mark.parametrize("window", ["contract", "linspace"])
@pytest.mark.parametrize("case", list(CONTRACT_CASES))
def test_node_energies_are_the_meshgrid_energies(monkeypatch, case, window):
    # the maps broadcast a row of q nodes against a column of p nodes, so V
    # runs once per q node; every node energy must be H on the meshgrid,
    # bit for bit, in an energy map and in what an ell map evaluates, on
    # the case's exact-node window and on a linspace one
    make, cut, bounds = CONTRACT_CASES[case]
    if window == "linspace":
        bounds = (-math.pi, math.pi, -2.5, 2.5, 37, 41)
    model, spec = make(), lk.GridSpec(*bounds)
    Q, P = np.meshgrid(spec.q_nodes(), spec.p_nodes())
    want = np.asarray(model.energy(Q, P), dtype=np.float64)
    got = lk.energy_map(model, spec).values
    assert got.shape == want.shape == (spec.np, spec.nq)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    seen = []
    real = lk.maps._ell_function

    def spy(model, energies, *args):
        seen.append(np.array(energies, dtype=np.float64))
        return real(model, energies, *args)

    monkeypatch.setattr(lk.maps, "_ell_function", spy)
    lk.ell_map(model, spec, cut and lk.Truncation(cut))
    assert len(seen) == 1 and seen[0].shape == want.shape
    assert np.array_equal(seen[0].view(np.int64), want.view(np.int64))


# -- B map -----------------------------------------------------------------

def _flat_grid(values, q=(0.0, 1.0), p=(0.0, 1.0)):
    npts, nq = values.shape
    spec = lk.GridSpec(q[0], q[1], p[0], p[1], nq, npts)
    return lk.GridMap(spec, np.asarray(values, dtype=float), "ell")


def test_b_map_constant_is_zero():
    g = _flat_grid(np.full((5, 4), 3.7))
    b = lk.b_map(g)
    assert np.allclose(b.values, 0.0)
    assert b.quantity == "bnorm"


def test_b_map_unit_slope():
    qs = np.linspace(0.0, 1.0, 6)
    vals = np.tile(qs, (5, 1))
    b = lk.b_map(_flat_grid(vals))
    assert np.allclose(b.values[:, 1:-1], 1.0, atol=1e-12)


def test_b_map_requires_ell_quantity(pend):
    spec = lk.GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3)
    g = lk.energy_map(pend, spec)
    with pytest.raises(ValueError):
        lk.b_map(g)


def test_b_map_mask_spreads():
    vals = np.ones((5, 5))
    g = _flat_grid(vals)
    g.mask[2, 2] = False
    b = lk.b_map(g)
    for jp, iq in ((2, 2), (1, 2), (3, 2), (2, 1), (2, 3)):
        assert not b.mask[jp, iq]
    assert b.mask[0, 0]


def test_b_map_refinement_converges(pend):
    # away from the separatrix ridge the finite differences are second order
    coarse_spec = lk.GridSpec(-1.2, 1.2, 0.2, 1.1, 31, 31)
    fine_spec = lk.GridSpec(-1.2, 1.2, 0.2, 1.1, 61, 61)
    bc = lk.b_map(lk.ell_map(pend, coarse_spec, table=True))
    bf = lk.b_map(lk.ell_map(pend, fine_spec, table=True))
    # fine grid contains the coarse nodes at even indices
    sub = bf.values[::2, ::2]
    interior = (slice(2, -2), slice(2, -2))
    rel = np.abs(sub[interior] - bc.values[interior]) / np.abs(bc.values[interior])
    assert float(np.median(rel)) < 0.01


def test_b_map_pendulum_ridge(pend):
    spec = lk.GridSpec(-math.pi, math.pi, -2.5, 2.5, 80, 80)
    b = lk.b_map(lk.ell_map(pend, spec))
    qs, ps = spec.q_nodes(), spec.p_nodes()
    dp = ps[1] - ps[0]
    hits = 0
    for iq in range(spec.nq):
        r_sx = math.sqrt(2.0 * (1.0 + math.cos(qs[iq])))
        jb = int(np.nanargmax(b.values[:, iq]))
        if min(abs(ps[jb] - r_sx), abs(ps[jb] + r_sx)) <= 2 * dp:
            hits += 1
    assert hits >= 0.9 * spec.nq


# -- temporal map ------------------------------------------------------------

def test_temporal_map_equilibria_zero(pend):
    spec = lk.GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)
    g = lk.temporal_map(pend, spec, 5.0)
    assert g.values[1, 1] == pytest.approx(0.0, abs=1e-8)  # node at (0, 0)
    assert g.mask.all()


def test_temporal_map_oscillator_closed_form(ho):
    spec = lk.GridSpec(0.5, 1.5, 0.5, 1.5, 4, 4)
    t = 7.0
    g = lk.temporal_map(ho, spec, t)
    Q, P = np.meshgrid(spec.q_nodes(), spec.p_nodes())
    expected = 2.0 * t * np.hypot(Q, P)  # = 2 t sqrt(2 E)
    assert g.values == pytest.approx(expected, rel=1e-6)


def test_temporal_map_flags_blowup(fish):
    spec = lk.GridSpec(-6.0, -4.5, 0.5, 1.5, 2, 2)
    g = lk.temporal_map(fish, spec, 20.0)
    assert not g.mask.all()


@pytest.mark.parametrize("p_lo, n_p, lanes", [
    (-1.5, 4, 20),  # p = +-0.5, +-1.5: one lane per node
    (-1.5, 7, 35),  # a p = 0 row: (q, 0.0) and its mirror (q, -0.0) share a lane
    (0.25, 6, 60),  # p in [0.25, 1.5], no mirror inside: two lanes per node
])
def test_temporal_map_runs_each_distinct_start_once(double_well, lane_counts,
                                                    p_lo, n_p, lanes):
    # a backward piece is the forward piece from (q, -p), so the stepper
    # runs once per distinct start among the nodes and their mirrors; a
    # custom model is not point symmetric, so (-q, -p) is a lane of its own
    spec = lk.GridSpec(-2.0, 2.0, p_lo, 1.5, 5, n_p)
    g = lk.temporal_map(double_well, spec, 2.0)
    assert lane_counts == [lanes]
    if p_lo < 0.0:
        # (q, p) and (q, -p) add the same two pieces
        assert np.array_equal(g.values, g.values[::-1])


@pytest.mark.parametrize("p_lo, n_p, lanes", [
    (-1.5, 4, 10),  # every start and its reflection (-q, -p) share a lane
    (-1.5, 7, 18),  # the origin is its own reflection
    (0.25, 6, 30),  # the mirrors (q, -p) reflect onto (-q, p), a node
])
def test_temporal_map_folds_point_reflected_starts(pend, lane_counts, p_lo, n_p,
                                                   lanes):
    # the pendulum's V is even: the lane from (-q, -p) is the lane from
    # (q, p) reflected through the origin, with the same pieces
    spec = lk.GridSpec(-2.0, 2.0, p_lo, 1.5, 5, n_p)
    g = lk.temporal_map(pend, spec, 2.0)
    assert lane_counts == [lanes]
    assert np.array_equal(g.values, g.values[:, ::-1])  # (q, p) ~ (-q, -p) ~ (-q, p)


# -- serialization -----------------------------------------------------------

def test_grid_csv_roundtrip(tmp_path, pend):
    spec = lk.GridSpec(-2.0, 2.0, -1.0, 1.0, 6, 4)
    g = lk.ell_map(pend, spec)
    path = tmp_path / "g.csv"
    lk.write_grid_csv(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "q,p,value,mask"
    assert len(lines) == 1 + 24
    back = lk.read_grid_csv(path)
    assert np.array_equal(back.values, g.values)
    assert back.spec == g.spec
    assert back.mask.all()
    _assert_reads_like_oracle(path)


def test_grid_csv_masked_nodes(tmp_path):
    g = _flat_grid(np.arange(6.0).reshape(2, 3))
    g.mask[0, 1] = False
    path = tmp_path / "m.csv"
    lk.write_grid_csv(g, path)
    row = path.read_text().splitlines()[2]
    assert row.endswith(",,0")
    back = lk.read_grid_csv(path)
    assert not back.mask[0, 1]
    assert math.isnan(back.values[0, 1])
    assert np.array_equal(back.values[back.mask], g.values[g.mask])
    _assert_reads_like_oracle(path)


def _oracle_grid_csv(grid):
    """The grid CSV written node by node with ``{:.17g}``."""
    out = ["q,p,value,mask\n"]
    for jp, p in enumerate(grid.spec.p_nodes().tolist()):
        for iq, q in enumerate(grid.spec.q_nodes().tolist()):
            if grid.mask[jp, iq]:
                out.append(f"{q:.17g},{p:.17g},{grid.values[jp, iq]:.17g},1\n")
            else:
                out.append(f"{q:.17g},{p:.17g},,0\n")
    return "".join(out)


def _oracle_read_grid_csv(path, quantity="ell"):
    """The grid CSV read token by token: the body split into lines, the
    lines into fields, and every field compared or parsed in Python lists;
    nodes that are not the spec's are rejected."""
    with open(path, "r") as fh:
        header = fh.readline()
        if header.strip() != "q,p,value,mask":
            raise ValueError("header")
        lines = list(filter(str.strip, fh.read().split("\n")))
    if not lines:
        raise ValueError("no rows")
    if set(map(str.count, lines, repeat(","))) != {3}:
        raise ValueError("fields")
    tokens = ",".join(lines).split(",")
    qt, pt, vt, mt = (tokens[k::4] for k in range(4))
    try:
        nq = qt.index(qt[0], 1)
    except ValueError:
        nq = len(qt)
    if len(qt) % nq:
        raise ValueError("ragged")
    npts = len(qt) // nq
    if qt != qt[:nq] * npts:
        raise ValueError("q")
    p_row = pt[::nq]
    if any(pt[j * nq:(j + 1) * nq] != [p] * nq for j, p in enumerate(p_row)):
        raise ValueError("p")
    qs = [float(q) for q in qt[:nq]]
    ps = [float(p) for p in p_row]
    spec = lk.GridSpec(qs[0], qs[-1], ps[0], ps[-1], nq, npts)
    if qs != spec.q_nodes().tolist() or ps != spec.p_nodes().tolist():
        raise ValueError("nodes")
    valid = list(map("1".__eq__, mt))
    if list(map(bool, vt)) != valid or valid.count(False) != mt.count("0"):
        raise ValueError("mask")
    values = np.array([float(v) if v else math.nan for v in vt]).reshape(npts, nq)
    mask = np.array(valid).reshape(npts, nq)
    return lk.GridMap(spec, values, quantity, mask)


def _assert_reads_like_oracle(path):
    """``read_grid_csv`` and the token oracle both raise ``ValueError``, or
    agree on the spec, the mask and the bits of every valid non-NaN node."""
    try:
        want = _oracle_read_grid_csv(path)
    except ValueError:
        with pytest.raises(ValueError):
            lk.read_grid_csv(path)
        return
    got = lk.read_grid_csv(path)
    assert got.spec == want.spec
    assert np.array_equal(got.mask, want.mask)
    m = want.mask & ~np.isnan(want.values)
    assert np.array_equal(got.values[m].view(np.int64), want.values[m].view(np.int64))
    assert np.isnan(got.values[~want.mask]).all()


def _special_grid():
    # random magnitudes over the whole double range, the values whose
    # formatting is special, masked nodes and two whole masked rows
    rng = np.random.default_rng(5)
    spec = lk.GridSpec(-1.0, 2.0, -0.5, 3.0, 9, 6)
    values = rng.standard_normal((6, 9)) * 10.0 ** rng.integers(-300, 300, (6, 9))
    values[1, :7] = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1]
    mask = rng.random((6, 9)) > 0.3
    mask[1, :7] = True
    mask[2, :] = False
    mask[5, :] = False
    return lk.GridMap(spec, values, "ell", mask)


@pytest.mark.parametrize("grid", [
    _special_grid(),
    lk.GridMap(lk.GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2),
               np.array([[1.0, -2.5], [1e-310, 3.0]]), "ell",
               np.array([[True, False], [True, True]])),
], ids=["special", "2x2"])
def test_grid_csv_bytes_and_roundtrip(tmp_path, grid):
    path = tmp_path / "g.csv"
    lk.write_grid_csv(grid, path)
    assert path.read_text() == _oracle_grid_csv(grid)
    back = lk.read_grid_csv(path)
    assert back.spec == grid.spec
    assert np.array_equal(back.mask, grid.mask)
    # bit for bit on valid nodes (-0.0 included), NaN on masked ones
    m = grid.mask
    assert np.array_equal(back.values[m].view(np.int64), grid.values[m].view(np.int64))
    assert np.isnan(back.values[~m]).all()
    _assert_reads_like_oracle(path)


def test_grid_csv_bytes_on_p_symmetric_grids(tmp_path, pend):
    # steps of 1/4: the q and p nodes are exact negatives, so row j of E,
    # ell and B repeats row np-1-j bit for bit and its text is reused, and
    # the pendulum's V is even, so every row is its own mirror (odd and
    # even nq)
    grids = []
    for spec in (lk.GridSpec(-3.0, 3.0, -2.5, 2.5, 25, 21),
                 lk.GridSpec(-2.875, 2.875, -2.5, 2.5, 24, 21)):
        assert spec.p_nodes().tolist() == (-spec.p_nodes()[::-1]).tolist()
        assert spec.q_nodes().tolist() == (-spec.q_nodes()[::-1]).tolist()
        g = lk.ell_map(pend, spec)
        grids += [g, lk.b_map(g)]
    for grid in grids:
        assert np.array_equal(grid.values[::-1].view(np.int64), grid.values.view(np.int64))
        assert np.array_equal(grid.values[:, ::-1].view(np.int64), grid.values.view(np.int64))
        path = tmp_path / "s.csv"
        lk.write_grid_csv(grid, path)
        assert path.read_text() == _oracle_grid_csv(grid)
        _assert_reads_like_oracle(path)


def _repeating_grid():
    # rows that a bytes key must keep apart although some print alike
    spec = lk.GridSpec(0.0, 1.0, 0.0, 1.0, 3, 10)
    values = np.tile([1.5, -2.0, 3.25], (10, 1))
    mask = np.ones((10, 3), dtype=bool)
    mask[1, 0] = False  # row 1: row 0's values, another mask
    values[2, 1], values[3, 1] = 0.0, -0.0  # rows 2 and 3: a zero's sign
    mask[[4, 6, 8], :] = False  # whole masked rows, repeated
    nan2 = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    values[5, :] = math.nan
    values[7, :] = nan2  # NaN rows that differ in their payload
    values[9, :] = math.nan
    return lk.GridMap(spec, values, "ell", mask)


def _mirror_grid(nq):
    # rows equal to their own reverse, bit for bit, and rows that nearly
    # are: the writer formats a mirror row's first half only, and the
    # reader parses a row whose text reads the same reversed up to its middle
    rng = np.random.default_rng(nq)
    half = rng.standard_normal((8, nq - nq // 2)) * 10.0 ** rng.integers(-300, 300, (8, nq - nq // 2))
    values = np.hstack([half, half[:, :nq // 2][:, ::-1]])
    mask = np.ones((8, nq), dtype=bool)
    values[0, [0, -1]], values[0, [1, -2]], values[0, [2, -3]] = math.inf, 5e-324, -0.0
    mask[1, [1, -2]] = False  # masked pairs
    mask[2, (nq - 1) // 2:nq // 2 + 1] = False  # the middle node (or pair) masked
    mask[3, 0] = False  # values that mirror under a mask that does not
    values[4, 1], values[4, -2] = 0.0, -0.0  # bits and text differ: no mirror
    nan2 = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    values[5, 2], values[5, -3] = math.nan, nan2  # bits differ, the text reads alike
    values[6], mask[6] = values[1], mask[1]  # a mirror row repeating an earlier row
    mask[7, [0, -1]] = False  # masked pair whose values differ: the text mirrors
    values[7, 0], values[7, -1] = 1.0, 2.0
    return lk.GridMap(lk.GridSpec(-1.0, 1.0, 0.0, 1.0, nq, 8), values, "ell", mask)


def test_grid_csv_bytes_on_repeated_rows(tmp_path, monkeypatch):
    # repeated rows, and rows that are their own mirror or nearly are; the
    # reader runs once more with a constant digest, so that every row's key
    # collides and the rows must be told apart by their bytes
    for grid in (_repeating_grid(), _mirror_grid(7), _mirror_grid(8)):
        path = tmp_path / "r.csv"
        lk.write_grid_csv(grid, path)
        assert path.read_text() == _oracle_grid_csv(grid)
        for digest in (None, lambda w: 0):
            with monkeypatch.context() as mp:
                if digest:
                    mp.setattr(lk.maps, "zlib", SimpleNamespace(crc32=digest))
                back = lk.read_grid_csv(path)
                _assert_reads_like_oracle(path)
            assert np.array_equal(back.mask, grid.mask)
            m = grid.mask & ~np.isnan(grid.values)
            assert np.array_equal(back.values[m].view(np.int64), grid.values[m].view(np.int64))


def test_grid_csv_writer_keeps_one_row_without_repeats(tmp_path):
    # no two rows alike: a writer that keeps every row's text would peak
    # near the file's size
    spec = lk.GridSpec(-2.0, 2.0, -1.5, 1.5, 400, 400)
    grid = lk.GridMap(spec, np.random.default_rng(3).standard_normal((400, 400)), "ell")
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        lk.write_grid_csv(grid, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def test_grid_csv_reader_memory_is_a_few_file_sizes(tmp_path):
    # the whole body is held once as bytes; the offsets and byte windows of
    # its fields take about as much again (3.7x the file size measured,
    # where splitting the body into tokens took 7.0x)
    spec = lk.GridSpec(-2.0, 2.0, -1.5, 1.5, 400, 400)
    grid = lk.GridMap(spec, np.random.default_rng(3).standard_normal((400, 400)), "ell")
    path = tmp_path / "big.csv"
    lk.write_grid_csv(grid, path)
    tracemalloc.start()
    try:
        back = lk.read_grid_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, grid.values)
    assert peak < 5 * path.stat().st_size


def _edited_grid_csv(tmp_path, edit, newline="\n"):
    """A valid 3x3 grid CSV with its body lines passed through ``edit``."""
    path = tmp_path / "e.csv"
    lk.write_grid_csv(_flat_grid(np.arange(9.0).reshape(3, 3)), path)
    header, *body = path.read_text().splitlines()
    path.write_text("\n".join([header] + edit(body)) + "\n", newline=newline)
    return path


def _swap_nodes(body):
    body[4], body[5] = body[5], body[4]
    return body


def _change_p(body):
    q, _, v, m = body[4].split(",")
    body[4] = ",".join([q, "0.25", v, m])
    return body


def _edit_field(line, k, text):
    return lambda body: body[:line] + [
        ",".join(text if j == k else f for j, f in enumerate(body[line].split(",")))
    ] + body[line + 1:]


def _move_middle_q(body):
    # every row's middle q at 0.9, where the spec's linspace has 0.5
    return [line.replace("0.5,", "0.9,", 1) if line.startswith("0.5,") else line
            for line in body]


@pytest.mark.parametrize("edit", [
    _swap_nodes,
    _change_p,
    lambda body: body[:2] + [body[2].rsplit(",", 1)[0]] + body[3:],
    lambda body: body[:2] + [body[2] + ",1"] + body[3:],
    lambda body: body[:3] + ["1"] + body[3:],
    lambda body: [],
    lambda body: ["", "  "],
    lambda body: body[:2] + [body[2] + " "] + body[3:],
    lambda body: body[:2] + [body[2][:-1] + "2"] + body[3:],
    lambda body: body[:2] + [body[2][:-1] + "0"] + body[3:],
    lambda body: body[:2] + [",".join(body[2].split(",")[:2] + ["", "1"])] + body[3:],
    lambda body: body[:2] + [",".join(body[2].split(",")[:2] + ["", "2"])] + body[3:],
    _move_middle_q,
    _edit_field(4, 0, "0.50"),
    _edit_field(4, 0, "0.7"),
    _edit_field(4, 1, "0.7"),
    _edit_field(2, 2, "2\0"),
    lambda body: body[:2] + [body[2] + "\0"] + body[3:],
    _edit_field(2, 2, "two"),
], ids=["swapped", "p-in-row", "3-fields", "5-fields", "1-field", "empty", "blank",
        "mask-space", "mask-2", "value-mask-0", "no-value-mask-1", "no-value-mask-2", "non-uniform-q",
        "q-0.50", "q-same-width", "p-same-width", "nul-in-value", "nul-after-mask", "value-not-a-number"])
def test_grid_csv_reader_rejects_non_grids(tmp_path, edit):
    path = _edited_grid_csv(tmp_path, edit)
    with pytest.raises(ValueError):
        lk.read_grid_csv(path)
    _assert_reads_like_oracle(path)


@pytest.mark.parametrize("line, k, old, new", [
    (21, 0, "-0.5", "-0.6"),
    (13, 0, "0.5", "0.50"),
    (17, 1, "0.22499999999999998", "0.22499999999999997"),
    (17, 1, "0.22499999999999998", "0.2249999999999999"),
], ids=["widest-q-last-byte", "q-one-byte-longer", "p-last-byte", "p-one-byte-shorter"])
def test_grid_csv_reader_checks_q_and_p_to_their_last_byte(tmp_path, line, k, old, new):
    # q strings of widths 2, 4, 1, 3, 1 and p strings of widths 1, 20, 19,
    # 19, 19: the reader compares q and p by length first, then their bytes
    # under one mask per q column and per p row, each as wide as its own
    # strings; a file edited in one field's last byte or length is no grid
    spec = lk.GridSpec(-1.0, 1.0, 0.0, 0.3, 5, 5)
    path = tmp_path / "w.csv"
    lk.write_grid_csv(lk.GridMap(spec, np.arange(25.0).reshape(5, 5), "ell"), path)
    header, *body = path.read_text().splitlines()
    assert [line.split(",")[0] for line in body[:5]] == ["-1", "-0.5", "0", "0.5", "1"]
    assert [line.split(",")[1] for line in body[::5]] == [
        "0", "0.074999999999999997", "0.14999999999999999", "0.22499999999999998",
        "0.29999999999999999"]
    fields = body[line].split(",")
    assert fields[k] == old
    fields[k] = new
    body[line] = ",".join(fields)
    path.write_text("\n".join([header] + body) + "\n")
    with pytest.raises(ValueError):
        lk.read_grid_csv(path)
    _assert_reads_like_oracle(path)


def test_grid_csv_reader_skips_blank_lines(tmp_path):
    path = _edited_grid_csv(tmp_path, lambda body: body[:3] + ["", " "] + body[3:])
    back = lk.read_grid_csv(path)
    assert np.array_equal(back.values, np.arange(9.0).reshape(3, 3))
    _assert_reads_like_oracle(path)


@pytest.mark.parametrize("edit, newline", [
    (lambda body: body, "\r\n"),
    (lambda body: body, "\r"),
    (lambda body: body[:3] + ["\t\x0b\x0c\x1c"] + body[3:] + [" "], "\n"),
    (_edit_field(2, 2, "2.0000000000000000000000000000001"), "\n"),
    (_edit_field(2, 2, " 2_0.0e-1 "), "\n"),
], ids=["crlf", "cr", "ascii-blank", "wide-value", "float-syntax"])
def test_grid_csv_reader_reads_like_the_tokens(tmp_path, edit, newline):
    path = _edited_grid_csv(tmp_path, edit, newline)
    back = lk.read_grid_csv(path)
    assert np.array_equal(back.values, np.arange(9.0).reshape(3, 3))
    _assert_reads_like_oracle(path)


@pytest.mark.parametrize("edit", [
    _edit_field(2, 2, "\u0662"),  # ARABIC-INDIC DIGIT TWO
    lambda body: body[:3] + ["\xa0"] + body[3:],  # a blank line of NO-BREAK SPACE
    _edit_field(2, 2, "2." + "0" * 63),
], ids=["non-ascii-digit", "non-ascii-blank", "65-byte-value"])
def test_grid_csv_reader_is_stricter_than_the_tokens(tmp_path, edit):
    # the body must be ASCII and a field at most GRID_CSV_FIELD_MAX bytes;
    # reading the body token by token accepted these files
    path = _edited_grid_csv(tmp_path, edit)
    assert np.array_equal(_oracle_read_grid_csv(path).values, np.arange(9.0).reshape(3, 3))
    with pytest.raises(ValueError):
        lk.read_grid_csv(path)


@pytest.mark.parametrize("text", [b"", b"q,p,value,mask", b"q,p,value,mask\r", b"\xff\n"],
                         ids=["empty", "header-no-newline", "header-cr", "not-utf8"])
def test_grid_csv_reader_rejects_a_header_alone(tmp_path, text):
    # the body is read as bytes: a header without a body, or a header that
    # does not decode, is still a ValueError
    path = tmp_path / "h.csv"
    path.write_bytes(text)
    with pytest.raises(ValueError):
        lk.read_grid_csv(path)
    _assert_reads_like_oracle(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_grid_csv_reader_reads_a_pipe(tmp_path):
    # a pipe has no size to size the read buffer by: the rest must be read
    src, fifo = tmp_path / "g.csv", tmp_path / "fifo"
    lk.write_grid_csv(_special_grid(), src)
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(src.read_bytes()), daemon=True)
    writer.start()
    back = lk.read_grid_csv(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    want = lk.read_grid_csv(src)
    assert back.spec == want.spec and np.array_equal(back.mask, want.mask)
    assert np.array_equal(back.values.view(np.int64), want.values.view(np.int64))


def test_landscape_csv_roundtrip(tmp_path, pend):
    ls = lk.landscape(pend, -2.0, 1.0, 601)
    path = tmp_path / "l.csv"
    lk.write_landscape_csv(ls, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 602
    assert lines[0] == "E,ell"
    back = lk.read_landscape_csv(path)
    assert np.array_equal(back.energies, ls.energies)
    assert np.array_equal(back.lengths, ls.lengths)


def test_landscape_csv_with_derivs(tmp_path, pend):
    ls = lk.landscape(pend, -2.0, 1.0, 13, with_derivs=True)
    path = tmp_path / "ld.csv"
    lk.write_landscape_csv(ls, path)
    assert path.read_text().splitlines()[0] == "E,ell,dell_dE"
    back = lk.read_landscape_csv(path)
    same = np.isfinite(ls.derivs)
    assert np.array_equal(back.derivs[same], ls.derivs[same])
    assert np.isnan(back.derivs[~same]).all()


@pytest.mark.parametrize("text", [
    "E,ell\n1.0,2.0\n3.0\n",  # a short line
    "E,ell,dell_dE\n1.0,2.0,0.5\n3.0,4.0\n",
    "E,ell\n1.0,2.0,0.5\n",  # a long line
    "E,ell,dell_dE,extra\n1.0,2.0,0.5,7.0\n",  # an extra header column
    "q,p,value,mask\n0,0,1.0,1\n",
    "E,ell\n",  # an empty body
    "E,ell\n\n  \n",
    "",
], ids=["short", "short-derivs", "long", "extra-column", "grid", "empty", "blank",
         "no-header"])
def test_landscape_csv_reader_rejects_non_landscapes(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        lk.read_landscape_csv(path)


def test_landscape_csv_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("E,ell,dell_dE\n1.5,2.25,nan\n\n \n-3,4e-300,-0.5\n")
    back = lk.read_landscape_csv(path)
    assert back.energies.tolist() == [1.5, -3.0]
    assert back.lengths.tolist() == [2.25, 4e-300]
    assert math.isnan(back.derivs[0]) and back.derivs[1] == -0.5


def test_landscape_csv_bytes(tmp_path, pend):
    for derivs in (False, True):
        ls = lk.landscape(pend, -2.0, 1.0, 13, with_derivs=derivs)
        path = tmp_path / "l.csv"
        lk.write_landscape_csv(ls, path)
        cols = [ls.energies, ls.lengths] + ([ls.derivs] if derivs else [])
        rows = ["E,ell,dell_dE" if derivs else "E,ell"]
        rows += [",".join(f"{x:.17g}" for x in r) for r in zip(*cols)]
        assert path.read_text() == "\n".join(rows) + "\n"


def test_pgm_output(tmp_path):
    vals = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    g = _flat_grid(vals)
    g.mask[0, 0] = False
    path = tmp_path / "x.pgm"
    lk.write_pgm(g, path)
    data = path.read_bytes()
    header = b"P5\n3 2\n65535\n"
    assert data.startswith(header)
    pix = np.frombuffer(data[len(header):], dtype=">u2").reshape(2, 3)
    assert pix[0, 0] == 0  # masked
    assert pix[1, 2] == 65535  # max value
    assert pix.shape == (2, 3)


def _former_pgm(grid, scale=None):
    """The PGM as the writer once built it: min and max of a gathered copy
    of the valid values, and one expression for the pixels."""
    valid = grid.mask & np.isfinite(grid.values)
    if scale is not None:
        vmin, vmax = map(float, scale)
    elif valid.any():
        vmin, vmax = float(grid.values[valid].min()), float(grid.values[valid].max())
    else:
        vmin, vmax = 0.0, 1.0
    span = vmax - vmin if vmax > vmin else 1.0
    norm = np.clip((grid.values - vmin) / span, 0.0, 1.0)
    pix = np.where(valid, np.round(norm * 65535.0), 0.0).astype(">u2")
    return f"P5\n{grid.spec.nq} {grid.spec.np}\n65535\n".encode("ascii") + pix.tobytes()


@pytest.mark.parametrize("case", ["masked", "non-finite", "all-masked", "constant", "scale"])
def test_pgm_bytes(tmp_path, case):
    g = _flat_grid(np.random.default_rng(7).standard_normal((6, 5)) * 3.0)
    scale = None
    if case == "masked":  # the extremes sit at masked nodes
        g.values[0, 1], g.values[5, 4] = 1e3, -1e3
        g.mask[[0, 2, 5], [1, 3, 4]] = False
    elif case == "non-finite":  # valid nodes that hold no number
        g.values[[1, 2, 4], [1, 3, 0]] = math.nan, math.inf, -math.inf
        g.mask[3, 3] = False
    elif case == "all-masked":
        g.mask[:] = False
    elif case == "constant":
        g.values[:] = 2.5
    else:  # values on both sides of the pinned scale are clipped
        scale = (-1.0, 2.0)
    path = tmp_path / "x.pgm"
    lk.write_pgm(g, path, scale=scale)
    assert path.read_bytes() == _former_pgm(g, scale)


@pytest.mark.parametrize("scale", [(math.nan, 1.0), (0.0, math.nan), (2.0, 1.0),
                                   (1.0, 1.0), (0.0, math.inf)])
def test_pgm_rejects_unusable_scale(tmp_path, scale):
    # (nan, 1) once wrote undefined pixels after a cast warning, and (2, 1)
    # an all-zero image
    path = tmp_path / "x.pgm"
    with pytest.raises(ValueError):
        lk.write_pgm(_flat_grid(np.array([[0.0, 1.0], [2.0, 3.0]])), path, scale=scale)
    assert not path.exists()
