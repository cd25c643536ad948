"""ell(E) against 40-digit mpmath references.

* ``ldbench/refs/ell_mpmath.json`` (read here, never written): 112 energies
  on every model, eps = |E - E_c| from 1e-2 to 1e-8 on both sides of each
  separatrix, near each elliptic minimum and at regular energies.
* ``tests/data/ell_deep_separatrix.json`` (``tests/data/make_deep_refs.py``):
  eps = 1e-10 ... 1e-16 on both sides of the pendulum, Duffing and fish-tail
  separatrices, where a level curve's neck at the saddle is ~1e-8 wide.
* ``tests/data/ell_deep_minimum.json`` (the same generator): eps = 1e-8
  ... 1e-14 above the pendulum and fish-tail minima, where the oval is
  ~sqrt(eps) wide and its ends sit beside the minimum.
* ``tests/data/dell_mpmath.json`` (``tests/data/make_dell_refs.py``):
  d ell/dE at 50 digits of working precision, eps = 1e-2 ... 1e-8 below
  and above the pendulum, Duffing and fish-tail separatrices and above
  their elliptic minima.
"""

import json
import pathlib

import pytest

import ldkit as lk

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _models():
    well = lk.mechanical(lambda q: -0.5 * q * q + 0.25 * q ** 4,
                         lambda q: -q + q ** 3, (-2.0, 2.0),
                         name="double-well", e_sx=0.0)
    return {"pendulum": lk.pendulum(), "duffing": lk.duffing(),
            "fishtail": lk.fishtail(), "harmonic-oscillator": lk.harmonic_oscillator(),
            "harmonic-repulsor": lk.harmonic_repulsor(), "double-well": well}


def _check(path, rel_bound=None, models=None):
    entries = json.loads(path.read_text())["entries"]
    models = models or _models()
    cfg = lk.QuadratureConfig()
    for e in entries:
        model = models[e["model"]]
        trunc = None if e["trunc"] is None else lk.Truncation(e["trunc"])
        value, info = lk.ell(model, e["E"], trunc, full_output=True)
        ref = float(e["ell"])
        where = f"{e['model']} E={e['E']!r}"
        assert info.converged, where
        if rel_bound is None:
            bound = cfg.rel_tol * abs(value) + cfg.abs_tol * model.multiplier
        else:
            bound = rel_bound * abs(ref)
        assert abs(value - ref) <= bound, (where, abs(value - ref) / ref)
    return len(entries)


def test_benchmark_references_converge_and_agree():
    assert _check(ROOT / "ldbench" / "refs" / "ell_mpmath.json") == 112


def test_deep_separatrix_accuracy():
    # a row started as one panel passes its tolerance test here with the
    # neck missed (pendulum, E = +1e-14: 105 evaluations, error 2.2e-8)
    assert _check(ROOT / "tests" / "data" / "ell_deep_separatrix.json",
                  rel_bound=1e-12) == 24


@pytest.mark.parametrize("bounded", [False, True])
def test_deep_minimum_accuracy(bounded):
    # the fish-tail's oval ends once came from a general cubic's acos form
    # with Newton steps: at E = -32 + 1e-14 ell was off by 8.6e-6, reported
    # converged. Its branch ends left of the cut there, so the bounded model
    # has the same length.
    models = {**_models(), "fishtail": lk.fishtail(bounded_librations=bounded)}
    assert _check(ROOT / "tests" / "data" / "ell_deep_minimum.json",
                  rel_bound=1e-11, models=models) == 8


def test_dell_against_mpmath():
    entries = json.loads((ROOT / "tests" / "data" / "dell_mpmath.json").read_text())["entries"]
    models = _models()
    for e in entries:
        trunc = None if e["trunc"] is None else lk.Truncation(e["trunc"])
        got = lk.dell_dE(models[e["model"]], e["E"], trunc)
        ref = float(e["dell_dE"])
        bound = 1e-9 if e["eps"] >= 1e-6 else 5e-9
        assert abs(got - ref) <= bound * abs(ref), (e["model"], e["E"], abs(got / ref - 1.0))
    assert len(entries) == 36
