import json
import math
import warnings

import numpy as np
import pytest

import ldkit as lk
from ldkit import cli


def run(args):
    return cli.run(args)


def test_models_listing(capsys):
    assert run(["models"]) == 0
    out = capsys.readouterr().out
    for name in lk.MODEL_NAMES:
        assert name in out


def test_landscape_peak_at_separatrix(tmp_path):
    out = tmp_path / "l.csv"
    rc = run(["landscape", "--model", "pendulum", "--emin", "-2", "--emax", "1",
              "--n", "601", "--out", str(out)])
    assert rc == 0
    ls = lk.read_landscape_csv(out)
    assert len(ls.energies) == 601
    assert ls.energies[int(np.argmax(ls.lengths))] == 0.0


def test_map_row_count_and_pgm(tmp_path):
    out = tmp_path / "m.csv"
    pgm = tmp_path / "m.pgm"
    rc = run(["map", "--model", "pendulum",
              "--bounds", "-3.14159265,3.14159265,-2.5,2.5",
              "--grid", "20x10", "--quantity", "ell",
              "--out", str(out), "--pgm", str(pgm)])
    assert rc == 0
    assert sum(1 for _ in open(out)) == 1 + 200
    assert pgm.read_bytes().startswith(b"P5\n20 10\n65535\n")


def test_map_energy_quantity(tmp_path):
    out = tmp_path / "e.csv"
    rc = run(["map", "--model", "harmonic-oscillator", "--bounds", "0,1,0,1",
              "--grid", "3x3", "--quantity", "energy", "--out", str(out)])
    assert rc == 0
    g = lk.read_grid_csv(out, quantity="energy")
    assert g.values[0, 0] == 0.0
    assert g.values[2, 2] == 1.0


def test_bmap_matches_in_process(tmp_path, pend):
    spec = lk.GridSpec(-3.0, 3.0, -2.0, 2.0, 10, 8)
    grid = lk.ell_map(pend, spec)
    src = tmp_path / "ell.csv"
    lk.write_grid_csv(grid, src)

    mine = tmp_path / "b_mine.csv"
    lk.write_grid_csv(lk.b_map(grid), mine)
    theirs = tmp_path / "b_cli.csv"
    assert run(["bmap", "--in", str(src), "--out", str(theirs)]) == 0
    assert mine.read_bytes() == theirs.read_bytes()


def test_bmap_exit_codes(tmp_path):
    # a file that is not a grid CSV is a usage error
    bad = tmp_path / "bad.csv"
    bad.write_text("E,ell\n0,1\n")
    assert run(["bmap", "--in", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
    # a masked node is data: it and its four neighbours come out masked
    spec = lk.GridSpec(0.0, 1.0, 0.0, 1.0, 5, 5)
    grid = lk.GridMap(spec, np.arange(25.0).reshape(5, 5), "ell")
    grid.mask[2, 2] = False
    src, out = tmp_path / "masked.csv", tmp_path / "b.csv"
    lk.write_grid_csv(grid, src)
    assert run(["bmap", "--in", str(src), "--out", str(out)]) == 0
    b = lk.read_grid_csv(out, quantity="bnorm")
    expect = np.ones((5, 5), dtype=bool)
    for jp, iq in ((2, 2), (1, 2), (3, 2), (2, 1), (2, 3)):
        expect[jp, iq] = False
    assert np.array_equal(b.mask, expect)
    assert np.all(np.isfinite(b.values[expect]))


def test_bmap_rejects_swapped_nodes(tmp_path):
    # two nodes of one row swapped: the q nodes no longer form a grid
    spec = lk.GridSpec(0.0, 1.0, 0.0, 1.0, 4, 3)
    src = tmp_path / "swapped.csv"
    lk.write_grid_csv(lk.GridMap(spec, np.arange(12.0).reshape(3, 4), "ell"), src)
    lines = src.read_text().splitlines()
    lines[6], lines[7] = lines[7], lines[6]
    src.write_text("\n".join(lines) + "\n")
    assert run(["bmap", "--in", str(src), "--out", str(tmp_path / "b.csv")]) == 1


def test_bmap_rejects_nodes_off_the_spec(tmp_path):
    # every row's middle q reads 0.9 where the spec's linspace has 0.5: the
    # gradient would take uniform steps and write 0.5 in the q column
    spec = lk.GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3)
    src = tmp_path / "nonuniform.csv"
    lk.write_grid_csv(lk.GridMap(spec, np.arange(9.0).reshape(3, 3), "ell"), src)
    src.write_text(src.read_text().replace("\n0.5,", "\n0.9,"))
    assert src.read_text().count("\n0.9,") == 3
    assert run(["bmap", "--in", str(src), "--out", str(tmp_path / "b.csv")]) == 1


def test_rates_exit_codes(tmp_path):
    assert run(["rates", "--model", "rotor"]) == 1
    out = tmp_path / "r.json"
    assert run(["rates", "--model", "harmonic-oscillator", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["model"] == "harmonic-oscillator"


@pytest.mark.parametrize("argv, approach", [
    (["--model", "pendulum", "--critical", "elliptic", "--side", "below"],
     "pendulum has no elliptic approach from below"),
    (["--model", "harmonic-oscillator", "--critical", "separatrix"],
     "harmonic-oscillator has no separatrix approach"),
], ids=["pendulum-elliptic-below", "oscillator-separatrix"])
def test_rates_filters_that_select_nothing_are_usage_errors(tmp_path, capsys, argv, approach):
    # both once exited 0 with "fits": []
    out = tmp_path / "r.json"
    assert run(["rates", *argv, "--out", str(out)]) == 1
    assert approach in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bounds", ["-1e308,1e308,-1,1", "-1,1,-1e308,1e308"])
def test_map_on_bounds_whose_width_overflows_is_a_usage_error(tmp_path, capsys, bounds):
    # 1e308 - (-1e308) overflows: linspace once warned three times, and the
    # map exited 1 with "two nodes are equal in floats"
    out = tmp_path / "m.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["map", "--model", "pendulum", "--bounds", bounds,
                    "--grid", "5x5", "--out", str(out)]) == 1
    assert "hi - lo overflows" in capsys.readouterr().err
    assert not out.exists()


def test_temporal_line(tmp_path):
    out = tmp_path / "t.csv"
    rc = run(["temporal", "--model", "pendulum", "--t", "5",
              "--line", "fixed=q:0,range=1.5:2.5:11", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,ld,ld_plus,ld_minus,flag"
    assert len(lines) == 12


def test_temporal_bad_line_spec(tmp_path):
    rc = run(["temporal", "--model", "pendulum", "--t", "5",
              "--line", "fixed=z:0,range=0:1:5", "--out", str(tmp_path / "x.csv")])
    assert rc == 1


def test_rates_stdout_json(capsys):
    rc = run(["rates", "--model", "pendulum", "--critical", "elliptic"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["model"] == "pendulum"
    assert len(report["fits"]) == 1
    fit = report["fits"][0]
    assert fit["critical"] == "elliptic"
    assert -0.55 < fit["exponent"] < -0.45
    assert fit["r2"] >= 0.999


def test_rates_file_and_sides(tmp_path):
    out = tmp_path / "r.json"
    rc = run(["rates", "--model", "harmonic-repulsor", "--critical", "separatrix",
              "--side", "above", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["truncation"] is None
    assert [f["side"] for f in report["fits"]] == ["above"]
    assert report["fits"][0]["exponent"] == pytest.approx(-0.5, abs=1e-4)


def test_usage_errors(tmp_path):
    assert run(["landscape", "--model", "rotor", "--emin", "0", "--emax", "1",
                "--n", "5", "--out", str(tmp_path / "x.csv")]) == 1
    assert run(["landscape", "--model", "pendulum", "--emin", "0",
                "--out", str(tmp_path / "x.csv")]) == 1
    assert run(["map", "--model", "pendulum", "--bounds", "0,1,0", "--grid",
                "4x4", "--out", str(tmp_path / "x.csv")]) == 1
    assert run(["map", "--model", "pendulum", "--bounds", "0,1,0,1", "--grid",
                "4by4", "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("argv", [
    ["bmap", "--in", "{tmp}/missing.csv", "--out", "{tmp}/b.csv"],
    ["bmap", "--in", "{tmp}/e.csv", "--out", "{tmp}/no/b.csv"],
    ["bmap", "--in", "{tmp}/e.csv", "--out", "{tmp}/b.csv", "--pgm", "{tmp}/no/b.pgm"],
    ["map", "--model", "pendulum", "--bounds", "-1,1,-1,1", "--grid", "3x3",
     "--out", "{tmp}/no/m.csv"],
    ["map", "--model", "pendulum", "--bounds", "-1,1,-1,1", "--grid", "3x3",
     "--out", "{tmp}/m.csv", "--pgm", "{tmp}/no/m.pgm"],
    ["landscape", "--model", "pendulum", "--emin", "-1", "--emax", "1", "--n", "3",
     "--out", "{tmp}/no/l.csv"],
], ids=["bmap-missing-in", "bmap-out-no-dir", "bmap-pgm-no-dir", "map-out-no-dir",
        "map-pgm-no-dir", "landscape-out-no-dir"])
def test_file_errors_are_usage_errors(tmp_path, capsys, argv):
    # a file that cannot be opened once raised out of run with a traceback
    lk.write_grid_csv(lk.energy_map(lk.pendulum(), lk.GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)),
                      tmp_path / "e.csv")
    assert run([a.format(tmp=tmp_path) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("argv", [
    ["map", "--model", "pendulum", "--bounds", "-1,1,-1,1", "--grid", "3x3"],
    ["bmap", "--in", "{tmp}/e.csv"],
], ids=["map", "bmap"])
def test_a_pgm_that_fails_leaves_no_csv(tmp_path, argv):
    # the CSV is written before the PGM; a PGM in a missing directory exits
    # 1 and leaves neither file
    lk.write_grid_csv(lk.energy_map(lk.pendulum(), lk.GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)),
                      tmp_path / "e.csv")
    out = tmp_path / "out.csv"
    assert run([a.format(tmp=tmp_path) for a in argv]
               + ["--out", str(out), "--pgm", str(tmp_path / "no" / "m.pgm")]) == 1
    assert not out.exists()
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("quantity", ["ell", "energy", "temporal"])
def test_map_on_nodes_that_collapse_is_a_usage_error(tmp_path, capsys, quantity):
    # bounds four ulps apart hold three q floats, not five nodes: the map
    # once exited 0, and bmap on its CSV exited 1 with "q nodes differ
    # between rows"
    out = tmp_path / "m.csv"
    assert run(["map", "--model", "pendulum", "--bounds", "1,1.0000000000000004,-1,1",
                "--grid", "5x3", "--quantity", quantity, "--t", "1", "--out", str(out)]) == 1
    assert "nodes are equal" in capsys.readouterr().err
    assert not out.exists()


def test_missing_truncation_is_usage_error(tmp_path):
    rc = run(["landscape", "--model", "fishtail", "--emin", "-32", "--emax", "1",
              "--n", "5", "--out", str(tmp_path / "f.csv")])
    assert rc == 1


def test_unconverged_exit_code(tmp_path):
    args = ["landscape", "--model", "pendulum", "--emin", "-1.99",
            "--emax", "0.9", "--n", "7", "--quad-rel-tol", "1e-15",
            "--quad-abs-tol", "1e-15", "--quad-max-levels", "4",
            "--out", str(tmp_path / "nc.csv")]
    assert run(args) == 2
    assert run(args + ["--best-effort"]) == 0


def test_unconverged_exit_code_map(tmp_path):
    args = ["map", "--model", "pendulum", "--bounds", "-2,2,-2,2", "--grid", "6x5",
            "--quantity", "ell", "--quad-rel-tol", "1e-15", "--quad-abs-tol", "1e-15",
            "--quad-max-levels", "4"]
    assert run(args + ["--out", str(tmp_path / "d.csv")]) == 2
    assert run(args + ["--best-effort", "--out", str(tmp_path / "d.csv")]) == 0
    grid = lk.read_grid_csv(tmp_path / "d.csv")
    assert not grid.mask.any()  # every node's quadrature stopped short


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["landscape", "--model", "duffing", "--emin", "-0.25", "--emax",
            "0.5", "--n", "21", "--derivs"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bounded_librations_flag(tmp_path):
    out = tmp_path / "fb.csv"
    rc = run(["landscape", "--model", "fishtail", "--bounded-librations",
              "--emin", "-32", "--emax", "0", "--n", "9", "--out", str(out)])
    assert rc == 0
    ls = lk.read_landscape_csv(out)
    assert np.all(ls.lengths >= 0.0)


_BOUNDED_COMMANDS = {
    "landscape": ["--emin", "-1", "--emax", "0", "--n", "3"],
    "map": ["--bounds", "-1,1,-1,1", "--grid", "3x3"],
    "rates": ["--critical", "separatrix"],
    "temporal": ["--t", "1", "--line", "fixed=q:0,range=0.1:0.5:3"],
}


@pytest.mark.parametrize("command", sorted(_BOUNDED_COMMANDS))
def test_bounded_librations_rejected_for_other_models(tmp_path, capsys, command):
    # the flag was once dropped silently for every model but the fish-tail
    out = tmp_path / "out"
    argv = [command, "--model", "pendulum", "--bounded-librations",
            *_BOUNDED_COMMANDS[command], "--out", str(out)]
    assert run(argv) == 1
    assert "--bounded-librations applies only to fishtail" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["map", "rates", "temporal"])
def test_bounded_librations_runs_the_fishtail(tmp_path, command):
    # landscape: test_bounded_librations_flag
    out = tmp_path / "out"
    assert run([command, "--model", "fishtail", "--bounded-librations",
                *_BOUNDED_COMMANDS[command], "--out", str(out)]) == 0
    assert out.stat().st_size > 0


def test_threads_flag_identical_output(tmp_path):
    # temporal maps are one batched run: --threads is accepted and changes
    # nothing
    base = ["map", "--model", "pendulum", "--bounds", "-2,2,-2,2",
            "--grid", "8x8", "--quantity", "temporal", "--t", "3"]
    a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
    assert run(base + ["--out", str(a)]) == 0
    assert run(base + ["--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_threads_flag_identical_output_ell(tmp_path):
    # an ell map is one batched run too: --threads is accepted and changes
    # nothing
    base = ["map", "--model", "pendulum", "--bounds", "-2,2,-2,2",
            "--grid", "8x8", "--quantity", "ell"]
    a, b = tmp_path / "e1.csv", tmp_path / "e4.csv"
    assert run(base + ["--out", str(a)]) == 0
    assert run(base + ["--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["temporal", "--model", "pendulum", "--t", "nan",
     "--line", "fixed=q:0,range=0:1:3"],
    ["temporal", "--model", "pendulum", "--t", "inf",
     "--line", "fixed=q:0,range=0:1:3"],
    ["map", "--model", "pendulum", "--bounds", "-1,1,-1,1", "--grid", "3x3",
     "--quantity", "temporal", "--t", "inf"],
    ["map", "--model", "pendulum", "--bounds", "-1,1,-1,1", "--grid", "3x3",
     "--quantity", "temporal", "--t", "nan"],
    ["temporal", "--model", "pendulum", "--t", "1", "--rel-tol", "nan",
     "--line", "fixed=q:0,range=0:1:3"],
    ["temporal", "--model", "pendulum", "--t", "1", "--abs-tol", "nan",
     "--line", "fixed=q:0,range=0:1:3"],
    ["landscape", "--model", "pendulum", "--emin", "-1", "--emax", "1",
     "--n", "3", "--quad-rel-tol", "nan"],
    ["map", "--model", "pendulum", "--bounds", "-1,1,-1,1", "--grid", "3x3",
     "--quad-abs-tol", "nan"],
], ids=["temporal-t-nan", "temporal-t-inf", "map-t-inf", "map-t-nan",
        "rel-tol-nan", "abs-tol-nan", "quad-rel-tol-nan", "quad-abs-tol-nan"])
def test_non_finite_settings_are_usage_errors(tmp_path, monkeypatch, argv):
    # a NaN horizon once ran every lane to max_steps (10^7) and wrote OK
    # zeros; the step cap keeps a regression from hanging
    from ldkit import _kernels

    real = _kernels.dp45_lanes
    monkeypatch.setattr(_kernels, "dp45_lanes",
                        lambda *args: real(*args[:-1], 50))
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["temporal", "--model", "pendulum", "--t", "5",
     "--line", "fixed=q:nan,range=0:1:3"],
    ["temporal", "--model", "pendulum", "--t", "5",
     "--line", "fixed=q:0,range=0:inf:3"],
    ["map", "--model", "pendulum", "--bounds=-inf,1,0,1", "--grid", "3x3",
     "--quantity", "temporal", "--t", "2"],
    ["map", "--model", "pendulum", "--bounds=-inf,1,0,1", "--grid", "3x3",
     "--quantity", "energy"],
    ["map", "--model", "pendulum", "--bounds=-inf,1,0,1", "--grid", "3x3",
     "--quantity", "ell"],
], ids=["line-value-nan", "line-range-inf", "bounds-inf-temporal",
        "bounds-inf-energy", "bounds-inf-ell"])
def test_non_finite_specs_are_usage_errors(tmp_path, argv):
    # a NaN line start once wrote LD 0 with flag 2, infinite bounds NaN q
    # fields (or exit 2 for an ell map)
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 1
    assert not out.exists()


def test_infinite_energy_range_is_a_quiet_usage_error(tmp_path):
    # --emax inf once printed numpy's RuntimeWarning before exiting 1
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["landscape", "--model", "pendulum", "--emin", "-1", "--emax", "inf",
                    "--n", "5", "--out", str(out)]) == 1
    assert not out.exists()


def test_landscape_derivatives_ignore_a_pendulum_cut(tmp_path):
    # dell_dE at V(-1) once read nan with --trunc -1 (6.896... without)
    base = ["landscape", "--model", "pendulum", "--derivs",
            "--emin", "-1.7903023058681398", "--emax", "-1.2903023058681398",
            "--n", "3"]
    cut, full = tmp_path / "cut.csv", tmp_path / "full.csv"
    assert run(base + ["--trunc", "-1", "--out", str(cut)]) == 0
    assert run(base + ["--out", str(full)]) == 0
    assert cut.read_bytes() == full.read_bytes()
    assert lk.read_landscape_csv(cut).derivs[1] == pytest.approx(6.896065130917497,
                                                                rel=1e-12)


@pytest.mark.parametrize("cut", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["landscape", "--model", "fishtail", "--emin", "-1", "--emax", "1", "--n", "3"],
    ["map", "--model", "fishtail", "--bounds", "-1,1,-1,1", "--grid", "3x3"],
    ["rates", "--model", "fishtail"],
], ids=["landscape", "map", "rates"])
def test_non_finite_truncation_is_usage_error(tmp_path, argv, cut):
    # rates once wrote "truncation": NaN (not JSON) and exited 0; map exited 2
    out = tmp_path / "x.out"
    assert run(argv + [f"--trunc={cut}", "--out", str(out)]) == 1
    assert not out.exists()
