"""The correctness gate and the accuracy references, run once in every run.

The gate's stages are fixed (independent of workload and seed), so every
run checks the same promises and reports the same accuracy metrics:

* a small direct CLI map written with one thread and with two is
  byte-identical (CSV and PGM), as the README promises, and fully valid;
* the table-mode map of the same grid and the ``bmap`` of the direct one
  exit 0 and are fully valid (the table map's deviation from the direct
  one is reported, not gated);
* ``ell`` against the 40-digit mpmath references of ``refs/ell_mpmath.json``
  gives ``ell_rel_err_max``, overall and per model with known defects, and
  a per-point record (model, E, side, relative error, converged);
* ``temporal_map`` on a small pendulum grid and ``ld_landscape_line`` on the
  custom double well against the DOP853 references of
  ``refs/ld_dop853.json`` give ``ld_rel_err_max``;
* ``rate_report`` for pendulum, Duffing and fishtail (cut at -5) gives
  ``rate_exp_err_max`` = max |exponent + 1/2| over all fits.

Accuracy is reported as measured, never gated, and no reference point is
dropped. The gate fails on exit codes, masked nodes, failed temporal
integrations, missing fits and byte differences.
"""

import hashlib
import json
import math
import pathlib

import numpy as np

import ldkit as lk

import workloads as W

REFS = pathlib.Path(__file__).resolve().parent / "refs"
CHECK_BOUNDS = (-math.pi, math.pi, -2.5, 2.5)
# built-in models whose ell loses accuracy just below the separatrix
# (Duffing from E = -1e-5 down, pendulum at -1e-8, fishtail at -1e-7): each
# gets its own ell_rel_err_max, so that a change to one shows even though
# the double well's larger error at E = +1e-8 sets the overall maximum
DEFECT_MODELS = ("pendulum", "duffing", "fishtail")


def load_refs():
    ell = json.loads((REFS / "ell_mpmath.json").read_text())
    ld = json.loads((REFS / "ld_dop853.json").read_text())
    return ell, ld


def gate_models():
    return {"pendulum": lk.pendulum(), "duffing": lk.duffing(),
            "fishtail": lk.fishtail(), "harmonic-oscillator": lk.harmonic_oscillator(),
            "harmonic-repulsor": lk.harmonic_repulsor(), "double-well": W.double_well()}


def stages(models, out_dir, table=True):
    """The gate's stages; ``table`` adds the table-mode map (traced runs,
    where it feeds the per-layer table metrics)."""
    ell_refs, ld_refs = load_refs()
    points = [(models[e["model"]], None if e["trunc"] is None else lk.Truncation(e["trunc"]),
               e["E"]) for e in ell_refs["entries"]]
    spec = lk.GridSpec(*CHECK_BOUNDS, 41, 41)
    pend = models["pendulum"]
    one = out_dir / "check-t1.csv"
    out = [
        W.Stage("ell_refs", "ell vs mpmath references",
                lambda: [lk.ell(m, E, tr, full_output=True) for m, tr, E in points],
                dict(points=points, entries=ell_refs["entries"])),
        W.temporal_map_stage(pend, lk.GridSpec(**ld_refs["grid"])),
        W.temporal_line_stage(models["double-well"], lk.LineSpec(**ld_refs["line"])),
        W.rates_stage(pend),
        W.rates_stage(models["duffing"]),
        W.rates_stage(models["fishtail"], lk.Truncation(-5.0)),
        W.map_stage("map_direct", pend, spec, one, pgm=out_dir / "check-t1.pgm",
                    threads=1),
        W.map_stage("map_direct", pend, spec, out_dir / "check-t2.csv",
                    pgm=out_dir / "check-t2.pgm", threads=2),
        W.bmap_stage("bmap", one, out_dir / "check-b.csv", out_dir / "check-b.pgm"),
    ]
    if table:
        out.append(W.map_stage("map_table", pend, spec, out_dir / "check-table.csv",
                               table=True))
    return out


def _ld_errors(entries, q, p, total):
    errs = []
    for e, qi, pi, v in zip(entries, q, p, total):
        if (e["q"], e["p"]) != (float(qi), float(pi)):
            raise ValueError(f"reference initial condition {e['q']},{e['p']} "
                             f"does not match the check grid node {qi},{pi}")
        ref = e["plus"] + e["minus"]
        errs.append(abs(float(v) - ref) / abs(ref))
    return errs


def evaluate(stages, results):
    """Gate problems and accuracy metrics from the gate stages' results."""
    problems = []
    info = {}
    by_kind = {}
    for st, res in zip(stages, results):
        by_kind.setdefault(st.kind, []).append((st, res))
        if st.kind != "ell_refs":
            problems += W.outcome(st, res).problems

    (st, res), = by_kind["ell_refs"]
    points = []
    for e, (val, ell_info) in zip(st.args["entries"], res):
        ref = float(e["ell"])
        points.append({"model": e["model"], "E": e["E"], "side": e["side"],
                       "rel_err": abs(val - ref) / ref, "converged": ell_info.converged})
    worst = max(points, key=lambda x: x["rel_err"])
    info["ell_rel_err_max"] = worst["rel_err"]
    info["ell_rel_err_argmax"] = {k: worst[k] for k in ("model", "E", "side")}
    for model in DEFECT_MODELS:
        info[f"ell_rel_err_max.{model}"] = max(x["rel_err"] for x in points
                                               if x["model"] == model)
    info["ell_unconverged"] = sum(1 for x in points if not x["converged"])
    info["ell_points"] = points

    _, ld_refs = load_refs()
    (gst, grid), = by_kind["temporal_map"]
    (lst, line), = by_kind["temporal_line"]
    pend_refs = [e for e in ld_refs["entries"] if e["model"] == "pendulum"]
    well_refs = [e for e in ld_refs["entries"] if e["model"] != "pendulum"]
    Q, P = np.meshgrid(gst.args["spec"].q_nodes(), gst.args["spec"].p_nodes())
    ld_errs = _ld_errors(pend_refs, Q.ravel(), P.ravel(), grid.values.ravel())
    ld_errs += _ld_errors(well_refs, np.full(line.coords.size, lst.args["line"].value),
                          line.coords, line.total)
    info["ld_rel_err_max"] = max(ld_errs)
    if not grid.mask.all() or np.any(line.status):
        problems.append("temporal reference check: nonzero integration status")

    fits = [(st.args["model"].name, f) for st, rep in by_kind["rates"]
            for f in rep["fits"] if "exponent" in f]
    name, f = max(fits, key=lambda x: abs(x[1]["exponent"] + 0.5))
    info["rate_exp_err_max"] = abs(f["exponent"] + 0.5)
    info["rate_exp_err_argmax"] = {"model": name, "critical": f["critical"],
                                   "side": f["side"], "exponent": f["exponent"]}

    digests = [hashlib.sha256(b"".join(p.read_bytes() for p in st.args["files"])).hexdigest()
               for st, res in by_kind["map_direct"]]
    if len(set(digests)) != 1:
        problems.append("check map: output bytes differ between 1 and 2 threads")
    if "map_table" in by_kind:
        (tst, _), = by_kind["map_table"]
        direct = lk.read_grid_csv(by_kind["map_direct"][0][0].args["out"])
        table = lk.read_grid_csv(tst.args["out"])
        info["maps.table_rel_err_max"] = float(
            np.max(np.abs(table.values - direct.values)) / np.max(np.abs(direct.values)))
    return problems, info
