"""Workloads of the ldkit benchmark: models, seeded inputs, stages, output checks.

Each workload is one closed loop from a single caller: its stages run in
sequence in one process, with no threads. A stage is one call into ldkit's
public API (or one in-process CLI command), and ``kind`` names the
end-to-end stage metric its time adds to.

The seed draws one factor ``s`` in [0.98, 0.995) that multiplies both ends
of every energy range, grid and line. Ranges keep their sign pattern, so
each separatrix stays strictly inside, the lowest landscape energy stays
above the elliptic minimum, and the grids stay symmetric about the origin
in q and in p, node for node, so that a quarter of a direct map's node
energies are unique whatever the seed.

Each workload splits into two parts whose costs are reported separately
(``PART``), so that work moved from one to the other shows even when the
pass time stays the same: energy-sweep's landscapes (a) and rate reports
(b); grid-pipeline's direct map (a) and table map with its ``bmap`` (b);
temporal-map's pendulum grid on the coded-model stepper, dp45_arclength
(a), and the double-well line on the Python-callable one, dp45_callable
(b).
"""

import hashlib
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import ldkit as lk
from ldkit import cli

T_HORIZON = 20.0
PART = {"landscape": "a", "rates": "b", "map_direct": "a", "map_table": "b",
        "bmap": "b", "temporal_map": "a", "temporal_line": "b"}


def well_potential(q):
    return -0.5 * q * q + 0.25 * q ** 4


def well_slope(q):
    return -q + q ** 3


def double_well():
    """V = -q^2/2 + q^4/4 as Python callables: the custom-model code path."""
    return lk.mechanical(well_potential, well_slope, (-2.0, 2.0),
                         name="double-well", e_sx=0.0)


def build_models(workload):
    """The models a workload uses; set-up time is measured around this."""
    if workload == "energy-sweep":
        return {"pendulum": lk.pendulum(), "duffing": lk.duffing(),
                "fishtail": lk.fishtail(), "double-well": double_well()}
    if workload == "grid-pipeline":
        return {"pendulum": lk.pendulum()}
    if workload == "temporal-map":
        return {"pendulum": lk.pendulum(), "double-well": double_well()}
    raise ValueError(f"unknown workload {workload!r}")


def seed_scale(seed):
    return 0.98 + 0.015 * float(np.random.default_rng(seed).random())


def symmetric_grid(q_half, p_half, nq, np_):
    """Grid on [-q_half, q_half] x [-p_half, p_half], widths nudged (< 1e-6
    relative) so that every node is a short binary fraction: the nodes are
    then exact negatives of each other, for any seed."""
    def half(a, n):
        step = round(2.0 * a / (n - 1) * 2 ** 20) / 2 ** 20
        return step * (n - 1) / 2
    qh, ph = half(q_half, nq), half(p_half, np_)
    return lk.GridSpec(-qh, qh, -ph, ph, nq, np_)


@dataclass
class Stage:
    kind: str
    label: str
    call: Callable
    args: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# stage builders
# ----------------------------------------------------------------------

def map_stage(kind, model, spec, out, pgm=None, table=False, threads=None):
    """A CLI ``map`` command for ``model`` (which must be the named built-in)."""
    bounds = ",".join(repr(float(v)) for v in
                      (spec.q_lo, spec.q_hi, spec.p_lo, spec.p_hi))
    argv = ["map", "--model", model.name, "--bounds", bounds,
            "--grid", f"{spec.nq}x{spec.np}", "--out", str(out)]
    if pgm:
        argv += ["--pgm", str(pgm)]
    if table:
        argv.append("--table-mode")
    if threads:
        argv += ["--threads", str(threads)]
    args = dict(model=model, spec=spec, out=out, pgm=pgm, table=table,
                threads=threads, files=[f for f in (out, pgm) if f])
    label = f"map {spec.nq}x{spec.np} {'table' if table else 'direct'}"
    if threads:
        label += f" threads={threads}"
    return Stage(kind, label, lambda: cli.run(argv), args)


def bmap_stage(kind, src, out, pgm):
    argv = ["bmap", "--in", str(src), "--out", str(out), "--pgm", str(pgm)]
    return Stage(kind, "bmap", lambda: cli.run(argv),
                 dict(src=src, out=out, pgm=pgm, files=[out, pgm]))


def landscape_stage(model, lo, hi, n, trunc=None):
    return Stage("landscape", f"landscape {model.name} n={n}",
                 lambda: lk.landscape(model, lo, hi, n, trunc=trunc,
                                      with_derivs=True),
                 dict(model=model, trunc=trunc))


def rates_stage(model, trunc=None):
    return Stage("rates", f"rate_report {model.name}",
                 lambda: lk.rate_report(model, trunc=trunc),
                 dict(model=model, trunc=trunc))


def temporal_map_stage(model, spec):
    return Stage("temporal_map", f"temporal_map {model.name} {spec.nq}x{spec.np}",
                 lambda: lk.temporal_map(model, spec, T_HORIZON),
                 dict(model=model, spec=spec))


def temporal_line_stage(model, line):
    return Stage("temporal_line", f"ld_landscape_line {model.name} n={line.n}",
                 lambda: lk.ld_landscape_line(model, line, T_HORIZON),
                 dict(model=model, line=line))


def stages(workload, models, s, out_dir):
    """The workload's stages, in the order one pass runs them."""
    if workload == "energy-sweep":
        trunc = lk.Truncation(-5.0)
        return [
            landscape_stage(models["pendulum"], -2.0 * s, 1.0 * s, 601),
            landscape_stage(models["duffing"], -0.25 * s, 1.0 * s, 601),
            landscape_stage(models["fishtail"], -32.0 * s, 10.0 * s, 601, trunc),
            landscape_stage(models["double-well"], -0.25 * s, 1.0 * s, 201),
            rates_stage(models["pendulum"]),
            rates_stage(models["duffing"]),
            rates_stage(models["fishtail"], trunc),
        ]
    if workload == "grid-pipeline":
        pend = models["pendulum"]
        table_csv = out_dir / "table.csv"
        return [
            map_stage("map_direct", pend,
                      symmetric_grid(math.pi * s, 2.5 * s, 150, 150),
                      out_dir / "direct.csv"),
            map_stage("map_table", pend,
                      symmetric_grid(math.pi * s, 2.5 * s, 500, 500), table_csv,
                      pgm=out_dir / "table.pgm", table=True),
            bmap_stage("bmap", table_csv, out_dir / "bnorm.csv",
                       out_dir / "bnorm.pgm"),
        ]
    if workload == "temporal-map":
        spec = symmetric_grid(math.pi * s, 2.5 * s, 40, 40)
        line = lk.LineSpec("q", 0.0, 0.0, 1.5 * s, 100)
        return [temporal_map_stage(models["pendulum"], spec),
                temporal_line_stage(models["double-well"], line)]
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What one stage's output shows: operations, failures, problems, digest."""

    attempted: int
    failed: int
    problems: list
    digest: str


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def ladder_size():
    """Samples per rate ladder at rate_report's defaults (eps_hi .. eps_lo)."""
    d = {k: v.default for k, v in inspect.signature(lk.rate_report).parameters.items()}
    return int(round(d["pts_per_decade"] * math.log10(d["eps_hi"] / d["eps_lo"]))) + 1


def grid_file_stats(path):
    """(nodes, masked nodes) of a grid CSV: masked rows end in ',0'."""
    data = path.read_bytes()
    return data.count(b"\n") - 1, data.count(b",0\n")


def outcome(stage, result):
    kind, a = stage.kind, stage.args
    if kind == "landscape":
        ls = result
        problems = []
        e_sx = a["model"].critical_energies()[1]
        inside = ls.energies[0] < e_sx < ls.energies[-1]
        if inside and not np.any(ls.energies == e_sx):
            problems.append(f"{stage.label}: separatrix sample missing")
        if not np.all(np.isfinite(ls.lengths)):
            problems.append(f"{stage.label}: non-finite lengths")
        return Outcome(ls.energies.size, int(np.count_nonzero(~ls.converged)),
                       problems, _sha(ls.energies, ls.lengths, ls.derivs))
    if kind == "rates":
        n = ladder_size()
        fits = result["fits"]
        bad = [f for f in fits if "error" in f]
        problems = [f"{stage.label}: {f['critical']}/{f['side']}: {f['error']}"
                    for f in bad]
        failed = sum(n - f.get("n_samples", 0) for f in fits)
        digest = hashlib.sha256(repr(result).encode()).hexdigest()
        return Outcome(n * len(fits), failed, problems, digest)
    if kind in ("map_direct", "map_table", "bmap"):
        problems = []
        if result != 0:
            problems.append(f"{stage.label}: exit code {result}")
            return Outcome(1, 1, problems, "")
        nodes, masked = grid_file_stats(a["out"])
        if masked:
            problems.append(f"{stage.label}: {masked} masked nodes")
        h = hashlib.sha256()
        for f in a["files"]:
            h.update(f.read_bytes())
        return Outcome(nodes + 1, masked, problems, h.hexdigest())
    if kind == "temporal_map":
        g = result
        problems = [] if np.all(np.isfinite(g.values)) else \
            [f"{stage.label}: non-finite values"]
        return Outcome(g.values.size, int(np.count_nonzero(~g.mask)), problems,
                       _sha(g.values, g.mask))
    if kind == "temporal_line":
        r = result
        problems = [] if np.all(np.isfinite(r.total)) else \
            [f"{stage.label}: non-finite values"]
        return Outcome(r.total.size, int(np.count_nonzero(r.status)), problems,
                       _sha(r.total, r.plus, r.minus, r.status))
    raise ValueError(f"no output check for stage kind {kind!r}")
