"""Per-layer tracing for the ldkit benchmark.

Nothing inside ldkit is instrumented. In a traced run the benchmark records
a span around every stage it runs, then replays that stage's inputs through
each lower layer's public functions and records a span around each replayed
call: ``models.domain``, ``quadrature.*_interval``, ``geometric.ell`` and
``geometric.dell_dE`` for the energies a stage evaluates,
``rates.sample_rates``/``rates.fit_power_law`` for its ladders, the
``maps.*`` library calls a CLI command makes, and ``temporal.temporal_ld``
plus one ``kernels.dp45`` trajectory per direction for every initial
condition. Fixed micro-probes add the kernel costs and the baseline rows.

A span holds a name, start, end, parent span, run id and work counts. Spans
stay in memory and are written out when the run ends; self time is a span's
duration minus the durations of its children.
"""

import contextlib
import math
import statistics
import time
from collections import defaultdict

import numpy as np

import ldkit as lk
from ldkit import _kernels as K
from ldkit import geometric

from workloads import T_HORIZON, outcome

STAGE_SPANS = {
    "landscape": "geometric.landscape",
    "rates": "rates.rate_report",
    "map_direct": "cli.run",
    "map_table": "cli.run",
    "bmap": "cli.run",
    "temporal_map": "maps.temporal_map",
    "temporal_line": "temporal.ld_landscape_line",
    "ell_refs": "check.ell_refs",
}  # span recorded around each stage, named after the function it calls


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, label=None, **counts):
        rec = {"id": len(self.spans), "name": name, "label": label,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "counts": counts}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def totals(self, under=None):
        """Per span name: calls, inclusive and self seconds, summed counts.

        ``under`` restricts the sums to the subtree of spans with that name.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        keep = None
        if under is not None:
            keep = set()
            for s in self.spans:  # parents precede children
                if s["name"] == under or s["parent"] in keep:
                    keep.add(s["id"])
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                   "counts": defaultdict(float)})
        for s in self.spans:
            if keep is not None and s["id"] not in keep:
                continue
            t = out[s["name"]]
            d = s["end"] - s["start"]
            t["calls"] += 1
            t["s"] += d
            t["self_s"] += d - child_time[s["id"]]
            for k, v in s["counts"].items():
                t["counts"][k] += v
        return out


# ----------------------------------------------------------------------
# replays
# ----------------------------------------------------------------------

def replay_ell(tr, model, energies, trunc=None):
    for E in energies:
        E = float(E)
        try:
            with tr.span("models.domain"):
                dom = model.domain(E, trunc)
        except lk.LdkitError:
            continue
        for interval, flags in geometric._panels(model, E, dom):
            kind = "turning" if lk.TURNING in flags else "regular"
            with tr.span(f"quadrature.{kind}_interval") as c:
                c["evals"] = lk.arclength_interval(model, E, interval, flags).evaluations
        with tr.span("geometric.ell") as c:
            _, info = lk.ell(model, E, trunc, full_output=True)
            c["evals"] = info.evaluations
            c["unconverged"] = int(not info.converged)


def replay_dell(tr, model, points, trunc=None):
    for E, h in points:
        with tr.span("geometric.dell_dE"):
            try:
                lk.dell_dE(model, float(E), trunc, h=h)
            except lk.StraddlesCritical:
                pass


def replay_landscape(tr, stage, ls):
    model, trunc = stage.args["model"], stage.args["trunc"]
    e_sx = model.critical_energies()[1]
    replay_ell(tr, model, ls.energies, trunc)
    replay_dell(tr, model, [(E, None) for E in ls.energies if E != e_sx], trunc)


def replay_rates(tr, stage, report):
    model, trunc = stage.args["model"], stage.args["trunc"]
    e_min, e_sx = model.critical_energies()
    for fit in report["fits"]:
        crit, side = fit["critical"], fit["side"]
        with tr.span("rates.sample_rates") as c:
            try:
                ladder = lk.sample_rates(model, crit, side, trunc=trunc)
            except lk.LdkitError:
                continue
            c["samples"] = len(ladder.samples)
            c["n_failed"] = ladder.n_failed
        if len(ladder.samples) >= 5:
            with tr.span("rates.fit_power_law"):
                lk.fit_power_law(ladder.samples, critical=crit, side=side)
        # rates' documented differencing step is h = 1e-3 * eps
        e_c = e_sx if crit == "separatrix" else e_min
        sign = -1.0 if side == "below" else 1.0
        pts = [(e_c + sign * s.eps, max(1e-3 * s.eps, 1e-12)) for s in ladder.samples]
        replay_dell(tr, model, pts, trunc)
        replay_ell(tr, model, [E for E, _ in pts], trunc)


def _library_time(tr, first_span):
    return sum(s["end"] - s["start"] for s in tr.spans[first_span:]
               if s["name"].startswith("maps."))


def replay_map(tr, stage, replay_dir):
    a = stage.args
    model, spec = a["model"], a["spec"]
    first = len(tr.spans)
    kind = "maps.ell_map_table" if a["table"] else "maps.ell_map_direct"
    with tr.span(kind) as c:
        grid = lk.ell_map(model, spec, table=a["table"], threads=a["threads"])
        c["nodes"] = grid.values.size
    out = replay_dir / "replay.csv"
    with tr.span("maps.write_grid_csv") as c:
        lk.write_grid_csv(grid, out)
        c["bytes"] = out.stat().st_size
    if a["pgm"]:
        with tr.span("maps.write_pgm"):
            lk.write_pgm(grid, replay_dir / "replay.pgm")
    library_s = _library_time(tr, first)
    if not a["table"]:
        energies = np.unique(lk.energy_map(model, spec).values)
        tr.spans[first]["counts"]["unique"] = energies.size
        replay_ell(tr, model, energies)
    return library_s


def replay_bmap(tr, stage, replay_dir):
    a = stage.args
    first = len(tr.spans)
    with tr.span("maps.read_grid_csv") as c:
        grid = lk.read_grid_csv(a["src"])
        c["bytes"] = a["src"].stat().st_size
    with tr.span("maps.b_map"):
        b = lk.b_map(grid)
    out = replay_dir / "replay.csv"
    with tr.span("maps.write_grid_csv") as c:
        lk.write_grid_csv(b, out)
        c["bytes"] = out.stat().st_size
    with tr.span("maps.write_pgm"):
        lk.write_pgm(b, replay_dir / "replay.pgm")
    return _library_time(tr, first)


def _one_sided_steps(model, q0, p0, reverse):
    """Attempted steps of one DP5(4) trajectory, from the kernel itself."""
    cfg = lk.IntegratorConfig()
    opts = (T_HORIZON, cfg.rel_tol, cfg.abs_tol, cfg.max_step, cfg.max_steps)
    if model.kernel_code is not None:
        return int(K.dp45_arclength(model.kernel_code, q0, p0, *opts, reverse)[4])
    sgn = -1.0 if reverse else 1.0

    def f(q, p):
        fq, fp = model.vector_field(q, p)
        return sgn * fq, sgn * fp
    return int(K.dp45_callable(f, q0, p0, *opts)[4])


def replay_temporal(tr, model, ics):
    for q0, p0 in ics:
        q0, p0 = float(q0), float(p0)
        with tr.span("temporal.temporal_ld"):
            lk.temporal_ld(model, (q0, p0), T_HORIZON)
        for reverse in (False, True):
            with tr.span("kernels.dp45") as c:
                c["steps"] = _one_sided_steps(model, q0, p0, reverse)


def grid_ics(spec):
    Q, P = np.meshgrid(spec.q_nodes(), spec.p_nodes())
    return zip(Q.ravel(), P.ravel())


def line_ics(line):
    coords = np.linspace(line.lo, line.hi, line.n)
    if line.fixed == "q":
        return [(line.value, c) for c in coords]
    return [(c, line.value) for c in coords]


def replay(tr, stage, result, replay_dir, stage_counts):
    """Replay one finished stage through the layers below it.

    CLI stages record in ``stage_counts`` the time of the library calls the
    command makes, from which ``cli.overhead_s`` is derived.
    """
    kind = stage.kind
    if kind == "landscape":
        replay_landscape(tr, stage, result)
    elif kind == "rates":
        replay_rates(tr, stage, result)
    elif kind == "ell_refs":
        for model, trunc, E in stage.args["points"]:
            replay_ell(tr, model, [E], trunc)
    elif kind in ("map_direct", "map_table"):
        stage_counts["library_s"] = replay_map(tr, stage, replay_dir)
    elif kind == "bmap":
        stage_counts["library_s"] = replay_bmap(tr, stage, replay_dir)
    elif kind == "temporal_map":
        replay_temporal(tr, stage.args["model"], grid_ics(stage.args["spec"]))
    elif kind == "temporal_line":
        replay_temporal(tr, stage.args["model"], line_ics(stage.args["line"]))
    else:
        raise ValueError(f"no replay for stage kind {kind!r}")


def run_stages(stages, tracer=None, replay_dir=None):
    """Run stages in order; with a tracer, replay each one through its layers."""
    results, times = [], []
    for st in stages:
        if tracer is None:
            t0 = time.perf_counter()
            res = st.call()
            times.append(time.perf_counter() - t0)
        else:
            i = len(tracer.spans)
            with tracer.span(STAGE_SPANS[st.kind], label=st.label) as counts:
                res = st.call()
            times.append(tracer.spans[i]["end"] - tracer.spans[i]["start"])
            with tracer.span("replay", label=st.label):
                replay(tracer, st, res, replay_dir, counts)
        results.append(res)
    return results, times


_REF_X = np.linspace(0.1, 1.0, 24)


def reference_loop():
    """Seconds taken by a fixed interpreter-bound loop over small numpy calls.

    It does not touch ldkit. On a shared host whose speed drifts by tens of
    percent within seconds, a stage's time divided by the reference times
    measured right around it repeats where the raw seconds do not.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40000):
        y = np.sqrt(_REF_X * (1.0 + 1e-6 * i))
        acc += float(np.dot(y, _REF_X)) + math.hypot(acc * 1e-12, 1.0)
    return time.perf_counter() - t0


def run_pass(stages, tracer=None, replay_dir=None):
    """One pass of a workload; untraced, each stage sits between two timings
    of the reference loop (``ref_s`` has one entry more than ``stage_s``)."""
    results, times, refs = [], [], []
    for st in stages:
        if tracer is None:
            refs.append(reference_loop())
        (res,), (t,) = run_stages([st], tracer, replay_dir)
        results.append(res)
        times.append(t)
    if tracer is None:
        refs.append(reference_loop())
    outcomes = [outcome(st, r) for st, r in zip(stages, results)]
    return {"stage_s": times, "ref_s": refs, "outcomes": outcomes}


# ----------------------------------------------------------------------
# fixed micro-probes and the baseline rows
# ----------------------------------------------------------------------

def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes(tr, out_dir):
    """Kernel costs at fixed sizes, plus the baseline table rows."""
    pend = lk.pendulum()
    qs = np.linspace(-2.0, 2.0, 4096)  # inside the E = -0.5 level curve
    call = lambda: K.integrand_values(pend.kernel_code, qs, -0.5)
    out = {}
    with tr.span("probe.integrand"):
        per_call = _median_time(lambda: [call() for _ in range(50)], 7) / 50
    out["kernels.integrand_ns_per_node"] = per_call / qs.size * 1e9

    with tr.span("probe.dp45_trajectory") as c:
        c["steps"] = steps = _one_sided_steps(pend, 0.3, 1.3, False)
        t = _median_time(lambda: _one_sided_steps(pend, 0.3, 1.3, False), 21)
    out["kernels.dp45_traj_ms"] = t * 1e3
    out["kernels.dp45_steps"] = steps

    with tr.span("probe.landscape_pendulum_101"):
        out["baseline.landscape_pendulum_101_s"] = _median_time(
            lambda: lk.landscape(pend, -2.0, 1.0, 101), 5)

    grid = lk.energy_map(pend, lk.GridSpec(-math.pi, math.pi, -2.5, 2.5, 500, 500))
    path = out_dir / "baseline-500x500.csv"
    with tr.span("probe.grid_csv_500"):
        out["baseline.grid_csv_500_write_s"] = _median_time(
            lambda: lk.write_grid_csv(grid, path), 3)
        out["baseline.grid_csv_500_read_s"] = _median_time(
            lambda: lk.read_grid_csv(path, quantity="energy"), 3)
    return out


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(tr):
    t = tr.totals()

    def s(name):
        return t[name]["s"] if name in t else 0.0

    def n(name):
        return t[name]["calls"] if name in t else 0

    def c(name, key):
        return t[name]["counts"][key] if name in t else 0.0

    ell_calls = n("geometric.ell")
    direct_nodes = c("maps.ell_map_direct", "nodes")
    cli_spans = [x for x in tr.spans if x["name"] == "cli.run"]
    return {
        "geometric.ell_s": s("geometric.ell"),
        "geometric.ell_calls": ell_calls,
        "geometric.evals_per_ell": c("geometric.ell", "evals") / max(ell_calls, 1),
        "geometric.self_s": s("geometric.ell") - s("models.domain")
        - s("quadrature.turning_interval") - s("quadrature.regular_interval"),
        "geometric.dell_dE_s": s("geometric.dell_dE"),
        "geometric.unconverged": c("geometric.ell", "unconverged"),
        "quadrature.turning_interval_s": s("quadrature.turning_interval"),
        "quadrature.turning_interval_evals": c("quadrature.turning_interval", "evals"),
        "quadrature.regular_interval_s": s("quadrature.regular_interval"),
        "quadrature.regular_interval_evals": c("quadrature.regular_interval", "evals"),
        "models.domain_s": s("models.domain"),
        "models.domain_calls": n("models.domain"),
        "rates.sample_rates_s": s("rates.sample_rates"),
        "rates.fit_s": s("rates.fit_power_law"),
        "rates.samples": c("rates.sample_rates", "samples"),
        "rates.n_failed": c("rates.sample_rates", "n_failed"),
        "maps.unique_energy_frac": c("maps.ell_map_direct", "unique") / max(direct_nodes, 1),
        "maps.ell_map_direct_s": s("maps.ell_map_direct"),
        "maps.ell_map_table_s": s("maps.ell_map_table"),
        "maps.write_grid_csv_s": s("maps.write_grid_csv"),
        "maps.read_grid_csv_s": s("maps.read_grid_csv"),
        "maps.csv_bytes": c("maps.write_grid_csv", "bytes"),
        "maps.write_pgm_s": s("maps.write_pgm"),
        "maps.b_map_s": s("maps.b_map"),
        "temporal.temporal_ld_s": s("temporal.temporal_ld"),
        "temporal.ode_steps": c("kernels.dp45", "steps"),
        "cli.overhead_s": sum(x["end"] - x["start"] - x["counts"].get("library_s", 0.0)
                              for x in cli_spans),
    }
