#!/usr/bin/env python3
"""ldkit benchmark: end-to-end and per-layer metrics for one workload.

    python3 ldbench/run.py --workload energy-sweep --seed 1 --seconds 28 --trace 0

Run from the root of an ldkit checkout; the package is imported from its
``src/`` directory (there is nothing to build). Workloads:

* ``energy-sweep``: ``landscape`` (601 samples, derivatives) for pendulum,
  Duffing and fishtail (cut at -5), 201 samples for a custom double well,
  then ``rate_report`` for the three built-ins. Every energy is distinct.
* ``grid-pipeline``: the README pipeline through ``ldkit.cli.run``: a
  150x150 direct ``map``, a 500x500 ``map --table-mode --pgm``, and
  ``bmap --pgm`` of that CSV.
* ``temporal-map``: ``temporal_map`` 40x40 on the pendulum at t = 20 and
  ``ld_landscape_line`` (100 points) on the custom double well.

A run first passes the correctness gate (checks.py), then repeats the
workload until ``--seconds`` have elapsed (at least twice), checking every
pass's outputs and that reruns give identical bytes.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

* ``setup_s``: median of three fresh interpreters importing ldkit and
  building the workload's models;
* ``wall_ref``: one pass in units of a fixed reference loop: each stage's
  seconds over the mean of the two reference timings right before and after
  it, the median of that over passes, summed over the stages;
* ``part_a_ref`` and ``part_b_ref``: the same sum over the stages of each of
  the workload's two parts (workloads.PART), so ``wall_ref`` is their sum;
* the accuracy metrics of the gate, overall and for the models with known
  defects.

The same figures per stage kind (``<kind>_ref``) and the raw seconds
(``wall_s``, ``<kind>_s``) are printed and recorded beside them: on a
shared host the seconds drift by tens of percent between runs, the ratios
much less.

``--trace 1`` runs one pass with per-layer replays (layers.py), the fixed
probes and baseline rows, and reports the per-layer metrics. Both print
every metric before the final line, which is one JSON object; the full
record (environment, per-pass stage times, per-point accuracy, spans) goes
to ``.ldbench_out/``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "ldbench"
SRC = ROOT / "src"
OUT = ROOT / ".ldbench_out"
SETUP_RUNS = 3

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import ldkit
import workloads
workloads.build_models({workload!r})
print(repr(time.perf_counter() - t0))
"""


def import_ldkit():
    if not (SRC / "ldkit" / "__init__.py").is_file():
        sys.exit(f"ldbench: no ldkit sources in {SRC}; run from an ldkit checkout")
    sys.path.insert(0, str(SRC))
    import ldkit
    if pathlib.Path(ldkit.__file__).resolve().parent != SRC / "ldkit":
        sys.exit(f"ldbench: imported ldkit from {ldkit.__file__}, not from {SRC}")
    return ldkit


def measure_setup(workload):
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE), workload=workload)
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def git_commit():
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def environment(seed):
    import numpy
    import scipy
    import ldkit
    h = hashlib.sha256()
    for p in sorted((SRC / "ldkit").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "HAVE_NUMBA": bool(ldkit.HAVE_NUMBA), "USE_NUMBA": bool(ldkit.USE_NUMBA),
        "seed": seed, "git_commit": git_commit(), "source_sha256": h.hexdigest(),
    }


def stage_costs(stages, passes, part):
    """Per stage kind and per part, summed over their stages: the median
    over passes of each stage's seconds (``<kind>_s``), and of its cost in
    reference loops, its seconds over the mean of the two reference timings
    around it (``<kind>_ref``, ``part_<x>_ref``)."""
    out = {}
    for i, st in enumerate(stages):
        secs = statistics.median(p["stage_s"][i] for p in passes)
        refs = statistics.median(2.0 * p["stage_s"][i] / (p["ref_s"][i] + p["ref_s"][i + 1])
                                 for p in passes)
        for key, v in ((st.kind + "_s", secs), (st.kind + "_ref", refs),
                       (f"part_{part[st.kind]}_ref", refs)):
            out[key] = out.get(key, 0.0) + v
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")
    import_ldkit()
    sys.path.insert(0, str(HERE))
    import checks
    import layers
    import workloads as W

    OUT.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / run_id
    work_dir.mkdir(exist_ok=True)
    env = environment(args.seed)
    tracer = layers.Tracer(run_id) if args.trace else None
    setup_s = None if args.trace else measure_setup(args.workload)

    # correctness gate and accuracy references (seed-independent)
    gate = checks.stages(checks.gate_models(), work_dir, table=bool(tracer))
    with tracer.span("gate") if tracer else contextlib.nullcontext():
        gate_results, _ = layers.run_stages(gate, tracer, work_dir)
    problems, info = checks.evaluate(gate, gate_results)

    # the workload, repeated for the measurement window
    models = W.build_models(args.workload)
    s = W.seed_scale(args.seed)
    stages = W.stages(args.workload, models, s, work_dir)
    passes = []
    traced = None
    last = 0.0
    t_start = time.perf_counter()
    if tracer:
        with tracer.span("pass"):
            traced = layers.run_pass(stages, tracer, work_dir)
    # repeat while the next pass would end, on average, inside the window
    while len(passes) < (1 if tracer else 2) or (
            time.perf_counter() - t_start + last / 2 < args.seconds):
        t0 = time.perf_counter()
        passes.append(layers.run_pass(stages))
        last = time.perf_counter() - t0

    digests = {tuple(o.digest for o in p["outcomes"]) for p in passes + [traced] if p}
    if len(digests) != 1:
        problems.append("outputs differ between reruns of the same inputs")
    for p in passes + ([traced] if traced else []):
        for o in p["outcomes"]:
            problems += [x for x in o.problems if x not in problems]
    # every pass runs the same inputs (equal digests), so one pass's counts
    # stand for all and repeat exactly whatever the machine's speed
    attempted = sum(o.attempted for o in passes[0]["outcomes"])
    failed = sum(o.failed for o in passes[0]["outcomes"])

    walls = [sum(p["stage_s"]) for p in passes]
    costs = stage_costs(stages, passes, W.PART)
    full = {
        "setup_s": setup_s,
        "wall_ref": costs["part_a_ref"] + costs["part_b_ref"],
        "wall_s": statistics.median(walls),
        **{k: v for k, v in info.items() if isinstance(v, float)},
        **costs,
        "fail_frac": failed / max(attempted, 1),
    }
    if tracer:
        with tracer.span("probe"):
            full.update(layers.probes(tracer, work_dir))
        full.update(layers.layer_metrics(tracer))
        full["trace.overhead_frac"] = sum(traced["stage_s"]) / full["wall_s"] - 1.0

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    def unit_of(name):  # recorded figures that are not BENCHMARK metrics
        if name in units:
            return units[name]
        return name.rsplit("_", 1)[-1] if name.endswith(("_s", "_ref")) else "1"

    missing = [m["name"] for m in spec[kind] if m["name"] not in full]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    report = {
        "run": run_id, "environment": env, "passes": len(passes),
        "pass_wall_s": walls, "pass_stage_s": [p["stage_s"] for p in passes],
        "pass_ref_s": [p["ref_s"] for p in passes],
        "scale": s, "stages": [st.label for st in stages],
        "metrics": {k: {"value": v, "unit": unit_of(k),
                        "n": len(passes) if k in ("wall_ref", "wall_s", *costs) else
                        (SETUP_RUNS if k == "setup_s" else 1)}
                    for k, v in full.items() if v is not None},
        "accuracy": {k: v for k, v in info.items() if isinstance(v, (dict, list))
                     or k == "ell_unconverged"},
        "attempted": attempted, "failed": failed, "problems": problems,
    }
    if tracer:
        report["layers_by_phase"] = {
            ph: {k: {"calls": v["calls"], "s": v["s"], "self_s": v["self_s"],
                     "counts": dict(v["counts"])}
                 for k, v in tracer.totals(under=ph).items()}
            for ph in ("gate", "pass", "probe")}
        report["spans"] = tracer.spans
    (OUT / f"{run_id}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    shutil.rmtree(work_dir)  # the grids run to tens of MB per run

    print(f"# {run_id}  scale={s:.6f}  passes={len(passes)}  "
          f"{json.dumps(env, sort_keys=True)}")
    for k, m in report["metrics"].items():
        print(f"{k:36s} {m['value']:<24.10g} {m['unit']:6s} n={m['n']}")
    for k, v in report["accuracy"].items():
        if k != "ell_points":
            print(f"{k:36s} {v}")
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": full[m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
