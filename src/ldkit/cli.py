"""Command-line front end.

Subcommands (each subparser's ``set_defaults(run=...)`` names its
``_cmd_*`` function): landscape, map, bmap, temporal, rates, models. Exit
codes: 0 success, 1 usage error, 2 numeric failure (unconverged quadrature,
or an ell map node masked by it or by a domain error, without --best-effort).
Identical argument vectors produce byte-identical output files. Maps,
landscapes, rate ladders and lines are batched runs in one thread; ``map
--table-mode`` and ``--threads`` are accepted for compatibility and ignored.
"""

import argparse
import json
import os
import re
import sys

import numpy as np

from . import maps
from .errors import LdkitError
from .geometric import landscape
from .models import Truncation, get_model, MODEL_NAMES
from .quadrature import QuadratureConfig
from .rates import rate_report
from .temporal import IntegratorConfig, LineSpec, ld_landscape_line


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors and accepts negative
    numbers with decorations like '-2.5,-1' as option values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="ldkit",
                     description="Arc-length Lagrangian-descriptor toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_model_opts(p, trunc=True):
        p.add_argument("--model", required=True, choices=MODEL_NAMES)
        if trunc:
            p.add_argument("--trunc", type=float, default=None,
                           help="lower coordinate cut for unbounded models")
        p.add_argument("--bounded-librations", action="store_true",
                       help="fishtail: restrict to bounded oscillations (q >= -4)")

    def add_quad_opts(p):
        p.add_argument("--quad-rel-tol", type=float, default=1e-10)
        p.add_argument("--quad-abs-tol", type=float, default=1e-12)
        p.add_argument("--quad-max-levels", type=int, default=12,
                       help="bisection depth allowed below a seed panel (>= 4)")
        p.add_argument("--best-effort", action="store_true",
                       help="keep going on unconverged quadrature")

    p = sub.add_parser("landscape", help="ell(E) samples over an energy range")
    add_model_opts(p)
    add_quad_opts(p)
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--derivs", action="store_true", help="add a dell_dE column")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_landscape)

    p = sub.add_parser("map", help="grid map of ell, energy, or temporal LD")
    add_model_opts(p)
    add_quad_opts(p)
    p.add_argument("--bounds", required=True, metavar="QLO,QHI,PLO,PHI")
    p.add_argument("--grid", required=True, metavar="NQxNP")
    p.add_argument("--quantity", choices=("ell", "energy", "temporal"),
                   default="ell")
    p.add_argument("--t", type=float, default=20.0,
                   help="horizon for temporal maps")
    p.add_argument("--table-mode", action="store_true",
                   help="accepted and ignored: every ell map is one path")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored: every map is one batched "
                        "run in one thread")
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", default=None, help="optional 16-bit PGM preview")
    p.set_defaults(run=_cmd_map)

    p = sub.add_parser("bmap", help="gradient-norm map from a written ell grid")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", default=None)
    p.set_defaults(run=_cmd_bmap)

    p = sub.add_parser("temporal", help="temporal LD along a coordinate line")
    add_model_opts(p, trunc=False)
    p.add_argument("--t", type=float, default=20.0)
    p.add_argument("--line", required=True,
                   metavar="fixed=q|p:VALUE,range=LO:HI:N")
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--abs-tol", type=float, default=1e-12)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_temporal)

    p = sub.add_parser("rates", help="power-law fits of |d ell/dE| divergence")
    add_model_opts(p)
    p.add_argument("--critical", choices=("separatrix", "elliptic"), default=None)
    p.add_argument("--side", choices=("below", "above", "both"), default="both")
    p.add_argument("--out", default=None, help="JSON output path (default stdout)")
    p.set_defaults(run=_cmd_rates)

    sub.add_parser("models", help="list built-in models").set_defaults(run=_cmd_models)
    return parser


def _parse_line(text):
    m = re.fullmatch(r"fixed=([qp]):([^,]+),range=([^:]+):([^:]+):(\d+)", text)
    if not m:
        raise ValueError(
            f"bad --line {text!r}; expected fixed=q|p:VALUE,range=LO:HI:N"
        )
    return LineSpec(m.group(1), float(m.group(2)),
                    float(m.group(3)), float(m.group(4)), int(m.group(5)))


def _parse_bounds(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"bad --bounds {text!r}; expected QLO,QHI,PLO,PHI")
    return tuple(float(x) for x in parts)


def _parse_grid(text):
    m = re.fullmatch(r"(\d+)x(\d+)", text.lower())
    if not m:
        raise ValueError(f"bad --grid {text!r}; expected NQxNP")
    return int(m.group(1)), int(m.group(2))


def _get_model(args):
    if not args.bounded_librations:
        return get_model(args.model)
    if args.model != "fishtail":
        raise ValueError(f"--bounded-librations applies only to fishtail, not {args.model}")
    return get_model(args.model, bounded_librations=True)


def _trunc(args):
    t = getattr(args, "trunc", None)
    return None if t is None else Truncation(t)


def _quad_cfg(args):
    return QuadratureConfig(rel_tol=args.quad_rel_tol, abs_tol=args.quad_abs_tol,
                            max_levels=args.quad_max_levels)


def run(argv):
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 1

    try:
        return args.run(args)
    except (LdkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_models(args):
    print(f"{'model':22s} {'e_min':>10s} {'e_sx':>8s} {'mult':>5s} {'bounded':>8s}")
    for name in MODEL_NAMES:
        m = get_model(name)
        e_min, e_sx = m.critical_energies()
        print(f"{name:22s} {e_min:10.4g} {e_sx:8.4g} {m.multiplier:5d} "
              f"{str(m.bounded):>8s}")
    return 0


def _cmd_landscape(args):
    model = _get_model(args)
    ls = landscape(model, args.emin, args.emax, args.n, trunc=_trunc(args),
                   with_derivs=args.derivs, cfg=_quad_cfg(args))
    if not args.best_effort and not bool(ls.converged.all()):
        bad = int(np.count_nonzero(~ls.converged))
        print(f"error: quadrature did not converge at {bad} sample(s); "
              f"rerun with --best-effort to keep estimates", file=sys.stderr)
        return 2
    maps.write_landscape_csv(ls, args.out)
    return 0


def _cmd_map(args):
    model = _get_model(args)
    qlo, qhi, plo, phi = _parse_bounds(args.bounds)
    nq, npts = _parse_grid(args.grid)
    spec = maps.GridSpec(qlo, qhi, plo, phi, nq, npts)
    if args.quantity == "energy":
        grid = maps.energy_map(model, spec)
    elif args.quantity == "temporal":
        grid = maps.temporal_map(model, spec, args.t)
    else:
        grid = maps.ell_map(model, spec, trunc=_trunc(args), cfg=_quad_cfg(args),
                            table=args.table_mode, threads=args.threads)
        if not args.best_effort and not bool(grid.mask.all()):
            bad = int(np.count_nonzero(~grid.mask))
            print(f"error: {bad} node(s) failed; rerun with --best-effort "
                  f"to write the masked grid", file=sys.stderr)
            return 2
    return _write_grid(grid, args)


def _cmd_bmap(args):
    return _write_grid(maps.b_map(maps.read_grid_csv(args.infile, quantity="ell")), args)


def _write_grid(grid, args):
    """The grid CSV, then the optional PGM; a failed PGM removes the CSV."""
    maps.write_grid_csv(grid, args.out)
    if args.pgm:
        try:
            maps.write_pgm(grid, args.pgm)
        except OSError:
            os.remove(args.out)
            raise
    return 0


def _cmd_temporal(args):
    model = _get_model(args)
    line = _parse_line(args.line)
    cfg = IntegratorConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    res = ld_landscape_line(model, line, args.t, cfg=cfg)
    varying = "p" if line.fixed == "q" else "q"
    cols = (res.coords, res.total, res.plus, res.minus, res.status)
    with open(args.out, "w", newline="\n") as fh:
        fh.write(f"{varying},ld,ld_plus,ld_minus,flag\n")
        fh.write("".join("%.17g,%.17g,%.17g,%.17g,%d\n" % r
                         for r in zip(*(c.tolist() for c in cols))))
    return 0


def _cmd_rates(args):
    model = _get_model(args)
    report = rate_report(model, trunc=_trunc(args))
    fits = [f for f in report["fits"]
            if args.critical in (None, f["critical"]) and args.side in ("both", f["side"])]
    if not fits:
        have = ", ".join(f"{f['critical']} {f['side']}" for f in report["fits"])
        side = "" if args.side == "both" else f" from {args.side}"
        raise ValueError(f"{model.name} has no {args.critical or 'critical'} approach"
                         f"{side} (its approaches: {have})")
    report["fits"] = fits
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
