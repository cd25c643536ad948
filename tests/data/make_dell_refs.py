#!/usr/bin/env python3
"""Regenerate ``dell_mpmath.json``: d ell/dE at 50 digits of working precision
for the pendulum, the Duffing oscillator and the fish-tail cut at q = -5,
below and above the separatrix energy and above the elliptic minimum, at
eps = 1e-2, 1e-4, 1e-6 and 1e-8.

    python3 tests/data/make_dell_refs.py      # about a minute

Each value is the central difference (ell(E + d) - ell(E - d)) / (2 d) with
d = 1e-18 max(|E|, 1e-8) of ``ldbench/make_refs.py``'s mpmath ell (turning
points from mpmath, integrated in the cosine variable), at the exact binary
double E that ldkit is given. Its truncation error is about (d / eps)^2,
1e-20 or less, far below the 1e-9 the tests ask for.
"""

import json
import pathlib
import sys

import mpmath as mp

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "ldbench"))
import make_refs  # noqa: E402

DPS = 50
CASES = (("pendulum", None, -2.0), ("duffing", None, -0.25), ("fishtail", -5.0, -32.0))
EPS = (1e-2, 1e-4, 1e-6, 1e-8)


def dell_reference(name, E):
    fn = dict((c[0], c[2]) for c in make_refs.CASES)[name]
    Em = mp.mpf(E)
    d = mp.mpf(10) ** -18 * max(abs(Em), mp.mpf(1e-8))
    ell = [make_refs.ell_pieces(*fn(Em + s * d), 1.0) for s in (1, -1)]
    return (ell[0] - ell[1]) / (2 * d)


def main():
    mp.mp.dps = DPS
    entries = []
    for name, trunc, e_min in CASES:
        for eps in EPS:
            for side, E in (("below", -eps), ("above", eps), ("elliptic", e_min + eps)):
                value = dell_reference(name, E)
                entries.append({"model": name, "trunc": trunc, "E": E, "side": side,
                                "eps": eps, "dell_dE": mp.nstr(value, 30, strip_zeros=False)})
                print(name, side, E, entries[-1]["dell_dE"], flush=True)
    out = {"generator": "tests/data/make_dell_refs.py", "working_dps": DPS,
           "entries": entries}
    (HERE / "dell_mpmath.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
