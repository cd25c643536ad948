#!/usr/bin/env python3
"""Regenerate the deep-energy ell(E) references, each to 40 digits:

* ``ell_deep_separatrix.json``: E = +-1e-10, 1e-12, 1e-14, 1e-16 around the
  separatrix of the pendulum, the Duffing oscillator and the fish-tail cut
  at q = -5;
* ``ell_deep_minimum.json``: E = E_min + 1e-8, 1e-10, 1e-12, 1e-14 above
  the elliptic minimum of the pendulum and of the fish-tail cut at q = -5
  (there the branch ends left of the cut, so the value is the oval's
  length, which the bounded fish-tail shares).

    python3 tests/data/make_deep_refs.py

Values come from ``ldbench/make_refs.py``'s ``ell_reference`` (mpmath at 60
digits, turning points from mpmath, integrated in the cosine variable); its
two breakpoint sets must agree to 1e-35 relative.
"""

import json
import pathlib
import sys

import mpmath as mp

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "ldbench"))
import make_refs  # noqa: E402

# (file, cases as (model, trunc, E_c), energies as offsets from E_c)
OUTPUTS = (
    ("ell_deep_separatrix.json",
     (("pendulum", None, 0.0), ("duffing", None, 0.0), ("fishtail", -5.0, 0.0)),
     [s * eps for eps in (1e-10, 1e-12, 1e-14, 1e-16) for s in (-1, 1)]),
    ("ell_deep_minimum.json",
     (("pendulum", None, -2.0), ("fishtail", -5.0, -32.0)),
     [1e-8, 1e-10, 1e-12, 1e-14]),
)


def entries(cases, offsets):
    out = []
    for name, trunc, e_c in cases:
        for d in offsets:
            E = e_c + d
            a, b = make_refs.ell_reference(name, E)
            if abs(a - b) > abs(a) * mp.mpf(10) ** -35:
                raise RuntimeError(f"{name} E={E!r}: breakpoint sets disagree")
            out.append({"model": name, "trunc": trunc, "E": E,
                        "ell": mp.nstr(a, 40, strip_zeros=False)})
            print(name, E, out[-1]["ell"], flush=True)
    return out


def main():
    mp.mp.dps = make_refs.DPS
    for filename, cases, offsets in OUTPUTS:
        out = {"generator": "tests/data/make_deep_refs.py",
               "entries": entries(cases, offsets)}
        (HERE / filename).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
