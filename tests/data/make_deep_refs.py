#!/usr/bin/env python3
"""Regenerate ``ell_deep_separatrix.json``: ell(E) to 40 digits at
E = +-1e-10, 1e-12, 1e-14, 1e-16 around the separatrix of the pendulum, the
Duffing oscillator and the fish-tail cut at q = -5.

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

CASES = (("pendulum", None), ("duffing", None), ("fishtail", -5.0))
EPS = (1e-10, 1e-12, 1e-14, 1e-16)


def main():
    mp.mp.dps = make_refs.DPS
    entries = []
    for name, trunc in CASES:
        for eps in EPS:
            for E in (-eps, eps):
                a, b = make_refs.ell_reference(name, E)
                if abs(a - b) > abs(a) * mp.mpf(10) ** -35:
                    raise RuntimeError(f"{name} E={E!r}: breakpoint sets disagree")
                entries.append({"model": name, "trunc": trunc, "E": E,
                                "ell": mp.nstr(a, 40, strip_zeros=False)})
                print(name, E, entries[-1]["ell"], flush=True)
    out = {"generator": "tests/data/make_deep_refs.py", "entries": entries}
    (HERE / "ell_deep_separatrix.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
