"""Write reference.json, the outputs the benchmark checks against.

Run from the repository root:

    python3 bench/make_reference.py

It records digests of the exact outputs (JFunction.layers and the invariant
tables), the nonequivariant U entries, which do not depend on lambda, and
the MB values at the canonical sample of seed 0.  The stored file was made
from the program as it stood when the benchmark was added; regenerate it
only for a change that is meant to alter outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mpmath import mp  # noqa: E402

import workloads as wl  # noqa: E402


def ex4_closed_form_problems(u) -> list:
    """ex4's U is [[1,0,0],[0,-1,0],[-pi^2/3 z^-2,0,1]]."""
    problems = []
    with mp.workdps(wl.UMATRIX_DIGITS + 10):
        want = [[{0: 1}, {}, {}], [{}, {0: -1}, {}],
                [{-2: -mp.pi ** 2 / 3}, {}, {0: 1}]]
        for i, row in enumerate(want):
            for j, cell in enumerate(row):
                got = dict(u.entries[i][j])
                if sorted(got) != sorted(cell) or any(
                        abs(got[k] - v) > wl.UMATRIX_ENTRY_TOL
                        for k, v in cell.items()):
                    problems.append(f"U[{i}][{j}] = {got}")
    return problems


def main() -> int:
    ref = {"exact": {}, "umatrix": {}, "mb_seed0": {}}
    for side, bound in [("ex2-Y", 8)] + [(s, 12) for s in wl.LAURENT_SIDES]:
        res = wl.run_exact(side, bound, wl.NO_TRACE)
        ref["exact"][f"{side}@{bound}"] = wl.exact_digests(res)
    for ex in wl.EXAMPLES:
        u = wl.run_umatrix(ex, "nonequivariant", None, wl.NO_TRACE)
        ref["umatrix"][ex] = wl.umatrix_cells(u)
        if ex == "ex4" and ex4_closed_form_problems(u):
            raise SystemExit("ex4 U differs from its closed form: "
                             + "; ".join(ex4_closed_form_problems(u)))
    smp = wl.samples(0)
    lam = wl.mp_complex(smp.lam)
    for ex, _, _, _ in wl.MB_POINTS:
        if ex == "ex2":
            continue  # raises the known defect
        ref["mb_seed0"][ex] = wl.mb_terms(wl.run_mb(ex, smp.q[ex], lam,
                                                    wl.NO_TRACE))
    wl.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True)
                                 + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
