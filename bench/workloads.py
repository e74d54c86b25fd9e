"""Workloads of the crepant benchmark: operations, seeded samples, output checks.

Four workloads cover the two user paths and the Mellin-Barnes cross-check:

  exact-rational   ex2-Y (K_F3) at bound 8, geometry -> invariant table.
                   44 of its 45 I-function coefficients carry linear
                   z-denominators, so RatAZ.expand, extract_mirror and the
                   exp(-E/z) multiply in j_function dominate.
  exact-laurent    the other seven built-in sides at bound 12, same path,
                   plus slice_invariants_ex2 where a side has exactly one
                   twisted direction.  No coefficient has a denominator, so
                   a denominator optimisation should leave it unchanged.
  numeric-umatrix  solve_umatrix for ex1-ex4 in both modes at 30 digits.
  numeric-mb       mellin_barnes_integral at 15 digits: ex1 outside the
                   wall, ex4 inside it, and ex2, which fails at once with
                   a known defect (see KNOWN_DEFECT).

The seed chooses only the numeric samples: lambda, and the real positive MB
q magnitudes.  Their bands keep every MB pole at least 0.05 from the contour
Re s = 1/2 (left poles sit at Re (lambda - n)/3 for ex1 and Re lambda - n/2
for ex4).  Seed 0 is the canonical sample, at which the MB values are also
compared with stored references.  The exact workloads have no random input.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from mpmath import mp

from crepant import (BUILTIN_NAMES, build_ifunction, builtin,
                     enumerate_degrees, extract_mirror, format_lambda_rat,
                     invert_mirror, j_function, one_point_invariants,
                     slice_invariants_ex2)
from crepant.continuation import (MBResult, UMatrix, continued_ifunction,
                                  mellin_barnes_integral, solve_connection,
                                  solve_umatrix, xside_terms)

from layers import NO_TRACE

REFERENCE_PATH = Path(__file__).with_name("reference.json")

UMATRIX_DIGITS = 30
UMATRIX_RESIDUAL_BOUND = mp.mpf("1e-25")
UMATRIX_ENTRY_TOL = mp.mpf("1e-20")
# solve_connection's default Laurent window in nonequivariant mode
SOLVE_KWIN = 4

MB_DIGITS = 15
MB_TOL = "1e-12"
# ex2's kernel needs exp of p2, which is not nilpotent at numeric lambda
KNOWN_DEFECT = "exponential of a non-nilpotent element"

LAMBDA_BAND = ((0.66, 0.80), (0.25, 0.37))
# (example, side the point lies on, q band, canonical q of seed 0)
MB_POINTS = (
    ("ex1", "outside", (0.05, 0.08), "0.06"),
    ("ex4", "inside", (0.10, 0.15), "0.12"),
    ("ex2", "inside", (0.015, 0.03), "0.02"),
)

WORKLOADS = ("exact-rational", "exact-laurent", "numeric-umatrix",
             "numeric-mb")


@dataclass(frozen=True)
class Samples:
    lam: str
    q: dict


def samples(seed: int) -> Samples:
    """Numeric inputs drawn from the seed; seed 0 is the canonical point."""
    if seed == 0:
        return Samples("0.7+0.31j", {ex: q for ex, _, _, q in MB_POINTS})
    rng = random.Random(seed)
    (re_lo, re_hi), (im_lo, im_hi) = LAMBDA_BAND
    lam = f"{rng.uniform(re_lo, re_hi):.6f}+{rng.uniform(im_lo, im_hi):.6f}j"
    q = {ex: f"{rng.uniform(lo, hi):.6f}" for ex, _, (lo, hi), _ in MB_POINTS}
    return Samples(lam, q)


def mp_complex(text: str):
    """mpc from the "re+imj" form samples() writes."""
    re_part, im_part = text.rstrip("j").split("+")
    return mp.mpc(mp.mpf(re_part), mp.mpf(im_part))


@dataclass
class Op:
    """One checked operation.

    run(tracer) performs it (tracer is NO_TRACE when tracing is off);
    check(result) returns a list of problems, empty when the output is
    right; fingerprint(result) is a string that a traced and an untraced
    run of the same operation must share.  known_defect, when set, is the
    message of an expected error: the operation is still attempted, and the
    error is counted apart from failures.
    """

    name: str
    run: Callable
    check: Callable
    fingerprint: Callable
    known_defect: Optional[str] = None


# ---------------------------------------------------------------------------
# exact path: geometry + bound -> invariant table


@dataclass
class ExactResult:
    ifn: object
    jfun: object
    table: object
    slice_table: object


def degree2_labels(side: str) -> tuple:
    alg = builtin(side).algebra
    return tuple(lab for lab, deg in zip(alg.labels, alg.degrees) if deg == 2)


def run_exact(side: str, bound: int, tr) -> ExactResult:
    geom = builtin(side)
    with tr.span("build_ifunction"):
        ifn = build_ifunction(geom, bound)
    with tr.span("extract_mirror"):
        data = extract_mirror(ifn)
    with tr.span("invert_mirror"):
        inverse = invert_mirror(data)
    with tr.span("j_function"):
        jfun = j_function(ifn, data, inverse)
    with tr.span("one_point_invariants"):
        table = one_point_invariants(jfun, degree2_labels(side))
    slice_table = None
    if len(data.twisted) == 1:
        with tr.span("slice_invariants_ex2"):
            slice_table = slice_invariants_ex2(jfun)
    if tr.enabled:
        dens = [len(c.den) for c in ifn.coeffs.values()]
        tr.count("geometry.lattice_points",
                 len(enumerate_degrees(geom.lattice(bound))))
        tr.count("ifunction.coeffs", len(dens))
        tr.count("ifunction.den_coeffs", sum(1 for n in dens if n))
        tr.count("ifunction.den_factors", sum(dens))
        tr.count("mirror.j_entries",
                 sum(len(slot) for slot in jfun.layers.values()))
        tr.count("mirror.table_rows", len(table.rows) + (
            0 if slice_table is None else len(slice_table.rows)))
    return ExactResult(ifn, jfun, table, slice_table)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def layers_digest(jfun) -> str:
    """Digest of a canonical serialization of JFunction.layers."""
    rows = [[zexp, list(key), [format_lambda_rat(c) for c in elem.coeffs]]
            for zexp, slot in jfun.layers.items()
            for key, elem in slot.items()]
    rows.sort(key=lambda r: (r[0], r[1]))
    return _sha(json.dumps(rows, ensure_ascii=False))


def exact_digests(res: ExactResult) -> dict:
    return {
        "j_layers": layers_digest(res.jfun),
        "table": _sha(res.table.to_json()),
        "slice": None if res.slice_table is None
        else _sha(res.slice_table.to_json()),
    }


def exact_op(side: str, bound: int, ref: dict) -> Op:
    name = f"{side}@{bound}"

    def check(res):
        want = ref["exact"].get(name)
        if want is None:
            return ["no reference digests"]
        got = exact_digests(res)
        return [f"{k} digest {got[k]} != reference {want[k]}"
                for k in sorted(want) if got[k] != want[k]]

    return Op(name, lambda tr: run_exact(side, bound, tr), check,
              lambda res: json.dumps(exact_digests(res), sort_keys=True))


# ---------------------------------------------------------------------------
# numeric path: pair -> U-matrix


def _equation_count(xterms: dict, yterms: dict, mode: str) -> int:
    """Rows of the system solve_connection sets up for these terms."""
    keys = set(xterms) | set(yterms)
    if mode == "equivariant-numeric":
        return len(keys)
    total = 0
    for key in keys:
        layers = set(yterms[key].support()) if key in yterms else set()
        if key in xterms:
            for ze in xterms[key].support():
                layers.update(ze + k for k in range(-SOLVE_KWIN,
                                                    SOLVE_KWIN + 1))
        total += len(layers)
    return total


def run_umatrix(ex: str, mode: str, lam, tr) -> UMatrix:
    lam = lam if mode == "equivariant-numeric" else None
    if not tr.enabled:
        return solve_umatrix(ex, mode=mode, lam=lam, digits=UMATRIX_DIGITS)
    # the stages of solve_umatrix, called in its order, one span each
    g_x = builtin(ex + "-X")
    g_y = builtin(ex + "-Y")
    trunc = g_x.algebra.dim + 2
    with tr.span("continued_ifunction"):
        cs = continued_ifunction(ex, trunc, mode=mode, lam=lam,
                                 digits=UMATRIX_DIGITS)
    with tr.span("xside_terms"):
        xt, na_x, scal = xside_terms(ex, trunc, mode=mode, lam=lam,
                                     digits=UMATRIX_DIGITS)
    if scal != cs.scalar_exponents:
        raise ValueError(f"{ex}: scalar prefactors of the two sides differ")
    with tr.span("solve_connection"):
        entries, residual = solve_connection(xt, cs.terms, na_x, cs.na, mode,
                                             digits=UMATRIX_DIGITS)
    tr.count("geometry.lattice_points",
             len(enumerate_degrees(g_x.lattice(trunc))))
    tr.count("continuation.solve_equations",
             _equation_count(xt, cs.terms, mode))
    return UMatrix(example=ex, mode=mode, lam=cs.lam, z=cs.z,
                   digits=UMATRIX_DIGITS, truncation=trunc,
                   xlabels=g_x.algebra.labels, ylabels=g_y.algebra.labels,
                   entries=entries, residual=residual)


def umatrix_cells(u: UMatrix) -> list:
    """Entries as [[[[z exponent, re, im], ...] per column] per row]."""
    return [[[[k, mp.nstr(mp.re(c), 25), mp.nstr(mp.im(c), 25)]
              for k, c in sorted(cell)] for cell in row]
            for row in u.entries]


def umatrix_op(ex: str, mode: str, lam, ref: dict) -> Op:
    name = f"{ex}/{mode}"

    def check(u):
        problems = []
        if not u.residual <= UMATRIX_RESIDUAL_BOUND:
            problems.append(f"residual {mp.nstr(u.residual, 5)} "
                            f"above {mp.nstr(UMATRIX_RESIDUAL_BOUND, 3)}")
        if mode == "nonequivariant":
            with mp.workdps(UMATRIX_DIGITS + 10):
                problems += _compare_cells(u, ref["umatrix"][ex])
        return problems

    return Op(name, lambda tr: run_umatrix(ex, mode, lam, tr), check,
              lambda u: u.to_json())


def _compare_cells(u: UMatrix, want: list) -> list:
    problems = []
    for i, row in enumerate(want):
        for j, cell in enumerate(row):
            got = dict(u.entries[i][j])
            exps = sorted(k for k, _, _ in cell)
            if sorted(got) != exps:
                problems.append(f"U[{i}][{j}] z-exponents "
                                f"{sorted(got)} != {exps}")
                continue
            for k, re_s, im_s in cell:
                diff = abs(got[k] - mp.mpc(mp.mpf(re_s), mp.mpf(im_s)))
                if diff > UMATRIX_ENTRY_TOL:
                    problems.append(f"U[{i}][{j}] z^{k} off the "
                                    f"reference by {mp.nstr(diff, 3)}")
    return problems


# ---------------------------------------------------------------------------
# Mellin-Barnes cross-check


def run_mb(ex: str, q: str, lam, tr):
    with tr.span("mellin_barnes_integral"):
        res = mellin_barnes_integral(ex, mp.mpf(q), lam=lam, digits=MB_DIGITS,
                                     tol=MB_TOL)
    tr.count("continuation.mb_height", int(res.height))
    tr.count("continuation.mb_corrections", res.corrections)
    return res


def mb_terms(res) -> dict:
    return {f"{i},{ze}": [mp.nstr(mp.re(v), 30), mp.nstr(mp.im(v), 30)]
            for (i, ze), v in sorted(res.value.terms.items())}


def mb_op(ex: str, side: str, q: str, lam, seed: int, ref: dict) -> Op:
    name = f"{ex}@q={q}"

    def check(res):
        problems = []
        if res.side != side:
            problems.append(f"side {res.side}, expected {side}")
        if not res.error <= mp.mpf(MB_TOL):
            problems.append(f"error budget {mp.nstr(res.error, 3)} "
                            f"above tol {MB_TOL}")
        want = ref["mb_seed0"].get(ex) if seed == 0 else None
        if want is not None:
            terms = {f"{i},{ze}": v for (i, ze), v in res.value.terms.items()}
            for comp in sorted(set(terms) | set(want)):
                re_s, im_s = want.get(comp, ("0", "0"))
                with mp.workdps(MB_DIGITS + 10):
                    diff = abs(terms.get(comp, 0)
                               - mp.mpc(mp.mpf(re_s), mp.mpf(im_s)))
                if diff > res.error:
                    problems.append(f"component {comp} off the "
                                    f"reference by {mp.nstr(diff, 3)}, "
                                    f"error budget {mp.nstr(res.error, 3)}")
        return problems

    return Op(name, lambda tr: run_mb(ex, q, lam, tr), check,
              lambda res: json.dumps(mb_terms(res), sort_keys=True),
              known_defect=KNOWN_DEFECT if ex == "ex2" else None)


# ---------------------------------------------------------------------------
# workloads


LAURENT_SIDES = tuple(n for n in BUILTIN_NAMES if n != "ex2-Y")
EXAMPLES = ("ex1", "ex2", "ex3", "ex4")
UMATRIX_MODES = ("nonequivariant", "equivariant-numeric")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def operations(workload: str, seed: int, ref: dict) -> list:
    smp = samples(seed)
    lam = mp_complex(smp.lam)
    if workload == "exact-rational":
        return [exact_op("ex2-Y", 8, ref)]
    if workload == "exact-laurent":
        return [exact_op(side, 12, ref) for side in LAURENT_SIDES]
    if workload == "numeric-umatrix":
        return [umatrix_op(ex, mode, lam, ref)
                for mode in UMATRIX_MODES for ex in EXAMPLES]
    if workload == "numeric-mb":
        return [mb_op(ex, side, smp.q[ex], lam, seed, ref)
                for ex, side, _, _ in MB_POINTS]
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str, seed: int) -> None:
    """One cheap untimed operation that fills the caches a pass relies on.

    builtin() caches the validated geometries; the continuation layer caches
    numeric algebras per (algebra, lambda, digits), and mpmath its constants
    per precision.
    """
    for name in BUILTIN_NAMES:
        builtin(name)
    lam = mp_complex(samples(seed).lam)
    if workload == "exact-rational":
        run_exact("ex2-Y", 2, NO_TRACE)
    elif workload == "exact-laurent":
        run_exact("ex1-X", 4, NO_TRACE)
    elif workload == "numeric-umatrix":
        for mode in UMATRIX_MODES:
            run_umatrix("ex1", mode, lam, NO_TRACE)
    elif workload == "numeric-mb":
        for ex, _, _, _ in MB_POINTS:
            continued_ifunction(ex, 1, lam=lam, digits=MB_DIGITS)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def operand_ifunctions(workload: str, results: dict) -> list:
    """I-functions whose coefficients feed the layer microbenchmarks."""
    if workload.startswith("exact-"):
        return [res.ifn for res in results.values()]
    if workload == "numeric-umatrix":
        # the partner-side series solve_umatrix expands
        return [build_ifunction(g, g.algebra.dim + 2)
                for g in (builtin(ex + "-X") for ex in EXAMPLES)]
    # the inside terms of the MB correction: Y-side gamma ratios at small d
    return [build_ifunction(builtin(ex + "-Y"), 2)
            for ex, _, _, _ in MB_POINTS]


def _log10(x) -> float:
    return float(mp.log10(x)) if x > 0 else float("-inf")


def quality(results: dict) -> dict:
    """Worst log10 U residual and MB error budget among the results."""
    out = {}
    residuals = [r.residual for r in results.values() if isinstance(r, UMatrix)]
    if residuals:
        out["umatrix_residual_log10"] = _log10(max(residuals))
    errors = [r.error for r in results.values() if isinstance(r, MBResult)]
    if errors:
        out["mb_error_log10"] = _log10(max(errors))
    return out
