"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line (collected in the terminal summary).
Tolerances here are pinned; loosening one is a release decision, not a
test fix.
"""

import numpy as np

from floerlab.charts import rotation_field_chart, shear_chart
from floerlab.cli import main
from floerlab.floer_function import (
    quadratic_hamiltonian,
    richardson_directional,
    richardson_second,
    symplectic_action,
)
from floerlab.floer_map import apply, invert, leibniz_check
from floerlab.loop_atlas import (
    check_compatibility,
    check_transitivity,
    loops_in_chart,
    rotated_sphere_atlas,
    sphere_small_loop_atlas,
    transition,
)
from floerlab.pullback import kappa_bound_check, pull_back, riesz_correction
from floerlab.scale_operator import (
    check_interpolation,
    fredholm_diagnostic,
    identity_operator,
    weighted_singular_values,
)
from floerlab.scale_space import inner, random_loop
from floerlab.sobolev_evidence import (
    SIGNATURES,
    holder_embedding_check,
    mult_norm_sweep,
    mult_operator,
    rough_factor,
    smooth_factor,
)

HOPM = {"restarts": 1, "iters": 80}


def _quadratic_pullback():
    F = symplectic_action(quadratic_hamiltonian())
    phi = shear_chart()
    return F, phi, pull_back(F, phi)


def test_criterion_01_pullback_gradient_oracle(criterion):
    N = 128
    _, _, Ft = _quadratic_pullback()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        q = random_loop(rng, 2, N, amplitude=0.4)
        xi = random_loop(rng, 2, N, amplitude=0.4)
        fd = richardson_directional(Ft.value, q, xi)
        lin = inner(Ft.gradient(q), xi, 0.0)
        worst = max(worst, abs(fd - lin) / max(abs(fd), 1e-12))
    assert criterion(
        1, worst <= 1e-7, f"pulled-back gradient vs central differences, rel {worst:.2e} <= 1e-07"
    )


def test_criterion_02_pullback_hessian_oracle(criterion):
    N = 128
    _, _, Ft = _quadratic_pullback()
    rng = np.random.default_rng(2027)
    worst_fd, worst_sym = 0.0, 0.0
    for _ in range(25):
        q = random_loop(rng, 2, N, amplitude=0.4)
        A = Ft.hessian(q)
        for _ in range(4):
            xi = random_loop(rng, 2, N, amplitude=0.4)
            eta = random_loop(rng, 2, N, amplitude=0.4)
            quad = inner(A.apply(xi), eta, 0.0)
            fd = richardson_second(Ft.value, q, xi, eta)
            worst_fd = max(worst_fd, abs(quad - fd) / max(abs(fd), 1e-12))
            flipped = inner(A.apply(eta), xi, 0.0)
            worst_sym = max(worst_sym, abs(quad - flipped) / max(abs(quad), 1e-12))
    ok = worst_fd <= 1e-6 and worst_sym <= 1e-10
    assert criterion(
        2,
        ok,
        f"Hessian stencil rel {worst_fd:.2e} <= 1e-06, symmetry rel {worst_sym:.2e} <= 1e-10",
    )


def test_criterion_03_riesz_correction(criterion):
    F, phi, _ = _quadratic_pullback()
    rng = np.random.default_rng(2028)
    q = random_loop(rng, 2, 64, amplitude=0.4)
    K = riesz_correction(F, phi, q)
    from floerlab.floer_map import d2phi

    g = F.gradient(apply(phi, q))
    B = d2phi(phi, q)
    worst = 0.0
    for _ in range(20):
        xi = random_loop(rng, 2, 64, amplitude=0.5)
        eta = random_loop(rng, 2, 64, amplitude=0.5)
        lhs = inner(K.apply(xi), eta, 0.0)
        rhs = B.trilinear(xi, eta, g)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))

    budget_ok = True
    for s in (0.6, 0.75, 0.9):
        for N in (32, 64, 128, 256):
            row = kappa_bound_check(F, phi, q.resize(N), s, hopm=HOPM)
            budget_ok = budget_ok and row["passed"]
    ok = worst <= 1e-10 and budget_ok
    assert criterion(
        3,
        ok,
        f"pairing identity rel {worst:.2e} <= 1e-10, kappa budget "
        f"{'held' if budget_ok else 'violated'} over N in 32..256, s in 0.6/0.75/0.9",
    )


def test_criterion_04_fredholm_index_zero(criterion):
    sweep = (16, 32, 64, 128, 256)

    def hessian(M):
        F = symplectic_action(quadratic_hamiltonian())
        q = random_loop(np.random.default_rng(2029), 2, M, amplitude=0.4)
        return F.hessian(q)

    family = {M: hessian(M) for M in sweep}
    dims_ok, gaps_ok = True, True
    for a, b in ((1.0, 0.0), (2.0, 1.0)):
        rep = fredholm_diagnostic(family, a, b)
        dims_ok = dims_ok and all(e["ker_dim"] == e["coker_dim"] for e in rep["sweep"])
        by_N = {e["N"]: e["gap"] for e in rep["sweep"]}
        gaps_ok = gaps_ok and abs(by_N[256] - by_N[64]) / by_N[64] <= 0.02

    sig32 = weighted_singular_values(identity_operator(32, 2), 1.0, 0.0)[-1]
    sig256 = weighted_singular_values(identity_operator(256, 2), 1.0, 0.0)[-1]
    control_ok = sig32 >= 4.0 * sig256
    ok = dims_ok and gaps_ok and control_ok
    assert criterion(
        4,
        ok,
        f"ker=coker at both level pairs, gap drift 64->256 <= 2%, "
        f"inclusion sigma_min drop {sig32 / sig256:.1f}x >= 4x",
    )


def test_criterion_05_stein_weiss(criterion):
    rng = np.random.default_rng(2030)
    worst_slack = -np.inf  # the largest norm_s - bound seen; a pass reads it below 0
    ok = True
    for _ in range(50):
        g = random_loop(rng, 1, 64, top_mode=5, amplitude=1.0)
        T = mult_operator(g)
        for rep in check_interpolation(T, (0.25, 0.5, 0.75), tol=1e-10):
            ok = ok and rep["passed"]
            worst_slack = max(worst_slack, rep["norm_s"] - rep["bound"])
    assert criterion(
        5, ok, f"50 smooth factors interpolate at s=0.25/0.5/0.75, worst slack {worst_slack:.2e}"
    )


def test_criterion_06_multiplication_signatures(criterion):
    stable = True
    for label in sorted(SIGNATURES):
        rep = mult_norm_sweep(smooth_factor(16), label)
        stable = stable and rep["verdict"] == "bounded"
    rough = mult_norm_sweep(rough_factor, "(1,1->1)")
    norms = [e["norm"] for e in rough["sweep"]]
    growth = norms[-1] / norms[0]
    ok = stable and rough["verdict"] == "unbounded" and growth >= 2.0
    assert criterion(
        6,
        ok,
        f"four signature norms stable within 5% from N=64, rough control grew {growth:.1f}x >= 2x",
    )


def test_criterion_07_leibniz_slope(criterion):
    shear = shear_chart()
    rot = rotation_field_chart(0.5)
    rng = np.random.default_rng(2031)
    loops = [random_loop(rng, 2, 16, amplitude=0.3) for _ in range(3)]
    slopes = []
    for outer, inner_map in ((shear, rot), (rot, shear)):
        rep = leibniz_check(outer, inner_map, *loops, steps=(1e-2, 3e-3, 1e-3))
        slopes.append(rep["slope"])
    ok = all(abs(sl - 2.0) <= 0.2 for sl in slopes)
    assert criterion(
        7,
        ok,
        "composite derivative remainder slopes "
        + "/".join(f"{sl:.2f}" for sl in slopes)
        + " within 2.0 +- 0.2",
    )


def test_criterion_08_holder_embedding(criterion):
    stable = all(holder_embedding_check(s)["verdict"] == "stable" for s in (0.6, 0.75, 0.9))
    endpoint = holder_embedding_check(0.5)
    ratios = [e["ratio"] for e in endpoint["sweep"]]
    growing = endpoint["verdict"] == "growing" and all(
        b > a for a, b in zip(ratios, ratios[1:])
    )
    ok = stable and growing
    assert criterion(
        8,
        ok,
        "seminorm ratios stable within 10% at s=0.6/0.75/0.9, endpoint s=0.5 grows monotonically",
    )


def test_criterion_09_atlas(criterion):
    compat_ok = True
    for s in (0.6, 0.75, 0.9):
        atlas = sphere_small_loop_atlas(s=s)
        rep = check_compatibility(atlas, atlas, hopm=HOPM)
        compat_ok = compat_ok and rep["verdict"] == "pass"

    atlas = sphere_small_loop_atlas()
    phi = transition(atlas, "north", "south", N=32)
    back = invert(phi)
    north, south = atlas.charts
    cocycle = 0.0
    for u in loops_in_chart(atlas.corpus, north, 32, also_in=(south,)):
        cocycle = max(cocycle, (apply(back, apply(phi, u)) - u).norm(1.0))

    tri = check_transitivity(
        atlas,
        rotated_sphere_atlas(0.3),
        rotated_sphere_atlas(-0.25, axis=1, seed=13),
    )
    tri_ok = tri["verdict"] == "pass" and tri["pieces_agree"]
    ok = compat_ok and cocycle <= 1e-10 and tri_ok
    assert criterion(
        9,
        ok,
        f"transitions pass all four axioms at three levels, cocycle {cocycle:.2e} <= 1e-10, "
        f"transitivity {'consistent' if tri_ok else 'inconsistent'}",
    )


def test_criterion_10_determinism(criterion, tmp_path):
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    code1 = main(["verify", "--out", str(out1)])
    code2 = main(["verify", "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    assert criterion(
        10,
        ok,
        f"two verify runs exit {code1}/{code2} and reports are "
        + ("byte-identical" if identical else "different"),
    )
