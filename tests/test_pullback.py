"""Pulling a function through a superposition map: calculus and certificates."""

import numpy as np
import pytest

from floerlab.charts import compose_charts, rotation_field_chart, shear_chart
from floerlab.floer_function import (
    quadratic_hamiltonian,
    richardson_directional,
    richardson_second,
    symplectic_action,
)
from floerlab.floer_map import apply, d2phi, dphi
from floerlab.pullback import (
    _conjugated_term,
    _decay_slope,
    certify_pullback,
    kappa_bound_check,
    pull_back,
    pull_back_gradient,
    pull_back_hessian,
    riesz_correction,
)
from floerlab.scale_operator import adjoint, band_indices, identity_operator
from floerlab.scale_space import inner, random_loop

HOPM = {"restarts": 1, "iters": 80}


def _setup():
    return symplectic_action(quadratic_hamiltonian()), shear_chart()


def test_gradient_matches_directional_differences():
    F, phi = _setup()
    Ft = pull_back(F, phi)
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = random_loop(rng, 2, 16, amplitude=0.4)
        xi = random_loop(rng, 2, 16, amplitude=0.4)
        fd = richardson_directional(Ft.value, q, xi)
        lin = inner(Ft.gradient(q), xi, 0.0)
        assert abs(fd - lin) / max(abs(fd), 1e-12) < 1e-7


def test_hessian_matches_stencil_and_is_symmetric():
    F, phi = _setup()
    Ft = pull_back(F, phi)
    rng = np.random.default_rng(1)
    q = random_loop(rng, 2, 16, amplitude=0.4)
    A = Ft.hessian(q)
    for _ in range(4):
        xi = random_loop(rng, 2, 16, amplitude=0.4)
        eta = random_loop(rng, 2, 16, amplitude=0.4)
        quad = inner(A.apply(xi), eta, 0.0)
        fd = richardson_second(Ft.value, q, xi, eta)
        assert abs(quad - fd) / max(abs(fd), 1e-12) < 1e-6
        assert abs(quad - inner(A.apply(eta), xi, 0.0)) / max(abs(quad), 1e-12) < 1e-10


def test_correction_represents_gradient_weighted_second_derivative():
    F, phi = _setup()
    rng = np.random.default_rng(3)
    q = random_loop(rng, 2, 16, amplitude=0.4)
    K = riesz_correction(F, phi, q)
    g = F.gradient(apply(phi, q))
    B = d2phi(phi, q)
    for _ in range(10):
        xi = random_loop(rng, 2, 16, amplitude=0.5)
        eta = random_loop(rng, 2, 16, amplitude=0.5)
        lhs = inner(K.apply(xi), eta, 0.0)
        rhs = B.trilinear(xi, eta, g)
        assert abs(lhs - rhs) / max(abs(rhs), 1.0) < 1e-10


@pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("N", [16, 64])
def test_kappa_budget_holds(s, N):
    F = symplectic_action(quadratic_hamiltonian())
    phi = shear_chart()
    q = random_loop(np.random.default_rng(5), 2, N, amplitude=0.4)
    row = kappa_bound_check(F, phi, q, s, hopm=HOPM)
    assert row["passed"]
    assert row["K_norm"] <= row["kappa"] + 1e-8


def test_one_pull_back_serves_every_truncation():
    F, phi = _setup()
    Ft = pull_back(F, phi)
    q = random_loop(np.random.default_rng(9), 2, 16, amplitude=0.4)
    for M in (16, 32):
        qM = q.resize(M)
        A = Ft.hessian(qM)
        assert A.N == M
        assert np.all(A.matrix == pull_back_hessian(F, phi, qM).matrix)


def test_certificate_passes_for_shear_pullback():
    F, phi = _setup()
    rng = np.random.default_rng(6)
    samples = [random_loop(rng, 2, 32, amplitude=0.4) for _ in range(2)]
    cert = certify_pullback(F, phi, 0.75, samples, N_sweep=(16, 32), hopm=HOPM)
    assert cert["verdict"] == "pass"
    assert cert["pullback"]["kappa_passed"]
    assert cert["pullback"]["tail_decaying"]
    assert cert["pullback"]["conjugated_fredholm"]["verdict"] == "fredholm"


@pytest.mark.parametrize("floor", [0.0, 1e-17])
def test_decay_slope_ignores_the_roundoff_floor(floor):
    # a k^-3 profile whose trailing half is roundoff, as in the correction's spectrum
    decay = np.arange(1.0, 65.0) ** -3.0
    noise = floor * np.sort(np.random.default_rng(0).uniform(size=64))[::-1]
    assert _decay_slope(np.concatenate([decay, noise])) == pytest.approx(-3.0, abs=1e-9)


def test_two_stage_pullback_matches_composite_chart():
    N = 32
    F = symplectic_action(quadratic_hamiltonian())
    phi = shear_chart()
    psi = rotation_field_chart(0.5)
    q = random_loop(np.random.default_rng(7), 2, N, amplitude=0.3)
    staged = pull_back(pull_back(F, psi), phi)
    direct = pull_back(F, compose_charts(psi, phi))
    g_res = np.max(
        np.abs(staged.gradient(q).coeffs - direct.gradient(q).coeffs)
    )
    assert g_res < 1e-10
    rows = band_indices(N, 2, N // 2)
    diff = staged.hessian(q).matrix - direct.hessian(q).matrix
    assert np.max(np.abs(diff[np.ix_(rows, rows)])) < 1e-9


def test_gradient_helper_agrees_with_bundle():
    F, phi = _setup()
    q = random_loop(np.random.default_rng(8), 2, 16, amplitude=0.4)
    Ft = pull_back(F, phi)
    direct = pull_back_gradient(F, phi, q)
    assert np.max(np.abs(direct.coeffs - Ft.gradient(q).coeffs)) == 0.0


@pytest.mark.parametrize("chart", [shear_chart, lambda: rotation_field_chart(0.5)], ids=["shear", "rotation"])
def test_correction_terms_equal_the_products_with_the_inclusion(chart):
    # K o iota_s, iota_s the inclusion H_1 -> H_s, has exactly the entries of K @ iota
    N = 16
    F = symplectic_action(quadratic_hamiltonian())
    phi = chart()
    q = random_loop(np.random.default_rng(4), 2, N, amplitude=0.3)
    K = riesz_correction(F, phi, q)
    conj = _conjugated_term(F, phi, q)

    old = conj + K @ identity_operator(N, 2)
    new = pull_back_hessian(F, phi, q)
    assert np.all(new.matrix == old.matrix)

    # the one Hessian, read at H_2 -> H_1 too, has the coefficients of the explicit product
    D = dphi(phi, q)
    conj2 = adjoint(D) @ F.hessian(apply(phi, q)) @ D
    old2 = conj2 + K @ identity_operator(N, 2)
    assert np.all(pull_back(F, phi).hessian(q).matrix == old2.matrix)
