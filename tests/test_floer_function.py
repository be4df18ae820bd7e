"""Action-type functions: derivative oracles, spectra, Fredholm structure."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from floerlab.floer_function import (
    FloerFunctionNumeric,
    driven_hamiltonian,
    full_report,
    quadratic_hamiltonian,
    quadratic_spectral,
    richardson_directional,
    richardson_second,
    standard_symplectic_matrix,
    symplectic_action,
)
from floerlab.scale_operator import (
    LevelOperator,
    fredholm_diagnostic,
    identity_operator,
    op_norm,
)
from floerlab.scale_space import FourierLoop, inner, mode_numbers, random_loop
from floerlab.suites import _inclusion_control

# closed forms for the quadratic well H = 1/2 |x|^2: the Hessian blocks are
# 2 pi k J0 - I with singular values |2 pi k -+ 1|, so on the (1,0) pair the
# smallest weighted value is (2 pi - 1)/sqrt(1 + 4 pi^2) and on (2,1) the
# largest is (1 + 2 pi)/sqrt(1 + 4 pi^2)
ACTION_GAP = (2 * np.pi - 1) / np.sqrt(1 + 4 * np.pi**2)
HESS2_NORM = (1 + 2 * np.pi) / np.sqrt(1 + 4 * np.pi**2)


def _loop(seed, N=16, amplitude=0.5):
    return random_loop(np.random.default_rng(seed), 2, N, amplitude=amplitude)


def test_gradient_matches_richardson_differences():
    F = symplectic_action(driven_hamiltonian())
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        q = random_loop(rng, 2, 32, amplitude=0.5)
        xi = random_loop(rng, 2, 32, amplitude=0.5)
        fd = richardson_directional(F.value, q, xi)
        lin = inner(F.gradient(q), xi, 0.0)
        worst = max(worst, abs(fd - lin) / max(abs(fd), 1e-12))
    assert worst < 1e-7


def test_gradient_coefficients_for_quadratic_well():
    # H = 1/2 |x|^2 makes the action quadratic, so the gradient has the
    # exact coefficient form (2 pi i k J0 - I) c_k
    N = 16
    F = symplectic_action(quadratic_hamiltonian())
    q = _loop(1, N=N)
    J0 = standard_symplectic_matrix(2)
    k = mode_numbers(N)
    expected = (2j * np.pi * k[:, None]) * (q.coeffs @ J0.T) - q.coeffs
    assert np.max(np.abs(F.gradient(q).coeffs - expected)) < 1e-12


def test_hessian_matches_second_differences_and_is_symmetric():
    F = symplectic_action(driven_hamiltonian())
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = random_loop(rng, 2, 16, amplitude=0.5)
        xi = random_loop(rng, 2, 16, amplitude=0.5)
        eta = random_loop(rng, 2, 16, amplitude=0.5)
        quad = inner(F.hessian(q).apply(xi), eta, 0.0)
        fd = richardson_second(F.value, q, xi, eta)
        assert abs(quad - fd) / max(abs(fd), 1e-12) < 1e-6
        flipped = inner(F.hessian(q).apply(eta), xi, 0.0)
        assert abs(quad - flipped) / max(abs(quad), 1e-12) < 1e-10


def test_quadratic_action_gap_is_level_independent():
    family = {N: symplectic_action(quadratic_hamiltonian()).hessian(_loop(4, N=N)) for N in (16, 32, 64)}
    rep1 = fredholm_diagnostic(family, 1.0, 0.0)
    rep2 = fredholm_diagnostic(family, 2.0, 1.0)
    for rep in (rep1, rep2):
        assert rep["verdict"] == "fredholm"
        assert rep["index_estimate"] == 0
        for entry in rep["sweep"]:
            assert entry["ker_dim"] == 0
            assert entry["coker_dim"] == 0
            assert abs(entry["gap"] - ACTION_GAP) < 1e-9


def test_hessian2_norm_closed_form():
    N = 16
    F = symplectic_action(quadratic_hamiltonian())
    A = F.hessian(_loop(5, N=N))
    assert abs(op_norm(A, 2.0, 1.0) - HESS2_NORM) < 1e-9


def test_full_report_passes_for_driven_hamiltonian():
    rng = np.random.default_rng(7)
    samples = [random_loop(rng, 2, 64, amplitude=0.5) for _ in range(2)]
    directions = [random_loop(rng, 2, 64, amplitude=0.5) for _ in range(2)]
    pairs = [(samples[0], directions[1]), (samples[1], directions[0])]
    rep = full_report(symplectic_action(driven_hamiltonian()), samples, directions, pairs)
    assert rep["verdict"] == "pass"
    assert rep["gradient"]["verdict"] == "pass"
    assert rep["hessian"]["verdict"] == "pass"


def test_a_function_carries_no_truncation():
    # value, gradient and hessian read N from the loop, so F holds no N and no rebuild
    assert [f.name for f in dataclasses.fields(FloerFunctionNumeric)] == [
        "n",
        "value",
        "gradient",
        "hessian",
        "name",
    ]


def test_quadratic_spectral_requires_symmetry():
    N = 8

    def skew(M):
        m = np.kron(np.diag(2j * np.pi * mode_numbers(M).astype(float)), np.eye(2))
        return LevelOperator(m, M, 2)

    with pytest.raises(ValueError, match="symmetric"):
        quadratic_spectral(skew(N))

    sym = quadratic_spectral(identity_operator(N, 2))
    q = _loop(8, N=N)
    assert abs(sym.value(q) - 0.5 * q.norm(0.0) ** 2) < 1e-12


def test_inclusion_control_needs_no_dense_identity():
    # the default sweep pads the control to N = 512; one dense complex
    # identity per N peaked at 90 MB there, and one at N = 64 alone takes 1 MB
    tracemalloc.start()
    try:
        check = _inclusion_control((16, 32, 64, 128, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check["passed"]
    assert check["report"]["sweep"][-1]["N"] == 512
    assert peak < 1e6
