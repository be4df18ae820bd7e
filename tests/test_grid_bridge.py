"""The real-FFT grid bridge: round trips, the old complex formula, the symbol."""

import numpy as np
import pytest

from floerlab.scale_space import (
    FourierLoop,
    from_grid,
    grid_samples,
    half_spectrum,
    mode_numbers,
    multiplication_matrix,
    random_loop,
    to_grid,
)


def _full_loop(rng, N, n=2):
    c = rng.standard_normal((2 * N + 1, n)) + 1j * rng.standard_normal((2 * N + 1, n))
    return FourierLoop(0.5 * (c + np.conj(c[::-1])))


def _grids(N):
    return [2 * N + 1, 2 * N + 2, 4 * N + 2]


@pytest.mark.parametrize("N", [0, 1, 16])
def test_round_trip_returns_the_coefficients(N):
    rng = np.random.default_rng(N)
    u = _full_loop(rng, N)
    for G in _grids(N):
        back = from_grid(to_grid(u, G), N)
        assert np.max(np.abs(back.coeffs - u.coeffs)) <= 1e-14 * np.max(np.abs(u.coeffs))


@pytest.mark.parametrize("N", [0, 1, 16])
def test_to_grid_agrees_with_the_complex_fft(N):
    rng = np.random.default_rng(10 + N)
    u = _full_loop(rng, N)
    for G in _grids(N):
        full = np.zeros((G, u.n), dtype=complex)
        full[mode_numbers(N) % G] = u.coeffs
        old = np.real(np.fft.ifft(full, axis=0)) * G
        new = to_grid(u, G)
        assert new.shape == (G, u.n)
        assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))


def test_helpers_act_along_the_given_axis():
    rng = np.random.default_rng(3)
    loops = [random_loop(rng, 2, 8, top_mode=8) for _ in range(3)]
    G = 34
    half = np.stack([u.coeffs[8:].T for u in loops])  # (trial, n, N+1)
    batch = grid_samples(half, G, axis=-1)
    for t, u in enumerate(loops):
        assert np.array_equal(batch[t], grid_samples(u.coeffs[8:], G).T)
        assert np.array_equal(batch[t].T, to_grid(u, G))
    assert np.array_equal(half_spectrum(batch, 8, axis=-1)[1], half_spectrum(batch[1].T, 8).T)


@pytest.mark.parametrize("G", [33, 34, 66])
def test_multiplication_symbol_is_the_scaled_real_fft(G):
    # bit for bit the symbol multiplication_matrix took before the bridge
    # helpers existed: rfft / G, mirrored by conjugation
    N = 16
    f = np.cos(2 * np.pi * np.arange(G) / G) ** 3 + 0.1 * np.random.default_rng(G).standard_normal(G)
    half = np.fft.rfft(f, axis=0) / G
    fhat = np.concatenate([half, np.conj(half[1 : G - G // 2][::-1])])
    k = mode_numbers(N)
    assert np.array_equal(multiplication_matrix(f, N), fhat[(k[:, None] - k[None, :]) % G])
