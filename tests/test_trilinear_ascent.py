"""The batched trilinear ascent against the sequential one-trial-at-a-time loop.

`sequential_norm` is the ascent as it ran before the trials were batched:
full complex spectra, one trial after another, and a separate quadrature
for each step's value.  It serves as the oracle for `trilinear_norms`,
whether it holds one map (`BilinearLevelMap.norm`) or many, the way the
dense SVD serves the structured paths.
"""

import numpy as np
import pytest

from floerlab.charts import rotation_field_chart, shear_chart
from floerlab.floer_map import EXITS, BilinearLevelMap, d2phi, trilinear_norms
from floerlab.scale_space import default_grid_points, mode_numbers, random_loop, weights

LEVELS = [(0.75, 0.0, 0.0), (1.75, -1.0, -1.0)]
BUDGETS = [{}, {"restarts": 0, "iters": 60}, {"restarts": 1, "iters": 5}]


def sequential_norm(B, a, b, out, restarts=4, iters=150, seed=0, rtol=1e-11):
    G, N, n = B.grid_points, B.N, B.n
    wa = weights(N, a)[:, None]
    wb = weights(N, b)[:, None]
    wz = 1.0 / weights(N, out)[:, None]

    def grid(c):
        full = np.zeros((G, n), dtype=complex)
        full[mode_numbers(N) % G] = c
        return np.real(np.fft.ifft(full, axis=0)) * G

    def coeffs(vals):
        return np.fft.fft(vals, axis=0)[mode_numbers(N) % G] / G

    def riesz(gradc, w):
        cand = gradc / w
        nrm = np.sqrt(np.sum(w * np.abs(cand) ** 2))
        if nrm == 0.0:
            return None
        return cand / nrm

    rng = np.random.default_rng(seed)
    best = 0.0
    for trial in range(restarts + 2):
        if trial == 0:
            cx = np.zeros((2 * N + 1, n), dtype=complex)
            cx[N, 0] = 1.0
            ce = np.zeros((2 * N + 1, n), dtype=complex)
            ce[0, -1] = ce[-1, -1] = 0.5
        elif trial == 1:
            cx = np.zeros((2 * N + 1, n), dtype=complex)
            cx[N, -1] = 1.0
            ce = np.zeros((2 * N + 1, n), dtype=complex)
            ce[N, 0] = 1.0
        else:
            cx = rng.standard_normal((2 * N + 1, n)) + 1j * rng.standard_normal((2 * N + 1, n))
            cx = 0.5 * (cx + np.conj(cx[::-1]))
            ce = rng.standard_normal((2 * N + 1, n)) + 1j * rng.standard_normal((2 * N + 1, n))
            ce = 0.5 * (ce + np.conj(ce[::-1]))
        cx = cx / np.sqrt(np.sum(wa * np.abs(cx) ** 2))
        ce = ce / np.sqrt(np.sum(wb * np.abs(ce) ** 2))
        vx, ve = grid(cx), grid(ce)
        val = 0.0
        for _ in range(iters):
            gz = coeffs(np.einsum("gijk,gj,gk->gi", B.tensor, vx, ve) / G)
            cz = riesz(gz, wz)
            if cz is None:
                break
            vz = grid(cz)
            gx = coeffs(np.einsum("gijk,gi,gk->gj", B.tensor, vz, ve) / G)
            cx = riesz(gx, wa)
            vx = grid(cx)
            ge = coeffs(np.einsum("gijk,gi,gj->gk", B.tensor, vz, vx) / G)
            ce = riesz(ge, wb)
            ve = grid(ce)
            new = float(np.einsum("gijk,gi,gj,gk->", B.tensor, vz, vx, ve) / G)
            if abs(new - val) <= rtol * max(abs(new), 1.0):
                val = new
                break
            val = new
        best = max(best, abs(val))
    return best


def _symmetric_tensor(N, n=2, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((default_grid_points(N), n, n, n))
    return BilinearLevelMap(0.5 * (t + t.transpose(0, 1, 3, 2)), N)


def _assert_matches_oracle(B, levels, hopm):
    got = B.norm(*levels, **hopm)
    want = sequential_norm(B, *levels, **hopm)
    assert type(got) is float
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("hopm", BUDGETS)
@pytest.mark.parametrize("levels", LEVELS)
@pytest.mark.parametrize("N", [4, 16, 64])
def test_random_symmetric_tensor_matches_sequential_ascent(N, levels, hopm):
    _assert_matches_oracle(_symmetric_tensor(N, seed=N), levels, hopm)


def _chart_hessian(chart, N, seed):
    q = random_loop(np.random.default_rng(seed), 2, N, amplitude=0.3)
    return d2phi(chart, q)


@pytest.mark.parametrize("hopm", BUDGETS)
@pytest.mark.parametrize("levels", LEVELS)
@pytest.mark.parametrize("chart", [shear_chart, lambda: rotation_field_chart(0.5)], ids=["shear", "rotation"])
def test_chart_hessian_matches_sequential_ascent(chart, levels, hopm):
    _assert_matches_oracle(_chart_hessian(chart(), 16, seed=3), levels, hopm)


def test_shear_fixed_triples_take_the_null_exit():
    # the shear Hessian vanishes on both fixed starting triples, so with no
    # random restarts the ascent stops at step 1 and reports 0
    B = _chart_hessian(shear_chart(), 16, seed=3)
    assert B.norm(0.75, 0.0, 0.0, restarts=0) == 0.0
    assert sequential_norm(B, 0.75, 0.0, 0.0, restarts=0) == 0.0
    assert B.norm(0.75, 0.0, 0.0) > 0.0
    # and the record says so: null before any sweep, the random starts run on
    rec = trilinear_norms([B], [LEVELS[0]])
    assert list(rec.exits[0, :2]) == ["null", "null"]
    assert list(rec.iterations[0, :2]) == [0, 0]
    assert set(rec.exits[0, 2:]) <= {"rtol", "cap"}


def test_zero_tensor_has_norm_exactly_zero():
    B = BilinearLevelMap(np.zeros((default_grid_points(8), 2, 2, 2)), 8)
    got = B.norm(0.75, 0.0, 0.0)
    assert type(got) is float
    assert got == 0.0


def _mixed_batch():
    # shear, rotation-field, random symmetric and zero tensors, each at both level triples
    N = 16
    tensors = [
        _chart_hessian(shear_chart(), N, seed=3),
        _chart_hessian(rotation_field_chart(0.5), N, seed=4),
        _symmetric_tensor(N, seed=5),
        BilinearLevelMap(np.zeros((default_grid_points(N), 2, 2, 2)), N),
    ]
    maps = [B for B in tensors for _ in LEVELS]
    levels = [lv for _ in tensors for lv in LEVELS]
    return maps, levels


def _oracle_mismatches(norms, hopm):
    maps, levels = _mixed_batch()
    got = norms(maps, levels, **hopm).values
    want = [sequential_norm(B, *lv, **hopm) for B, lv in zip(maps, levels)]
    return [p for p, (g, w) in enumerate(zip(got, want)) if not abs(g - w) <= 1e-13 * w]


@pytest.mark.parametrize("hopm", BUDGETS)
def test_mixed_batch_matches_sequential_ascent_per_map(hopm):
    assert _oracle_mismatches(trilinear_norms, hopm) == []


@pytest.mark.parametrize("hopm", BUDGETS)
def test_batch_level_mix_up_is_caught(hopm):
    # a mutant that reads the whole batch at the first map's level triple
    def first_levels_only(maps, levels, **kw):
        return trilinear_norms(maps, [levels[0]] * len(maps), **kw)

    assert _oracle_mismatches(first_levels_only, hopm) != []


@pytest.mark.parametrize("hopm", BUDGETS)
def test_batch_records_each_trial_as_if_run_alone(hopm):
    maps, levels = _mixed_batch()
    batch = trilinear_norms(maps, levels, **hopm)
    trials = hopm.get("restarts", 4) + 2
    assert batch.exits.shape == batch.iterations.shape == (len(maps), trials)
    assert set(batch.exits.ravel()) <= set(EXITS)
    for p, (B, lv) in enumerate(zip(maps, levels)):
        alone = trilinear_norms([B], [lv], **hopm)
        assert alone.values[0] == batch.values[p]
        assert alone.values[0] == B.norm(*lv, **hopm)
        assert list(alone.exits[0]) == list(batch.exits[p])
        assert list(alone.iterations[0]) == list(batch.iterations[p])
    # the zero tensor leaves at once on every trial
    assert set(batch.exits[-1]) == {"null"} and not batch.iterations[-1].any()
    cap = batch.exits == "cap"
    assert np.all(batch.iterations[cap] == hopm.get("iters", 150))


def test_permuting_the_maps_permutes_the_values():
    maps, levels = _mixed_batch()
    values = trilinear_norms(maps, levels, restarts=1, iters=40).values
    perm = np.random.default_rng(0).permutation(len(maps))
    shuffled = trilinear_norms([maps[p] for p in perm], [levels[p] for p in perm], restarts=1, iters=40)
    assert np.array_equal(shuffled.values, values[perm])
    assert not np.array_equal(shuffled.values, values)


def test_batch_rejects_maps_on_different_grids():
    with pytest.raises(ValueError, match="different grids"):
        trilinear_norms([_symmetric_tensor(8), _symmetric_tensor(16)], LEVELS)
    with pytest.raises(ValueError, match="one level triple per map"):
        trilinear_norms([_symmetric_tensor(8)], LEVELS)
