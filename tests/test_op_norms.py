"""op_norms: one cosine/sine form per operator, the deflated Kato-Temple certificate, the symmetric eigensolve and the Gram."""

import tracemalloc

import numpy as np
import pytest

from floerlab import cli, scale_operator, suites
from floerlab.charts import shear_chart
from floerlab.floer_map import SuperpositionMap, dphi
from floerlab.scale_operator import (
    _ROW_BLOCK,
    LevelOperator,
    _cos_sin_form,
    _deflated_screen,
    _deflated_top,
    _real_form,
    _self_adjoint,
    _weigh,
    op_norm,
    op_norms,
)
from floerlab.scale_space import default_grid_points, mode_numbers, random_loop
from floerlab.sobolev_evidence import mult_operator, rough_factor, smooth_factor
from oracles import _gram_norm, _symmetric_norm
from test_scale_operator import _reality_preserving
from test_structured_operator import _bits, _random_structured
from test_weighted_svd import _composed

# the interpolation check's five levels, the dual level, and two off-diagonal pairs
PAIRS = [(0.0, 0.0), (1.0, 1.0), (0.25, 0.25), (0.5, 0.5), (0.75, 0.75), (-1.0, -1.0), (1.0, 0.0), (1.75, 1.0)]
INTERPOLATION_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)

OPERATORS = {
    "factor-1": lambda N: _random_structured("factor", N, 1, seed=N),
    "factor-2": lambda N: _random_structured("factor", N, 2, seed=N),
    "blocks-1": lambda N: _random_structured("blocks", N, 1, seed=N + 1),
    "blocks-2": lambda N: _random_structured("blocks", N, 2, seed=N + 1),
    "factor+blocks-1": lambda N: _random_structured("factor+blocks", N, 1, seed=N + 2),
    "factor+blocks-2": lambda N: _random_structured("factor+blocks", N, 2, seed=N + 2),
    "smooth-1": lambda N: mult_operator(smooth_factor(N), "(1,1->1)"),
    "dense-1": lambda N: _reality_preserving(np.random.default_rng(N), N, 1),
    "composed-2": lambda N: _composed(N, 6),
}


def _interpolation_factors(count, N=64):
    # drawn as the sobolev_evidence suite draws its interpolation factors
    rng = np.random.default_rng(0)
    return [mult_operator(random_loop(rng, 1, N, top_mode=5, amplitude=0.8), "(1,1->1)") for _ in range(count)]


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_op_norms_is_op_norm_per_pair_bit_for_bit(name, N):
    T = OPERATORS[name](N)
    many = op_norms(T, PAIRS)
    assert np.array_equal(_bits(np.array(many)), _bits(np.array([op_norm(T, a, b) for a, b in PAIRS])))
    C = _cos_sin_form(T)
    for a, b in PAIRS:
        assert np.array_equal(_bits(_weigh(C, T.N, T.n, a, b)), _bits(_real_form(T, a, b))), (a, b)
    if T.factor is not None or T.blocks is not None:
        assert "matrix" not in vars(T)  # the structured rows were read, not .matrix


def test_one_call_mixes_the_certified_deflated_and_gram_pairs(monkeypatch):
    # smooth (1,1->1) at N = 64: (1, -1) on the FFT path, (1, 1) deflated, (0, 0),
    # self-adjoint, by the symmetric eigensolve and (0.25, 0.25) by the Gram
    T = mult_operator(smooth_factor(64), "(1,1->1)")
    pairs = [(0.0, 0.0), (1.0, -1.0), (1.0, 1.0), (0.25, 0.25)]
    forms, grams = [], []
    cos_sin, gram_top = scale_operator._cos_sin_form, scale_operator._gram_top
    monkeypatch.setattr(scale_operator, "_cos_sin_form", lambda T: forms.append(1) or cos_sin(T))
    monkeypatch.setattr(scale_operator, "_gram_top", lambda R: grams.append(1) or gram_top(R))
    many = op_norms(T, pairs)
    assert forms == [1] and grams == [1]
    assert scale_operator._certified_top_eigenvalue(T, 1.0, -1.0) is not None
    assert _deflated_top(_real_form(T, 1.0, 1.0)) is not None
    for (a, b), value in zip(pairs, many):
        assert value == op_norm(T, a, b)
    assert many[0] == _symmetric_norm(T, 0.0, 0.0) and many[3] == _gram_norm(T, 0.25, 0.25)


def test_deflated_bound_is_above_the_second_singular_value():
    cases = [(T, (s, s)) for T in _interpolation_factors(10) for s in INTERPOLATION_LEVELS]
    for N in (16, 64):
        for factor in (smooth_factor(N), rough_factor(N)):
            cases += [(mult_operator(factor, "(1,1->1)"), (s, s)) for s in INTERPOLATION_LEVELS + (-1.0,)]
        q = random_loop(np.random.default_rng(N), 2, N, amplitude=0.4)
        D = dphi(SuperpositionMap(shear_chart(), 0.75, N), q)
        cases += [(D, (0.0, 0.0)), (D, (-1.0, -1.0))]
    for T, (a, b) in cases:
        R = _real_form(T, a, b)
        frob, lower, second = _deflated_screen(R)
        sv = np.linalg.svd(R, compute_uv=False)
        assert second >= sv[1] ** 2, (T, a, b)
        assert lower <= sv[0] ** 2 * (1.0 + 1e-14), (T, a, b)
        assert frob == pytest.approx(float(np.sum(sv**2)), rel=1e-13)


def _one_shot_screen(R):
    # the deflated screen from one full np.abs(R), the sums the row-blocked screen keeps
    d = R.shape[1]
    mod = np.abs(R)
    rows, cols = mod.sum(axis=1), mod.sum(axis=0)
    i, j = int(np.argmax(rows)), int(np.argmax(cols))
    mod[i] = 0.0
    without_row = float(np.max(mod.sum(axis=0))) * float(np.max(np.delete(rows, i)))
    mod[i] = np.abs(R[i])
    mod[:, j] = 0.0
    without_col = float(np.max(np.delete(cols, j))) * float(np.max(mod.sum(axis=1)))
    row_sq = np.einsum("ij,ij->i", R, R)
    lower = max(float(row_sq.max()), float(np.einsum("ij,ij->j", R, R).max()))
    return float(row_sq.sum()), lower, min(without_row, without_col) * (1.0 + 2 * d * np.finfo(float).eps)


@pytest.mark.parametrize("N", [64, 512])
def test_row_blocked_screen_is_the_one_shot_screen_bit_for_bit(N):
    forms = [_real_form(mult_operator(smooth_factor(N), "(1,1->1)"), s, s) for s in (1.0, 0.25, -1.0)]
    forms.append(_real_form(mult_operator(rough_factor(N), "(1,1->1)"), 0.75, 0.75))
    q = random_loop(np.random.default_rng(N), 2, N, amplitude=0.4)
    forms.append(_real_form(dphi(SuperpositionMap(shear_chart(), 0.75, N), q), 0.0, 0.0))  # d = 2(2N+1)
    # the heaviest row and the heaviest column moved inside a later row block
    heavy = forms[0].copy()
    r, c = heavy.shape[0] - 5, _ROW_BLOCK + 7
    heavy[r] *= 50.0
    heavy[:, c] *= 50.0
    mod = np.abs(heavy)
    assert int(np.argmax(mod.sum(axis=1))) == r and int(np.argmax(mod.sum(axis=0))) == c
    forms.append(heavy)
    for R in forms:
        assert R.shape[0] > _ROW_BLOCK and R.shape[0] % _ROW_BLOCK
        assert np.array_equal(_bits(np.array(_deflated_screen(R))), _bits(np.array(_one_shot_screen(R))))


def _hermitian_blocks_operator(N, seed):
    # a symmetric factor plus the Hermitian blocks 2 pi i k J0 of the action Hessian
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(default_grid_points(N), 2, 2))
    J0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    blocks = (2j * np.pi * mode_numbers(N))[:, None, None] * J0
    return LevelOperator(None, 0.0, 0.0, N, 2, factor=f + f.transpose(0, 2, 1), blocks=blocks)


def test_self_adjoint_level_zero_norm_is_one_symmetric_eigensolve(monkeypatch):
    # smooth (1,0->0) is checked the same way in test_structured_operator
    operators = _interpolation_factors(2) + [_hermitian_blocks_operator(64, 5)]
    steps, grams = [], []
    monkeypatch.setattr(scale_operator, "_kato_temple", lambda *args: steps.append(args))
    monkeypatch.setattr(scale_operator, "_gram_top", lambda R: grams.append(R))
    for T in operators:
        assert _self_adjoint(T)
        norm = op_norm(T, 0.0, 0.0)
        assert norm == _symmetric_norm(T, 0.0, 0.0)
        oracle = np.linalg.svd(_real_form(T, 0.0, 0.0), compute_uv=False)[0]
        assert abs(norm - oracle) <= 1e-13 * oracle, T
    assert steps == [] and grams == []  # no power step and no Gram


@pytest.mark.parametrize("N", [16, 64])
def test_operators_not_self_adjoint_at_level_zero_keep_the_gram(N):
    q = random_loop(np.random.default_rng(N), 2, N, amplitude=0.4)
    D = dphi(SuperpositionMap(shear_chart(), 0.75, N), q)  # the shear Jacobian is not symmetric
    skew = _hermitian_blocks_operator(N, 6)
    skew = LevelOperator(None, 0.0, 0.0, N, 2, factor=skew.factor, blocks=1j * skew.blocks)  # anti-Hermitian
    dense = _reality_preserving(np.random.default_rng(N), N, 1)
    for T in (D, skew, dense):
        assert not _self_adjoint(T)
        assert _deflated_top(_real_form(T, 0.0, 0.0)) is None  # clustered: left for the Gram
        assert op_norm(T, 0.0, 0.0) == _gram_norm(T, 0.0, 0.0), T
    # a self-adjoint operator off level 0 keeps the Gram too
    T = mult_operator(smooth_factor(N), "(1,0->0)")
    assert op_norm(T, 0.25, 0.25) == _gram_norm(T, 0.25, 0.25)


def test_gram_tops_are_read_as_each_form_is_weighed(monkeypatch):
    # one open pair, and two open of three: each Gram top reads its pair's
    # form before the next pair is weighed, the one-pair real form bit for bit
    T = mult_operator(smooth_factor(64), "(1,1->1)")
    read = []
    gram_top = scale_operator._gram_top
    monkeypatch.setattr(scale_operator, "_gram_top", lambda R: read.append(_bits(R).copy()) or gram_top(R))
    one = op_norms(T, [(0.25, 0.25)])
    three = op_norms(T, [(1.0, 1.0), (0.25, 0.25), (0.5, 0.5)])
    assert len(read) == 3
    for R, pair in zip(read, [(0.25, 0.25), (0.25, 0.25), (0.5, 0.5)]):
        assert np.array_equal(R, _bits(_real_form(T, *pair))), pair
    assert one[0] == three[1] == _gram_norm(T, 0.25, 0.25) and three[2] == _gram_norm(T, 0.5, 0.5)


@pytest.mark.parametrize("sig", ["(1,0->0)", "(1,1->1)"])
def test_dense_cells_at_512_hold_one_form_and_its_build(sig):
    # the sweep's two dense cells: one real form (d^2 doubles) and the
    # temporaries of its blocked build, no Gram and no full |R|
    T = mult_operator(smooth_factor(512), sig)
    d = 2 * T.N + 1
    tracemalloc.start()
    try:
        op_norm(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * d * d, peak / (8 * d * d)


def _assert_deflated_certified_against_svd(T, a, b):
    R = _real_form(T, a, b)
    top = _deflated_top(R)
    assert top is not None, (T, a, b)
    norm = op_norm(T, a, b)
    assert norm == float(np.sqrt(top))
    oracle = np.linalg.svd(R, compute_uv=False)[0]
    assert norm >= oracle * (1.0 - 1e-15)
    assert abs(norm - oracle) <= 1e-13 * oracle


@pytest.mark.parametrize("N", [16, 64, 512])
def test_deflated_certified_smooth_norm_and_its_dual_match_the_svd(N):
    T = mult_operator(smooth_factor(N), "(1,1->1)")
    assert scale_operator._certified_top_eigenvalue(T, 1.0, 1.0) is None  # the FFT screen leaves it
    for level in (1.0, -1.0):
        _assert_deflated_certified_against_svd(T, level, level)


@pytest.mark.parametrize("level", [0.75, 1.0])
def test_deflated_certified_interpolation_norms_match_the_svd(level):
    certified = 0
    for T in _interpolation_factors(12):
        if _deflated_top(_real_form(T, level, level)) is not None:
            _assert_deflated_certified_against_svd(T, level, level)
            certified += 1
    assert certified >= 8  # most isolated tops are certified: 41 of the suite's 50 at 0.75, all 50 at 1


def _count_traffic(monkeypatch):
    counts = {"forms": 0, "eigensolves": 0, "symmetric": 0}
    cos_sin, gram_top, symmetric_top = (
        scale_operator._cos_sin_form,
        scale_operator._gram_top,
        scale_operator._symmetric_top,
    )

    def forms(T):
        counts["forms"] += 1
        return cos_sin(T)

    def grams(R):
        counts["eigensolves"] += 1
        return gram_top(R)

    def symmetric(R):
        counts["symmetric"] += 1
        return symmetric_top(R)

    monkeypatch.setattr(scale_operator, "_cos_sin_form", forms)
    monkeypatch.setattr(scale_operator, "_gram_top", grams)
    monkeypatch.setattr(scale_operator, "_symmetric_top", symmetric)
    return counts


def _count_symbol_passes(monkeypatch):
    # symbol passes, those whose screen admits the power iteration, and the
    # level-0 adjoints built on scale_operator's certified path
    counts = {"passes": 0, "admitted": 0, "adjoints": 0}
    symbol_pass, adjoint = scale_operator._symbol_pass, scale_operator.adjoint

    def passes(T, root_a, root_b):
        frob, screen = symbol_pass(T, root_a, root_b)
        counts["passes"] += 1
        counts["admitted"] += screen > frob / 2
        return frob, screen

    def adjoints(T):
        counts["adjoints"] += 1
        return adjoint(T)

    monkeypatch.setattr(scale_operator, "_symbol_pass", passes)
    monkeypatch.setattr(scale_operator, "adjoint", adjoints)
    return counts


def test_one_point_sweep_runs_one_symmetric_eigensolve(monkeypatch):
    # at N = 512: mult(1,0->0), self-adjoint at level 0, takes the symmetric
    # eigensolve, mult(1,1->1) the deflated certificate, mult(-1,1->-1) and
    # the correction the FFT path; no Gram is left
    counts = _count_traffic(monkeypatch)
    rows = cli._sweep_rows(cli.RunConfig(N=[512], s=[0.75], seed=0, workers=1))
    assert len(rows) == 8
    assert counts == {"forms": 2, "eigensolves": 0, "symmetric": 1}


def test_sobolev_evidence_traffic(monkeypatch):
    # at the parent of op_norms: 263 forms and 263 eigensolves at seed 0 with the controls on;
    # before the symmetric path, 169 Gram eigensolves, 56 of them self-adjoint level-0 pairs
    counts = _count_traffic(monkeypatch)
    symbol = _count_symbol_passes(monkeypatch)
    report = suites.run_suite("sobolev_evidence", cli.RunConfig(seed=0, negative_controls=True))
    assert report["verdict"] == "pass"
    assert counts["forms"] <= 62 and counts["eigensolves"] <= 113 and counts["symmetric"] <= 56
    # the screen runs before the adjoint is built: 38 of 274 passes admitted here
    assert symbol["adjoints"] <= symbol["admitted"] < symbol["passes"], symbol
