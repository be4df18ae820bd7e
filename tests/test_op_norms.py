"""op_norms: the closed form of a degree-one symbol, the symbol's Kato-Temple certificate, one cosine/sine form per operator and its Gram eigensolve."""

import tracemalloc

import numpy as np
import pytest

from floerlab import cli, scale_operator, suites
from floerlab.charts import shear_chart
from floerlab.floer_function import HamiltonianData, quadratic_hamiltonian, symplectic_action
from floerlab.floer_map import dphi
from floerlab.loop_atlas import loops_in_chart, sphere_small_loop_atlas, transition
from floerlab.pullback import pull_back
from floerlab.scale_operator import (
    LevelOperator,
    _cos_sin_form,
    _dense_top,
    _gram_top,
    _mode_blocks,
    _multiplication,
    _real_form,
    _symbol_pass,
    _symbol_screen,
    _tridiagonal_top,
    _weigh,
    op_norm,
    op_norms,
)
from floerlab.scale_space import FourierLoop, default_grid_points, mode_numbers, random_loop, weights
from floerlab.sobolev_evidence import mult_operator, rough_factor, smooth_factor
from oracles import _gram_norm, _matrix_free_alone
from test_benchmark_workloads import _workloads
from test_scale_operator import _reality_preserving
from test_structured_operator import _bits, _kappa_correction, _no_form, _random_structured
from test_weighted_svd import _composed

# the interpolation check's five levels, the dual level, and two off-diagonal pairs
PAIRS = [(0.0, 0.0), (1.0, 1.0), (0.25, 0.25), (0.5, 0.5), (0.75, 0.75), (-1.0, -1.0), (1.0, 0.0), (1.75, 1.0)]
INTERPOLATION_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
EPS = np.finfo(float).eps

OPERATORS = {
    "factor-1": lambda N: _random_structured("factor", N, 1, seed=N),
    "factor-2": lambda N: _random_structured("factor", N, 2, seed=N),
    "blocks-1": lambda N: _random_structured("blocks", N, 1, seed=N + 1),
    "blocks-2": lambda N: _random_structured("blocks", N, 2, seed=N + 1),
    "factor+blocks-1": lambda N: _random_structured("factor+blocks", N, 1, seed=N + 2),
    "factor+blocks-2": lambda N: _random_structured("factor+blocks", N, 2, seed=N + 2),
    "smooth-1": lambda N: mult_operator(smooth_factor(N)),
    "dense-1": lambda N: _reality_preserving(np.random.default_rng(N), N, 1),
    "composed-2": lambda N: _composed(N, 6),
}


def _interpolation_factors(count, N=64):
    # drawn as the sobolev_evidence suite draws its interpolation factors
    rng = np.random.default_rng(0)
    return [mult_operator(random_loop(rng, 1, N, top_mode=5, amplitude=0.8)) for _ in range(count)]


def _on_the_form(T, a, b):
    # what a pair of a pure multiplication operator gets once its call has built the real form
    screen = _symbol_screen(T, a, b)
    top = None if screen is None else _dense_top(_real_form(T, a, b), *screen)
    return _gram_norm(T, a, b) if top is None else float(np.sqrt(top))


def _expected_norms(T, pairs):
    # op_norms' rule for a pure multiplication operator, pair by pair in
    # order: a (0, 0) pair of a degree-one scalar symbol takes the closed
    # form; until the form is built, an admitted pair is certified
    # matrix-free as alone; the first pair that is not admitted or that
    # stalls builds the form and takes the Gram, and every pair after it
    # reads the form
    closed = _tridiagonal_top(T)
    expected, form = [], False
    for a, b in pairs:
        if closed is not None and (a, b) == (0.0, 0.0):
            expected.append(closed)
        elif form:
            expected.append(_on_the_form(T, a, b))
        else:
            top = _matrix_free_alone(T, a, b)
            form = top is None
            expected.append(_gram_norm(T, a, b) if form else float(np.sqrt(top)))
    return expected


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_op_norms_is_each_pairs_path_bit_for_bit(name, N):
    # a pure multiplication operator's pairs take the path op_norms' rule
    # gives them; any other operator's pairs take the paths they take alone
    T = OPERATORS[name](N)
    many = op_norms(T, PAIRS)
    expected = _expected_norms(T, PAIRS) if _multiplication(T) else [op_norm(T, a, b) for a, b in PAIRS]
    assert np.array_equal(_bits(np.array(many)), _bits(np.array(expected)))
    C = _cos_sin_form(T)
    for a, b in PAIRS:
        assert np.array_equal(_bits(_weigh(C, T.N, T.n, a, b)), _bits(_real_form(T, a, b))), (a, b)
    if T.factor is not None or T.blocks is not None:
        assert "matrix" not in vars(T)  # the structured rows were read, not .matrix


def _record(monkeypatch, events):
    # each real form built, Gram eigensolve and structured matvec, in order
    cos_sin, gram_top, matvec = scale_operator._cos_sin_form, scale_operator._gram_top, scale_operator._matvec
    monkeypatch.setattr(scale_operator, "_cos_sin_form", lambda T: events.append("form") or cos_sin(T))
    monkeypatch.setattr(scale_operator, "_gram_top", lambda R: events.append("gram") or gram_top(R))
    monkeypatch.setattr(scale_operator, "_matvec", lambda T, x: events.append("matvec") or matvec(T, x))


def test_one_call_mixes_iterations_on_the_form_with_gram_pairs(monkeypatch):
    # a degree-5 interpolation factor at N = 64: alone, (1, -1) and (1, 1) are
    # certified matrix-free; with the clustered (0, 0) and (0.25, 0.25) the
    # call builds the form first, both iterate on it by dense matvecs, and
    # the other two take the Gram
    T = _interpolation_factors(1)[0]
    pairs = [(0.0, 0.0), (1.0, -1.0), (1.0, 1.0), (0.25, 0.25)]
    assert all(_matrix_free_alone(T, a, b) is not None for a, b in pairs[1:3])
    events = []
    _record(monkeypatch, events)
    many = op_norms(T, pairs)
    assert events == ["form", "gram", "gram"]
    assert many == [_on_the_form(T, a, b) for a, b in pairs]
    assert many[0] == _gram_norm(T, 0.0, 0.0) and many[3] == _gram_norm(T, 0.25, 0.25)
    for (a, b), value in zip(pairs[1:3], many[1:3]):
        oracle = np.linalg.svd(_real_form(T, a, b), compute_uv=False)[0]
        assert oracle * (1.0 - 1e-15) <= value <= oracle * (1.0 + 1e-13)


def test_pairs_are_read_in_order(monkeypatch):
    # the factor of the test above with its pairs reordered: (1, -1), admitted
    # and first, is certified matrix-free; the clustered (0, 0) builds the
    # form and takes the Gram; (1, 1), admitted, then iterates on the form
    T = _interpolation_factors(1)[0]
    pairs = [(1.0, -1.0), (0.0, 0.0), (1.0, 1.0)]
    assert _symbol_screen(T, 0.0, 0.0) is None
    assert _dense_top(_real_form(T, 1.0, 1.0), *_symbol_screen(T, 1.0, 1.0)) is not None
    events = []
    _record(monkeypatch, events)
    many = op_norms(T, pairs)
    monkeypatch.undo()
    assert "matvec" in events and events[events.index("form") :] == ["form", "gram"], events
    assert set(events[: events.index("form")]) == {"matvec"}
    assert many[0] == float(np.sqrt(_matrix_free_alone(T, 1.0, -1.0)))
    assert many[1] == _gram_norm(T, 0.0, 0.0)
    assert many[2] == _on_the_form(T, 1.0, 1.0)
    for (a, b), value in zip(pairs, many):
        oracle = np.linalg.svd(_real_form(T, a, b), compute_uv=False)[0]
        assert abs(value - oracle) <= 1e-13 * oracle, (a, b)


def test_no_matvec_after_the_form_is_built(monkeypatch):
    # the interpolation check's pairs build the form at once, for the
    # clustered level 0, and no pair of the call runs matrix-free; a random
    # factor with every pair admitted starts matrix-free, stalls at (0, 0)
    # and builds the form for the pairs left
    interpolation = [(0.0, 0.0), (1.0, 1.0)] + [(s, s) for s in INTERPOLATION_LEVELS]
    calls = [(T, interpolation, 0) for T in _interpolation_factors(12)]
    calls += [(OPERATORS["factor-1"](N), PAIRS, 1) for N in (8, 16)]
    for T, pairs, matvecs_first in calls:
        events = []
        _record(monkeypatch, events)
        many = op_norms(T, pairs)
        monkeypatch.undo()
        assert "form" in events and "matvec" not in events[events.index("form") :], T
        assert (events.index("form") > 0) == matvecs_first, T
        assert many == _expected_norms(T, pairs)


def _weighted_matrix(T, a, b):
    # the complex weighted matrix A whose bounds the symbol gives, dense
    return np.repeat(np.sqrt(weights(T.N, b)), T.n)[:, None] * T.matrix / np.repeat(np.sqrt(weights(T.N, a)), T.n)


def _deletion_bound(A, rows, cols):
    # ||X||_1 ||X||_inf of |A| with the given rows and columns deleted
    X = np.delete(np.delete(np.abs(A), rows, axis=0), cols, axis=1)
    return float(X.sum(axis=0).max()) * float(X.sum(axis=1).max())


def _symbol_cases():
    # interpolation factors, and the smooth and rough factors at the
    # interpolation levels and -1, at equal and unequal pairs, and three
    # operators with n = 2: the shear and sphere-transition Jacobians and
    # the pullback correction K
    unequal = [(1.0, -1.0), (1.75, 1.0), (0.75, 0.0)]
    cases = [(T, (s, s)) for T in _interpolation_factors(10) for s in INTERPOLATION_LEVELS]
    atlas = sphere_small_loop_atlas(s=0.75)
    north, south = atlas.chart("north"), atlas.chart("south")
    for N in (16, 64):
        for factor in (smooth_factor(N), rough_factor(N)):
            T = mult_operator(factor)
            cases += [(T, (s, s)) for s in INTERPOLATION_LEVELS + (-1.0,)] + [(T, p) for p in unequal]
        q = random_loop(np.random.default_rng(N), 2, N, amplitude=0.4)
        D = dphi(shear_chart(), q)
        S = dphi(transition(atlas, "north", "south", N), loops_in_chart(atlas.corpus, north, N, also_in=(south,))[0])
        for T in (D, S, _kappa_correction(N, 1)):
            cases += [(T, p) for p in [(0.0, 0.0), (-1.0, -1.0)] + unequal]
    return cases


def test_symbol_bounds_bracket_the_svd():
    # F, lower and second from the symbol against the SVD of A; second is
    # the one-deletion bound of the dense |A|, raised only by its rounding
    # allowance.  Deleting the heaviest row and column at once bounds only
    # sigma_3^2, and the cases show it: it falls below sigma_2^2 on 12 of
    # the 116, all with n = 2
    below = []
    for T, (a, b) in _symbol_cases():
        frob, screen, lower, second = _symbol_pass(T, a, b)
        A = _weighted_matrix(T, a, b)
        sv = np.linalg.svd(A, compute_uv=False)
        assert lower <= sv[0] ** 2 * (1.0 + 1e-14) <= screen, (T, a, b)
        assert second >= sv[1] ** 2, (T, a, b)
        assert frob == pytest.approx(float(np.sum(sv**2)), rel=1e-13)
        r, c = int(np.abs(A).sum(axis=1).argmax()), int(np.abs(A).sum(axis=0).argmax())
        exact = min(_deletion_bound(A, [r], []), _deletion_bound(A, [], [c]))
        assert exact <= second <= exact * (1.0 + 1e-11), (T, a, b)
        below.append(_deletion_bound(A, [r], [c]) < sv[1] ** 2)
    assert sum(below) >= 1, sum(below)


def _hermitian_blocks_operator(N, seed):
    # a symmetric factor plus the Hermitian blocks 2 pi i k J0 of the action Hessian
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(default_grid_points(N), 2, 2))
    J0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    blocks = (2j * np.pi * mode_numbers(N))[:, None, None] * J0
    return LevelOperator(None, N, 2, factor=f + f.transpose(0, 2, 1), blocks=blocks)


def _anharmonic_hessian(N):
    # the action Hessian of H = |x|^2/2 + |x|^4/4 along a loop: the factor
    # -hess_x H, symmetric at each sample, varies along the loop, so the
    # operator is not mode-block diagonal
    def grad_x(t, x):
        return (1.0 + np.sum(x**2, axis=1))[:, None] * x

    def hess_x(t, x):
        return (1.0 + np.sum(x**2, axis=1))[:, None, None] * np.eye(2) + 2.0 * x[:, :, None] * x[:, None, :]

    H = HamiltonianData(2, lambda t, x: 0.5 * np.sum(x**2, axis=1) + 0.25 * np.sum(x**2, axis=1) ** 2, grad_x, hess_x)
    q = random_loop(np.random.default_rng(N), 2, N, amplitude=0.4)
    return symplectic_action(H).hessian(q)


def _reflecting_transition_jacobian(N):
    # the north-to-south sphere transition is anti-Moebius: its Jacobian is
    # r R(theta) diag(1, -1), a symmetric matrix at every sample
    atlas = sphere_small_loop_atlas(s=0.75)
    north, south = atlas.chart("north"), atlas.chart("south")
    q = loops_in_chart(atlas.corpus, north, N, also_in=(south,))[0]
    return dphi(transition(atlas, "north", "south", N), q)


SELF_ADJOINT = {
    "interpolation-factor": lambda: _interpolation_factors(1)[0],
    "reflecting-transition": lambda: _reflecting_transition_jacobian(64),
    "action-hessian": lambda: _anharmonic_hessian(64),
}


@pytest.mark.parametrize("name", sorted(SELF_ADJOINT))
def test_self_adjoint_level_zero_norms_take_the_gram(monkeypatch, name):
    # symmetric factor samples and Hermitian mode blocks, if any, so the
    # level-0 real form is symmetric; it is read like any other: one form,
    # one Gram eigensolve and no power step, since a multiplication's
    # clustered top is screened out and the Hessian has no screen
    T = SELF_ADJOINT[name]()
    assert _mode_blocks(T) is None and np.array_equal(T.factor, T.factor.transpose(0, 2, 1))
    assert T.blocks is None or np.array_equal(T.blocks, np.conj(T.blocks.transpose(0, 2, 1)))
    events = []
    _record(monkeypatch, events)
    kato_temple = scale_operator._kato_temple
    monkeypatch.setattr(scale_operator, "_kato_temple", lambda *args: events.append("step") or kato_temple(*args))
    norm = op_norm(T, 0.0, 0.0)
    monkeypatch.undo()
    assert events == ["form", "gram"], events
    assert norm == _gram_norm(T, 0.0, 0.0)
    oracle = np.linalg.svd(_real_form(T, 0.0, 0.0), compute_uv=False)[0]
    assert abs(norm - oracle) <= 1e-13 * oracle


@pytest.mark.parametrize("N", [16, 64])
def test_operators_not_self_adjoint_at_level_zero_keep_the_gram(monkeypatch, N):
    q = random_loop(np.random.default_rng(N), 2, N, amplitude=0.4)
    D = dphi(shear_chart(), q)  # the shear Jacobian is not symmetric
    skew = _hermitian_blocks_operator(N, 6)
    skew = LevelOperator(None, N, 2, factor=skew.factor, blocks=1j * skew.blocks)  # anti-Hermitian
    dense = _reality_preserving(np.random.default_rng(N), N, 1)
    steps = []
    kato_temple = scale_operator._kato_temple
    monkeypatch.setattr(scale_operator, "_kato_temple", lambda *args: steps.append(args) or kato_temple(*args))
    for T in (D, skew, dense):
        assert op_norm(T, 0.0, 0.0) == _gram_norm(T, 0.0, 0.0), T
    assert steps == []  # D's clustered top is screened out; the others take no power step
    # a self-adjoint operator off level 0 keeps the Gram too
    T = mult_operator(smooth_factor(N))
    assert op_norm(T, 0.25, 0.25) == _gram_norm(T, 0.25, 0.25)


def _pulled_back_hessian(N):
    # the pullback suite's Hessian: the quadratic action pulled back through the shear chart
    F = symplectic_action(quadratic_hamiltonian())
    q = random_loop(np.random.default_rng(N), 2, N, amplitude=0.4)
    return pull_back(F, shear_chart()).hessian(q)


@pytest.mark.parametrize("N", [16, 64])
def test_operators_that_are_not_multiplications_build_one_form_and_take_no_power_step(N):
    # dense and factor + blocks operators have no symbol screen: each call
    # builds one form, and every pair takes its Gram
    names = ("dense-1", "composed-2", "factor+blocks-1", "factor+blocks-2")
    operators = [OPERATORS[name](N) for name in names] + [_pulled_back_hessian(N)]
    cos_sin, kato_temple = scale_operator._cos_sin_form, scale_operator._kato_temple
    for T in operators:
        assert not _multiplication(T) and _mode_blocks(T) is None, T
        events = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scale_operator, "_cos_sin_form", lambda X: events.append("form") or cos_sin(X))
            mp.setattr(scale_operator, "_kato_temple", lambda *args: events.append("step") or kato_temple(*args))
            many = op_norms(T, PAIRS)
        assert events == ["form"], (T, events)
        assert many == [_gram_norm(T, a, b) for a, b in PAIRS], T
        for (a, b), value in zip(PAIRS, many):
            oracle = np.linalg.svd(_real_form(T, a, b), compute_uv=False)[0]
            assert abs(value - oracle) <= 1e-13 * oracle, (T, a, b)


def test_pullback_suite_takes_power_steps_only_on_multiplication_operators(monkeypatch):
    # seed 0 with the controls: the 7 op_norms calls on dense pulled-back
    # Hessians take Gram eigensolves, and the 13 power iterations are the
    # multiplication operators' matrix-free certificates
    counts = _count_traffic(monkeypatch)
    steps, certified = [], []
    kato_temple, matrix_free_top = scale_operator._kato_temple, scale_operator._matrix_free_top

    def matrix_free(T, *args):
        top = matrix_free_top(T, *args)
        certified.append(_multiplication(T) and top is not None)
        return top

    monkeypatch.setattr(scale_operator, "_kato_temple", lambda *args: steps.append(args) or kato_temple(*args))
    monkeypatch.setattr(scale_operator, "_matrix_free_top", matrix_free)
    report = suites.run_suite("pullback", cli.RunConfig(seed=0, negative_controls=True, workers=1))
    assert report["verdict"] == "pass"
    assert len(steps) == len(certified) == 13 and all(certified)
    assert counts["eigensolves"] == 7


def test_gram_tops_are_read_as_each_form_is_weighed(monkeypatch):
    # one open pair, and two open of three: each Gram top reads its pair's
    # form before the next pair is weighed, the one-pair real form bit for bit
    T = mult_operator(smooth_factor(64))
    read = []
    gram_top = scale_operator._gram_top
    monkeypatch.setattr(scale_operator, "_gram_top", lambda R: read.append(_bits(R).copy()) or gram_top(R))
    one = op_norms(T, [(0.25, 0.25)])
    three = op_norms(T, [(1.0, 1.0), (0.25, 0.25), (0.5, 0.5)])
    assert len(read) == 3
    for R, pair in zip(read, [(0.25, 0.25), (0.25, 0.25), (0.5, 0.5)]):
        assert np.array_equal(R, _bits(_real_form(T, *pair))), pair
    assert one[0] == three[1] == _gram_norm(T, 0.25, 0.25) and three[2] == _gram_norm(T, 0.5, 0.5)


@pytest.mark.parametrize("N", [512, 2048])
def test_level_zero_cell_builds_no_form(monkeypatch, N):
    # the sweep's level-0 cell, at N = 512 and at four times the sweep's
    # largest N: the closed form from the symbol, no real form, and a peak
    # like the matrix-free cells'
    T = mult_operator(smooth_factor(N))
    d = 2 * T.N + 1
    monkeypatch.setattr(scale_operator, "_cos_sin_form", _no_form)
    tracemalloc.start()
    try:
        norm = op_norm(T, 0.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    exact = 2.0 + np.cos(np.pi / (2 * N + 2))
    assert abs(norm - exact) <= 4 * EPS * exact
    assert peak <= 0.05 * 8 * d * d, peak / (8 * d * d)
    assert "matrix" not in vars(T)


def test_isolated_top_at_512_builds_no_form(monkeypatch):
    # the sweep's (1,1->1) cell is certified from the symbol and FFT matvecs:
    # no real form, and a peak of about 0.024 x 8 d^2 bytes, measured
    T = mult_operator(smooth_factor(512))
    d = 2 * T.N + 1
    monkeypatch.setattr(scale_operator, "_cos_sin_form", _no_form)
    tracemalloc.start()
    try:
        norm = op_norm(T, 1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norm == float(np.sqrt(_matrix_free_alone(T, 1.0, 1.0)))
    assert peak <= 0.05 * 8 * d * d, peak / (8 * d * d)
    assert "matrix" not in vars(T)


def _assert_symbol_certified_against_svd(T, a, b):
    top = _matrix_free_alone(T, a, b)
    assert top is not None, (T, a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scale_operator, "_cos_sin_form", _no_form)
        norm = op_norm(T, a, b)
    assert norm == float(np.sqrt(top))
    assert "matrix" not in vars(T)  # the certificate came from the symbol alone
    oracle = np.linalg.svd(_real_form(T, a, b), compute_uv=False)[0]
    assert norm >= oracle * (1.0 - 1e-15)
    assert abs(norm - oracle) <= 1e-13 * oracle


@pytest.mark.parametrize("N", [16, 64, 512])
def test_symbol_certified_smooth_norm_and_its_dual_match_the_svd(N):
    # 2 theta > F cannot see this top: only the symbol's one-deletion bound admits it
    T = mult_operator(smooth_factor(N))
    for level in (1.0, -1.0):
        frob, screen, lower, second = _symbol_pass(T, level, level)
        assert screen <= frob / 2 and lower > second
        _assert_symbol_certified_against_svd(T, level, level)


@pytest.mark.parametrize("level", [0.75, 1.0])
def test_symbol_certified_interpolation_norms_match_the_svd(level):
    certified = 0
    for T in _interpolation_factors(12):
        if _matrix_free_alone(T, level, level) is not None:
            _assert_symbol_certified_against_svd(T, level, level)
            certified += 1
    assert certified >= 8  # most isolated tops are certified


@pytest.mark.parametrize("N", [16, 32, 64])
def test_certified_values_are_within_1e13_of_the_svd_and_never_below(N):
    # both matrix-free and on the form: each pair alone, and all pairs in
    # one call, which the level-0 pair sends to the form; "never below" up
    # to the SVD's own rounding, 1e-15 relative, as everywhere else here
    operators = [mult_operator(f) for f in (smooth_factor(N), rough_factor(N))]
    operators += [_kappa_correction(N, 2), OPERATORS["factor-2"](N)]
    pairs = PAIRS + [(1.0, -1.0), (0.75, 0.0)]
    certified = {"alone": 0, "on the form": 0}
    for T in operators:
        together = op_norms(T, pairs)
        for (a, b), value in zip(pairs, together):
            oracle = np.linalg.svd(_real_form(T, a, b), compute_uv=False)[0]
            screen = _symbol_screen(T, a, b)
            alone = _matrix_free_alone(T, a, b)
            on_the_form = None if screen is None else _dense_top(_real_form(T, a, b), *screen)
            for route, top in (("alone", alone), ("on the form", on_the_form)):
                if top is not None:
                    certified[route] += 1
                    assert oracle * (1.0 - 1e-15) <= np.sqrt(top) <= oracle * (1.0 + 1e-13), (T, a, b, route)
            assert oracle * (1.0 - 1e-15) <= value <= oracle * (1.0 + 1e-13), (T, a, b)
    assert min(certified.values()) >= 10, certified


def _count_traffic(monkeypatch):
    # real forms built and Gram eigensolves taken
    counts = {"forms": 0, "eigensolves": 0}
    cos_sin, gram_top = scale_operator._cos_sin_form, scale_operator._gram_top

    def forms(T):
        counts["forms"] += 1
        return cos_sin(T)

    def grams(R):
        counts["eigensolves"] += 1
        return gram_top(R)

    monkeypatch.setattr(scale_operator, "_cos_sin_form", forms)
    monkeypatch.setattr(scale_operator, "_gram_top", grams)
    return counts


def _count_symbol_passes(monkeypatch):
    # symbol screens, those that admit the power iteration, and the
    # level-0 adjoints built on scale_operator's matrix-free path
    counts = {"passes": 0, "admitted": 0, "adjoints": 0}
    symbol_screen, adjoint = scale_operator._symbol_screen, scale_operator.adjoint

    def passes(T, a, b):
        screen = symbol_screen(T, a, b)
        counts["passes"] += 1
        counts["admitted"] += screen is not None
        return screen

    def adjoints(T):
        counts["adjoints"] += 1
        return adjoint(T)

    monkeypatch.setattr(scale_operator, "_symbol_screen", passes)
    monkeypatch.setattr(scale_operator, "adjoint", adjoints)
    return counts


def test_one_point_sweep_builds_no_form(monkeypatch):
    # at N = 512: mult(1,0->0), of a degree-one symbol, takes the closed form;
    # mult(1,1->1), mult(-1,1->-1) and the correction are certified
    # matrix-free; no real form or Gram is left
    counts = _count_traffic(monkeypatch)
    rows = cli._sweep_rows(cli.RunConfig(N=[512], s=[0.75], seed=0, workers=1))
    assert len(rows) == 8
    assert counts == {"forms": 0, "eigensolves": 0}


def test_sobolev_evidence_traffic(monkeypatch):
    # at the parent of op_norms: 263 forms and 263 eigensolves at seed 0 with the controls on;
    # before the symmetric path, 169 Gram eigensolves, 56 of them self-adjoint level-0 pairs;
    # before the symbol's one-deletion bound, 62 forms and 113 Gram eigensolves;
    # before the closed form of a degree-one symbol, 56 forms and 56 symmetric
    # eigensolves, 6 of them the smooth factor's level-0 norms; before the
    # symmetric path was deleted, 50 forms, 50 symmetric and 95 Gram eigensolves
    counts = _count_traffic(monkeypatch)
    symbol = _count_symbol_passes(monkeypatch)
    report = suites.run_suite("sobolev_evidence", cli.RunConfig(seed=0, negative_controls=True))
    assert report["verdict"] == "pass"
    assert counts["forms"] <= 50 and counts["eigensolves"] <= 145
    # the adjoint is built only for a call whose pairs are all admitted:
    # 17 adjoints, 123 of 268 screens admitted here
    assert symbol["adjoints"] <= symbol["admitted"] < symbol["passes"], symbol


def test_atlas_workload_traffic(monkeypatch):
    # the benchmark's atlas workload: each op_norms call reads a transition's
    # dphi at (0, 0) and then (-1, -1), and the clustered (0, 0) builds the
    # form at once; 33 forms and 66 Gram eigensolves, and the 22 iterations
    # on the forms all stall, since the tops are paired; none runs matrix-free
    counts = _count_traffic(monkeypatch)
    dense, matrix_free = [], []
    dense_top, matrix_free_top = scale_operator._dense_top, scale_operator._matrix_free_top
    monkeypatch.setattr(scale_operator, "_dense_top", lambda *args: dense.append(dense_top(*args)) or dense[-1])
    monkeypatch.setattr(
        scale_operator, "_matrix_free_top", lambda *args: matrix_free.append(args) or matrix_free_top(*args)
    )
    workloads = _workloads(monkeypatch)
    report = workloads.atlas_report(cli.RunConfig(**workloads.WORKLOADS["atlas"].config(0)))
    assert report["verdict"] == "pass"
    assert counts == {"forms": 33, "eigensolves": 66}
    assert len(dense) == 22 and all(top is None for top in dense)
    assert matrix_free == []


@pytest.mark.parametrize("N", [8, 16, 32, 64, 128, 256])
def test_closed_form_agrees_with_the_gram_eigensolve(N):
    # the reference every other path is tested against, the Gram of the
    # real form, within the closed form's gate: (2N+1) eps sigma_max
    T = mult_operator(smooth_factor(N))
    norm = op_norm(T, 0.0, 0.0)
    assert norm == _tridiagonal_top(T)
    reference = _gram_top(_real_form(T, 0.0, 0.0))
    assert abs(norm - reference) <= (2 * N + 1) * EPS * reference, (norm - reference) / reference


@pytest.mark.parametrize("N", [8, 16, 32, 64, 128, 256, 512, 1024, 2048])
def test_closed_form_is_the_tridiagonal_toeplitz_top(monkeypatch, N):
    # 2 + sin(2 pi t) is the matrix with diagonal 2 and off-diagonals -+ i/2,
    # whose top is 2 + cos(pi / (2N + 2)); no real form is built
    monkeypatch.setattr(scale_operator, "_cos_sin_form", _no_form)
    exact = 2.0 + np.cos(np.pi / (2 * N + 2))
    assert abs(op_norm(mult_operator(smooth_factor(N)), 0.0, 0.0) - exact) <= 4 * EPS * exact


def _bumped_factor(N):
    # 2 + sin(2 pi t) + 1e-3 cos(4 pi t): degree two, so its symbol's tail,
    # 1e-3, is far above the gate of the closed form for degree one
    c = np.array(smooth_factor(N).coeffs)
    c[N - 2] = c[N + 2] = 5e-4
    return FourierLoop(c)


def _diagonal_pair(N):
    # the smooth factor on both components of an n = 2 loop: the same norm, but not scalar
    factor = mult_operator(smooth_factor(N)).factor * np.eye(2)
    return LevelOperator(None, N, 2, factor=factor)


@pytest.mark.parametrize(
    "make, pair",
    [
        (lambda N: mult_operator(_bumped_factor(N)), (0.0, 0.0)),  # the tail is above the gate
        (_diagonal_pair, (0.0, 0.0)),  # n = 2
        (lambda N: mult_operator(smooth_factor(N)), (0.25, 0.25)),  # not level 0
    ],
    ids=["degree-two", "n2", "level-quarter"],
)
def test_cells_outside_the_gate_keep_the_form(monkeypatch, make, pair):
    T = make(64)
    counts = _count_traffic(monkeypatch)
    norm = op_norm(T, *pair)
    assert counts == {"forms": 1, "eigensolves": 1}
    assert norm == _gram_norm(T, *pair)


def test_one_call_with_the_closed_form_stays_matrix_free(monkeypatch):
    # (1, 1) and (1, -1) are admitted and certified matrix-free, (0, 0) takes
    # the closed form: no real form, and each value as its one-pair call
    T = mult_operator(smooth_factor(512))
    pairs = [(0.0, 0.0), (1.0, 1.0), (1.0, -1.0)]
    monkeypatch.setattr(scale_operator, "_cos_sin_form", _no_form)
    assert op_norms(T, pairs) == [op_norm(T, a, b) for a, b in pairs]
    assert "matrix" not in vars(T)
