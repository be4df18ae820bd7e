"""Superposition maps: derivatives, algebra, and the extension axioms."""

import numpy as np
import pytest

from floerlab import floer_map
from floerlab.charts import (
    c1_only_chart,
    compose_charts,
    inversion_chart,
    rotation_field_chart,
    shear_chart,
)
from floerlab.floer_map import (
    AXIOMS,
    ChartDomainError,
    apply,
    d2phi,
    dphi,
    invert,
    leibniz_check,
    verify_floer_axioms,
)
from floerlab.floer_function import driven_hamiltonian, symplectic_action
from floerlab.scale_space import (
    FourierLoop,
    constant_loop,
    default_grid_points,
    from_grid,
    random_loop,
    to_grid,
)
from floerlab.scale_operator import STABLE_RTOL, band_indices, op_norm, sweep_verdict
from floerlab.cli import RunConfig
from floerlab.suites import run_suite

HOPM = {"restarts": 1, "iters": 80}


def _loop(seed, N=16, amplitude=0.3):
    return random_loop(np.random.default_rng(seed), 2, N, amplitude=amplitude)


def test_apply_matches_pointwise_composition():
    phi = shear_chart()
    q = _loop(0)
    out = apply(phi, q)
    # shear is quadratic, so the image stays inside the alias-free band and
    # the grid values of the image loop reproduce the chart exactly
    G = default_grid_points(16)
    assert np.max(np.abs(to_grid(out, G) - phi.value(to_grid(q, G)))) < 1e-12


def test_apply_rejects_loop_outside_chart_domain():
    phi = inversion_chart(0.5)
    q = constant_loop(np.array([0.1, 0.1]), 16)
    with pytest.raises(ChartDomainError, match="inversion"):
        apply(phi, q)


@pytest.mark.parametrize("bad_s", [0.0, 1.0, 1.3, -0.2])
def test_level_parameter_outside_open_interval_rejected(bad_s):
    with pytest.raises(ValueError):
        verify_floer_axioms(shear_chart(), bad_s, [_loop(0)], N_sweep=(16, 32), hopm=HOPM)


def test_verify_floer_axioms_requires_the_level():
    with pytest.raises(TypeError):
        verify_floer_axioms(shear_chart(), [_loop(0)], (16, 32), hopm=HOPM)


def test_one_chart_and_one_action_serve_every_truncation():
    # the map and the function read N from the loop: no copy per truncation
    phi = shear_chart()
    F = symplectic_action(driven_hamiltonian())
    q16 = _loop(14)
    q32 = q16.resize(32)
    for q in (q16, q32):
        assert dphi(phi, q).N == d2phi(phi, q).N == F.hessian(q).N == q.N
        assert apply(phi, q).N == F.gradient(q).N == q.N
    # shear is quadratic: its image of a 16-mode loop has modes up to 32, so
    # N = 32 holds it whole and its first 16 modes are those at N = 16
    assert np.max(np.abs(apply(phi, q32).resize(16).coeffs - apply(phi, q16).coeffs)) < 1e-12
    assert F.value(q32) == pytest.approx(F.value(q16), rel=1e-12)


def test_dphi_matches_richardson_difference():
    phi = rotation_field_chart(0.6)
    q, xi = _loop(1), _loop(2)

    def delta(h):
        plus = apply(phi, FourierLoop(q.coeffs + h * xi.coeffs))
        minus = apply(phi, FourierLoop(q.coeffs - h * xi.coeffs))
        return (plus.coeffs - minus.coeffs) / (2 * h)

    fd = (4.0 * delta(1e-4) - delta(2e-4)) / 3.0
    lin = dphi(phi, q).apply(xi)
    assert np.max(np.abs(lin.coeffs - fd)) / xi.norm(0.0) < 1e-9


def test_d2phi_symmetric_and_matches_difference_of_dphi():
    phi = rotation_field_chart(0.6)
    q, xi, eta = _loop(3), _loop(4), _loop(5)
    K = d2phi(phi, q)
    assert np.max(np.abs(K(xi, eta).coeffs - K(eta, xi).coeffs)) < 1e-13
    h = 1e-5
    plus = dphi(phi, FourierLoop(q.coeffs + h * xi.coeffs)).apply(eta)
    minus = dphi(phi, FourierLoop(q.coeffs - h * xi.coeffs)).apply(eta)
    fd = (plus.coeffs - minus.coeffs) / (2 * h)
    assert np.max(np.abs(K(xi, eta).coeffs - fd)) < 1e-8


def test_chain_rule_away_from_band_edge():
    N = 32
    psi = shear_chart()
    phi = rotation_field_chart(0.5)
    q = _loop(6, N=N)
    lhs = dphi(compose_charts(psi, phi), q).matrix
    rhs = dphi(psi, apply(phi, q)).matrix @ dphi(phi, q).matrix
    # truncating the inner image bends the identity at the band edge; the
    # interior modes agree to roundoff
    band = band_indices(N, 2, N // 2)
    assert np.max(np.abs((lhs - rhs)[np.ix_(band, band)])) < 1e-12


def test_compose_evaluates_like_nested_application():
    N = 16
    psi = shear_chart()
    phi = rotation_field_chart(0.5)
    q = _loop(7)
    chi = compose_charts(psi, phi)
    G = default_grid_points(N)
    direct = psi.value(phi.value(to_grid(q, G)))
    # same single projection to the mode window, no intermediate truncation
    assert np.max(np.abs(apply(chi, q).coeffs - from_grid(direct, N).coeffs)) < 1e-15


def test_invert_round_trips_and_rejects_inverse_less_chart():
    phi = shear_chart()
    q = _loop(8)
    back = apply(invert(phi), apply(phi, q))
    assert np.max(np.abs(back.coeffs - q.coeffs)) < 1e-10
    with pytest.raises(ValueError, match="no inverse"):
        invert(c1_only_chart())


def test_axioms_pass_for_smooth_charts():
    rng = np.random.default_rng(9)
    samples = [random_loop(rng, 2, 16, amplitude=0.3) for _ in range(2)]
    phi = compose_charts(shear_chart(), rotation_field_chart(0.4))  # mix the two builtin smooth charts
    reports = verify_floer_axioms(phi, 0.75, samples, N_sweep=(16, 32), hopm=HOPM)
    assert [r["axiom"] for r in reports] == ["(i)1", "(i)2", "(ii)1", "(ii)2"]
    assert all(r["verdict"] == "pass" for r in reports)


def test_c1_chart_fails_second_axiom_family():
    # the second derivative jumps across x = 0, so the sample loop must
    # actually cross that line or the probe never sees the kink
    N = 16
    c = np.zeros((2 * N + 1, 2), dtype=complex)
    c[N + 1, 0] = 0.5
    c[N - 1, 0] = 0.5
    c[N, 1] = 0.1
    base = FourierLoop(c)
    pert = random_loop(np.random.default_rng(2), 2, N, amplitude=0.05)
    samples = [base, FourierLoop(base.coeffs + pert.coeffs)]
    phi = c1_only_chart()
    reports = {r["axiom"]: r for r in verify_floer_axioms(phi, 0.75, samples, N_sweep=(16, 32, 64), hopm=HOPM)}
    assert reports["(ii)2"]["verdict"] == "fail"
    norms = [e["norm"] for e in reports["(ii)2"]["sweep"]]
    assert norms[-1] > 1.4 * norms[0]
    assert reports["(i)1"]["verdict"] == "pass"
    assert reports["(i)2"]["verdict"] == "pass"


def test_leibniz_residual_is_second_order():
    psi = shear_chart()
    phi = rotation_field_chart(0.5)
    # steps stay large enough that the h^2 term dominates cancellation noise
    rep = leibniz_check(psi, phi, _loop(11), _loop(12), _loop(13), steps=(1e-2, 3e-3, 1e-3))
    assert abs(rep["slope"] - 2.0) < 0.2


def test_suite_leibniz_slope_is_second_order_at_seed_13():
    # at this seed a step of 1e-5 puts the remainder into roundoff and bends the slope to 1.57
    report = run_suite("floer_map", RunConfig(seed=13))
    check = next(c for c in report["checks"] if c["name"] == "second-order remainder slope for the composite")
    assert check["passed"]
    assert check["slope"] == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("seed", [1, 6, 8, 10, 11])
def test_suite_c1_negative_control_bites(seed):
    # at these seeds neither control sample's x-component used to cross 0,
    # so sign(x) was constant on the loops and the control was smooth there
    report = run_suite("floer_map", RunConfig(seed=seed, negative_controls=True))
    assert report["verdict"] == "pass", [c["name"] for c in report["checks"] if not c["passed"]]


def _per_sample_reports(phi, s, samples, Ns, hopm):
    # the axiom reports built one norm call at a time: each axiom, N and sample alone
    def axiom_norm(axiom, q):
        if axiom == "(i)1":
            return op_norm(dphi(phi, q), 0.0, 0.0)
        if axiom == "(i)2":
            return op_norm(dphi(phi, q), -1.0, -1.0)
        levels = (s, 0.0, 0.0) if axiom == "(ii)1" else (1.0 + s, -1.0, -1.0)
        return d2phi(phi, q).norm(*levels, **hopm)

    reports = []
    base = samples[0].resize(Ns[-1])
    bump = floer_map.MODULUS_STEP * floer_map._unit_direction(base)
    for axiom in AXIOMS:
        norms = [max(axiom_norm(axiom, q.resize(N)) for q in samples) for N in Ns]
        if axiom in ("(i)1", "(i)2"):
            lvl = 0.0 if axiom == "(i)1" else -1.0
            modulus = op_norm(dphi(phi, base + bump) - dphi(phi, base), lvl, lvl)
        else:
            levels = (s, 0.0, 0.0) if axiom == "(ii)1" else (1.0 + s, -1.0, -1.0)
            modulus = (d2phi(phi, base + bump) - d2phi(phi, base)).norm(*levels, **hopm)
        modulus /= bump.norm(1.0)
        ok = sweep_verdict(norms, STABLE_RTOL) == "stable" and np.isfinite(modulus)
        reports.append((axiom, norms, modulus, "pass" if ok else "fail"))
    return reports


def _c1_samples(N=16):
    c = np.zeros((2 * N + 1, 2), dtype=complex)
    c[N + 1, 0] = c[N - 1, 0] = 0.5
    c[N, 1] = 0.1
    base = FourierLoop(c)
    return [base, base + random_loop(np.random.default_rng(2), 2, N, amplitude=0.05), _loop(3)]


@pytest.mark.parametrize(
    "chart, samples",
    [(rotation_field_chart(0.4), [_loop(9), _loop(10)]), (c1_only_chart(), _c1_samples())],
    ids=["rotation", "c1"],
)
def test_axiom_reports_match_per_sample_norms(chart, samples):
    Ns = (16, 32, 64)
    got = verify_floer_axioms(chart, 0.75, samples, Ns, hopm=HOPM)
    want = _per_sample_reports(chart, 0.75, samples, Ns, HOPM)
    assert [r["verdict"] for r in got] == [w[3] for w in want]
    for r, (axiom, norms, modulus, _) in zip(got, want):
        assert r["axiom"] == axiom
        assert [e["N"] for e in r["sweep"]] == list(Ns)
        for e, v in zip(r["sweep"], norms):
            assert abs(e["norm"] - v) <= 1e-13 * v
        assert abs(r["continuity_modulus"] - modulus) <= 1e-13 * modulus


def test_axioms_build_each_derivative_once_and_batch_per_truncation(monkeypatch):
    calls = {"dphi": 0, "d2phi": 0, "trilinear_norms": 0}

    def counted(name):
        fn = getattr(floer_map, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(floer_map, name, wrapper)

    for name in calls:
        counted(name)
    samples = [_loop(9), _loop(10), _loop(11)]
    Ns = (16, 32, 64)
    verify_floer_axioms(rotation_field_chart(0.4), 0.75, samples, Ns, hopm=HOPM)
    # one per (N, sample), plus the moved base point of the modulus
    assert calls == {"dphi": 9 + 1, "d2phi": 9 + 1, "trilinear_norms": 3}
