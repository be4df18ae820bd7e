"""Multiplication norms, duality, and embedding constants across truncations."""

import numpy as np
import pytest

from floerlab.cli import RunConfig
from floerlab.scale_operator import check_interpolation
from floerlab.scale_space import FourierLoop, LevelError, random_loop
from floerlab.suites import INTERPOLATION_SAMPLES, run_suite
from floerlab.sobolev_evidence import (
    SIGNATURES,
    c0_embedding_constant,
    dual_estimate_check,
    dual_pairing_check,
    embedding_constant,
    extremal_profile,
    holder_embedding_check,
    holder_seminorm,
    mult_norm_sweep,
    mult_operator,
    rough_factor,
    signature_ordering_check,
    smooth_factor,
    sup_norm,
)

# frozen from the converged sweeps of the fixed two-mode smooth factor;
# the level-1 norms are Toeplitz invariants of the factor alone, so they
# do not move with N at all
NORM_111 = 5.302390163577119
NORM_DUAL = 2.006312210429215
HOLDER_06_TOP = 1.5701  # s = 0.6 constant at N = 256


def test_smooth_factor_level1_norm_is_truncation_invariant():
    rep = mult_norm_sweep(smooth_factor(16), "(1,1->1)", N_sweep=(16, 64, 256))
    norms = [e["norm"] for e in rep["sweep"]]
    assert rep["verdict"] == "bounded"
    for v in norms:
        assert abs(v - NORM_111) < 1e-9


def test_smooth_factor_dual_signature_norm_frozen():
    rep = mult_norm_sweep(smooth_factor(16), "(-1,1->-1)", N_sweep=(16, 64, 256))
    assert rep["verdict"] == "bounded"
    for e in rep["sweep"]:
        assert abs(e["norm"] - NORM_DUAL) < 1e-9


def test_low_signature_norm_approaches_sup():
    rep = mult_norm_sweep(smooth_factor(16), "(1,0->0)", N_sweep=(16, 64, 128))
    final = rep["sweep"][-1]["norm"]
    # sup of 2 - cos(2 pi t) ... the factor's sup norm caps the (1,0->0)
    # norm and the gap closes as the band widens
    assert rep["verdict"] == "bounded"
    assert final <= sup_norm(smooth_factor(128)) + 1e-9
    assert abs(final - 3.0) / 3.0 < 0.05


def test_sup_signature_matches_low_signature_numerically():
    g = smooth_factor(64)
    a = mult_operator(g)
    b = mult_operator(g)
    assert np.max(np.abs(a.matrix - b.matrix)) == 0.0
    # both signatures read the one operator at the same level pair
    low = mult_norm_sweep(g, "(1,0->0)", N_sweep=(16, 32))
    sup = mult_norm_sweep(g, "(C0,0->0)", N_sweep=(16, 32))
    assert low["sweep"] == sup["sweep"] and sup["signature"] == "(C0,0->0)"


def test_rough_factor_norms_grow_without_bound():
    rep = mult_norm_sweep(rough_factor, "(1,1->1)", N_sweep=(16, 32, 64, 128, 256))
    norms = [e["norm"] for e in rep["sweep"]]
    assert rep["verdict"] == "unbounded"
    assert norms[-1] > 2.0 * norms[0]
    assert all(b > a for a, b in zip(norms, norms[1:]))


def test_one_point_sweeps_are_insufficient():
    # the rough factor is the unbounded control, but one truncation cannot show it
    assert mult_norm_sweep(rough_factor, "(1,1->1)", N_sweep=(64,))["verdict"] == "insufficient"
    assert holder_embedding_check(0.5, N_sweep=(64,))["verdict"] == "insufficient"


def test_unknown_signature_rejected():
    with pytest.raises(ValueError, match="signature"):
        mult_norm_sweep(smooth_factor(8), "(0,0->0)")


def test_dual_pairing_associates():
    rng = np.random.default_rng(0)
    for _ in range(5):
        fstar = random_loop(rng, 1, 16, amplitude=1.0)
        g = random_loop(rng, 1, 16, amplitude=1.0)
        h = random_loop(rng, 1, 16, amplitude=1.0)
        rep = dual_pairing_check(fstar, g, h)
        assert rep["passed"], rep
        assert rep["residual"] < 1e-10


def test_signature_ordering_chain():
    rep = signature_ordering_check(smooth_factor(64))
    assert rep["passed"]
    assert rep["op_norm"] <= rep["sup"] <= rep["c0_bound"]


def test_dual_estimate_mirrors_positive_levels():
    for g in (smooth_factor(32), rough_factor(32)):
        rep = dual_estimate_check(g)
        assert rep["passed"]
        assert rep["rel_gap"] < 1e-10


def test_c0_constant_closed_form():
    N = 8
    k = np.arange(-N, N + 1)
    expected = np.sqrt(np.sum(1.0 / (1.0 + 4 * np.pi**2 * k**2)))
    assert abs(c0_embedding_constant(N) - expected) < 1e-14


@pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
def test_holder_constants_stabilize_above_endpoint(s):
    rep = holder_embedding_check(s)
    assert rep["verdict"] == "stable"
    assert rep["alpha"] == pytest.approx(s - 0.5)


def test_holder_constant_frozen_at_top_truncation():
    rep = holder_embedding_check(0.6)
    top = rep["sweep"][-1]
    assert top["N"] == 256
    assert abs(top["ratio"] - HOLDER_06_TOP) < 2e-4


def test_extremal_profile_attains_the_constant():
    for N, s in [(32, 0.6), (64, 0.9)]:
        c, _ = embedding_constant(N, s)
        u = extremal_profile(N, s)
        attained = holder_seminorm(u, s - 0.5) / u.norm(s)
        assert abs(attained / c - 1.0) < 1e-6


@pytest.mark.parametrize("s", [0.5, 0.75])
def test_holder_check_samples_past_the_fine_grid(s):
    # the 4097 modes of N = 2048 do not fit on FINE_GRID = 4096 points: the
    # seminorm samples on 8192, and the profile still attains the constant
    rep = holder_embedding_check(s, (1024, 2048))
    assert [e["N"] for e in rep["sweep"]] == [1024, 2048]
    for e in rep["sweep"]:
        assert abs(e["attained"] - 1.0) < 1e-6, e


def test_endpoint_constant_keeps_growing():
    rep = holder_embedding_check(0.5)
    assert rep["verdict"] == "growing"
    ratios = [e["ratio"] for e in rep["sweep"]]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("bad", [0.4, 1.5, 2.0])
def test_embedding_level_range_enforced(bad):
    with pytest.raises(LevelError):
        holder_embedding_check(bad)


def test_signature_table_is_the_documented_set():
    assert set(SIGNATURES) == {"(1,1->1)", "(C0,0->0)", "(1,0->0)", "(-1,1->-1)"}


def test_suite_worst_slack_is_the_largest_slack_over_the_samples():
    # the field once started at 0.0 and every slack is negative, so it read 0.0
    report = run_suite("sobolev_evidence", RunConfig(seed=0))
    check = next(c for c in report["checks"] if c["name"] == "multiplication norms interpolate between the end levels")
    rng = np.random.default_rng(3)  # the suite's rng, seed + 3; the interpolation samples are its first draws
    worst = {}
    for _ in range(INTERPOLATION_SAMPLES):
        T = mult_operator(random_loop(rng, 1, 64, top_mode=5, amplitude=0.8))
        for rep in check_interpolation(T, (0.25, 0.5, 0.75)):
            worst[str(rep["s"])] = max(worst.get(str(rep["s"]), -np.inf), rep["norm_s"] - rep["bound"])
    assert check["passed"]
    assert check["worst_slack"] == worst
    assert all(v < 0.0 for v in worst.values())
