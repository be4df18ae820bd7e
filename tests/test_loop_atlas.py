"""Sphere and planar atlases: transitions, compatibility, cocycle structure."""

import numpy as np
import pytest

from floerlab.charts import c1_only_chart, inversion_chart, rotation_field_chart, shear_chart
from floerlab.floer_map import SuperpositionMap, apply, dphi, invert, verify_floer_axioms
from floerlab.loop_atlas import (
    EmptyOverlapError,
    _pair_map,
    _union_reports,
    SphereChart,
    check_compatibility,
    check_transitivity,
    coverage_report,
    equatorial_corpus,
    loops_in_chart,
    planar_atlas,
    polar_loop,
    rotated_sphere_atlas,
    sphere_small_loop_atlas,
    transition,
)
from floerlab.scale_operator import weighted_singular_values
from floerlab.scale_space import FourierLoop, random_loop, to_grid

LIGHT = {"restarts": 1, "iters": 80}


def _grid_disk(seed=0, G=30, lo=0.3, hi=1.2):
    rng = np.random.default_rng(seed)
    r = rng.uniform(lo, hi, size=G)
    th = rng.uniform(0, 2 * np.pi, size=G)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


def test_north_south_transition_is_plane_inversion():
    atlas = sphere_small_loop_atlas()
    north, south = atlas.charts
    t = north.transition_to(south)
    x = _grid_disk(1)
    expected = x / np.sum(x**2, axis=1)[:, None]
    assert np.max(np.abs(t.value(x) - expected)) == 0.0
    ref = inversion_chart(0.0)
    assert np.max(np.abs(t.jacobian(x) - ref.jacobian(x))) == 0.0


def test_chart_frames_must_be_orthogonal():
    with pytest.raises(ValueError, match="orthogonal"):
        SphereChart("bad", np.diag([1.0, 2.0, 1.0]))


def test_abstract_round_trip_through_each_chart():
    atlas = sphere_small_loop_atlas()
    for chart in atlas.charts:
        pts = chart.from_coords(_grid_disk(2, lo=0.2, hi=1.0))
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
        back = chart.from_coords(chart.to_coords(pts))
        assert np.max(np.abs(back - pts)) < 1e-12


def test_corpus_fully_covered_and_polar_loop_excluded():
    atlas = sphere_small_loop_atlas()
    rep = coverage_report(atlas)
    assert rep["covered"]
    assert all(c == 2 for c in rep["counts"])
    for chart in atlas.charts:
        assert loops_in_chart([polar_loop()], chart, 16) == []


def test_transition_same_chart_is_identity():
    atlas = sphere_small_loop_atlas()
    phi = transition(atlas, "north", "north", N=16)
    u = loops_in_chart(atlas.corpus, atlas.charts[0], 16)[0]
    assert np.max(np.abs(apply(phi, u).coeffs - u.coeffs)) < 1e-14


def test_transition_requires_populated_overlap():
    atlas = sphere_small_loop_atlas()
    # a cap this deep swallows the whole sphere from the opposite side,
    # leaving nothing that clears both domains
    atlas.charts.append(SphereChart("tiny", np.eye(3), cap=1.9))
    with pytest.raises(EmptyOverlapError):
        transition(atlas, "north", "tiny", N=16)


def test_transition_round_trip_cocycle():
    atlas = sphere_small_loop_atlas()
    phi = transition(atlas, "north", "south", N=32)
    back = invert(phi)
    north = atlas.charts[0]
    for u in loops_in_chart(atlas.corpus, north, 32, also_in=(atlas.charts[1],))[:3]:
        res = (apply(back, apply(phi, u)) - u).norm(1.0)
        assert res < 1e-10


@pytest.mark.parametrize("s", [0.6, 0.9])
def test_atlas_self_compatibility(s):
    atlas = sphere_small_loop_atlas(s=s)
    rep = check_compatibility(atlas, atlas, N_sweep=(16, 32), hopm=LIGHT, max_samples=2)
    assert rep["verdict"] == "pass"
    populated = [p for p in rep["pairs"] if p["verdict"] != "empty"]
    assert len(populated) == 4


def test_compatibility_requires_shared_level():
    with pytest.raises(ValueError, match="level"):
        check_compatibility(sphere_small_loop_atlas(s=0.6), sphere_small_loop_atlas(s=0.9))


def test_transitivity_within_one_atlas():
    atlas = sphere_small_loop_atlas()
    rep = check_transitivity(atlas, atlas, atlas, max_samples=1)
    assert rep["verdict"] == "pass"
    assert rep["apply_residual_max"] < 1e-10
    assert rep["dphi_residual_max"] < 1e-9
    assert rep["pieces_agree"]
    # routing through a materialized middle loop truncates twice; that
    # error is real and reported, just not part of the gate
    assert rep["two_step_residual_max"] >= 0.0


def test_extension_constant_degrades_toward_endpoint():
    tops = {}
    for s in (0.55, 0.9):
        atlas = sphere_small_loop_atlas(s=s)
        rep = check_compatibility(atlas, atlas, N_sweep=(16, 32), hopm=LIGHT, max_samples=2)
        worst = 0.0
        for pair in rep["pairs"]:
            if pair["verdict"] == "empty" or pair["from"] == pair["to"]:
                continue
            for ax in pair["axioms"]:
                if ax["axiom"] == "(ii)1":
                    worst = max(worst, ax["sweep"][-1]["norm"])
        tops[s] = worst
    assert tops[0.55] > tops[0.9] > 1.0


def test_planar_atlas_with_kinked_chart_fails_compatibility():
    good = planar_atlas([shear_chart()], s=0.75, seed=5, amplitude=0.25, name="smooth")
    bad = planar_atlas([c1_only_chart()], s=0.75, seed=5, amplitude=0.25, name="kinked")
    rep = check_compatibility(good, bad, N_sweep=(16, 32, 64), hopm=LIGHT)
    assert rep["verdict"] == "fail"


def test_atlas_serialization_round_trip_fields():
    atlas = sphere_small_loop_atlas(corpus_size=2)
    out = atlas.to_json()
    assert out["name"] == "sphere"
    assert out["s"] == 0.75
    assert [c["name"] for c in out["charts"]] == ["north", "south"]
    assert out["corpus_size"] == 2 and len(out["corpus"]) == 2
    lean = atlas.to_json(include_corpus=False)
    assert "corpus" not in lean and lean["corpus_size"] == 2
    frame = np.array(out["charts"][1]["frame"])
    assert np.max(np.abs(frame - np.diag([1.0, 1.0, -1.0]))) == 0.0


def test_corpus_loops_near_center_rejected():
    tiny = FourierLoop(np.zeros((33, 3), dtype=complex))
    tiny = FourierLoop(tiny.coeffs + 0.01)
    atlas = sphere_small_loop_atlas()
    with pytest.raises(ValueError, match="center"):
        loops_in_chart([tiny], atlas.charts[0], 16)


def test_rotated_atlas_names_and_compatibility():
    base = sphere_small_loop_atlas()
    rot = rotated_sphere_atlas(0.3)
    assert [c.name for c in rot.charts] == ["north@0.3", "south@0.3"]
    rep = check_compatibility(base, rot, N_sweep=(16, 32), hopm=LIGHT, max_samples=1)
    assert rep["verdict"] == "pass"


def test_union_reports_equal_a_verify_on_the_union_of_the_pieces():
    # check_transitivity reads the union's axiom reports off its pieces
    # instead of verifying the union of their samples a second time
    A = sphere_small_loop_atlas()
    B = rotated_sphere_atlas(0.3)
    a, c = A.chart("north"), A.chart("south")
    N, Ns, hopm = 32, (16, 32), {"restarts": 0, "iters": 60}
    direct = _pair_map(a, c, A.s, N)
    pieces, union = [], []
    for b in B.charts:
        samples = loops_in_chart(A.corpus + B.corpus, a, N, also_in=(b, c))[:2]
        pieces.append(verify_floer_axioms(direct, samples, Ns, hopm=hopm))
        union += samples
    assert len(pieces) == 2 and len(union) == 4
    expected = verify_floer_axioms(direct, union, Ns, hopm=hopm)
    assert [r.to_json() for r in _union_reports(pieces, A.s)] == [r.to_json() for r in expected]


def _pair_gap(T, level):
    # largest |sigma_2i - sigma_2i+1| relative to sigma_1, T read at (level, level)
    sv = weighted_singular_values(T, level, level)
    return float(np.max(np.abs(sv[0::2] - sv[1::2])) / sv[0])


def test_sphere_transition_jacobians_have_paired_singular_values():
    # Moebius and anti-Moebius Jacobians are conformal, r R(theta) or r R(theta) diag(1, -1),
    # so each commutes or anticommutes with J0, the rotation by a right angle; then A^H A
    # commutes with J0 acting pointwise on real loops, and J0^2 = -1 makes its eigenspaces
    # even-dimensional.  The top is double, which no one-vector Kato-Temple bracket separates.
    N = 16
    sphere, rotated = sphere_small_loop_atlas(s=0.75), rotated_sphere_atlas(0.3, s=0.75)
    north, south = sphere.chart("north"), sphere.chart("south")
    for a, b in ((north, south), (south, north), (north, rotated.chart("north@0.3")), (north, rotated.chart("south@0.3"))):
        q = loops_in_chart(sphere.corpus + rotated.corpus, a, N, also_in=(b,))[0]
        T = dphi(SuperpositionMap(a.transition_to(b), 0.75, N), q)
        for level in (0.0, -1.0):
            assert _pair_gap(T, level) <= 1e-12, (a.name, b.name, level)
    # control: non-conformal Jacobians have simple singular values (shear: 1.5475, 1.5194, ...)
    q = random_loop(np.random.default_rng(0), 2, N, amplitude=0.4)
    for chart in (shear_chart(), rotation_field_chart(0.5)):
        T = dphi(SuperpositionMap(chart, 0.75, N), q)
        for level in (0.0, -1.0):
            assert _pair_gap(T, level) > 1e-2, (chart.name, level)
