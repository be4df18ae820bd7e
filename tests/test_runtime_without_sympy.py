"""The package runs without sympy: only chart_from_sympy needs it."""

import os
import subprocess
import sys
import textwrap

import floerlab

SCRIPT = textwrap.dedent(
    """
    import sys

    sys.modules["sympy"] = None  # any import of sympy now raises ImportError

    import numpy as np

    import floerlab.cli
    from floerlab import charts, loop_atlas
    from floerlab.floer_map import apply

    p = np.array([[0.6, -0.3], [1.1, 0.4]])
    built = [
        charts.identity_chart(),
        charts.linear_chart(np.diag([2.0, 0.5])),
        charts.shear_chart(),
        charts.rotation_field_chart(0.5),
        charts.inversion_chart(0.1),
        charts.c1_only_chart(),
    ]
    for chart in built:
        for tensor in (chart.value, chart.jacobian, chart.hessian):
            assert np.all(np.isfinite(tensor(p)))

    sphere = loop_atlas.sphere_small_loop_atlas()
    rotated = loop_atlas.rotated_sphere_atlas(0.3)
    atlas = loop_atlas.LoopAtlas(
        charts=[sphere.chart("north"), rotated.charts[0]], s=sphere.s, corpus=sphere.corpus
    )
    phi = loop_atlas.transition(atlas, "north", "north@0.3", N=16)
    u = loop_atlas.loops_in_chart(atlas.corpus, atlas.charts[0], 16, also_in=(atlas.charts[1],))[0]
    assert np.all(np.isfinite(apply(phi, u).coeffs))
    print("ok")
    """
)


def test_package_imports_and_builds_charts_without_sympy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(floerlab.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
