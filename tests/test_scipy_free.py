"""The library runs without scipy: in a subprocess whose import system
refuses every scipy module, each demo config runs through the CLI, and a
capacity estimate, both Finsler laws in the plane and in space, a 3D
projectivity residual and a 3D generic volume all give their answers."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import billiardlab

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

SCRIPT = textwrap.dedent('''
    import importlib.abc
    import math
    import sys
    from pathlib import Path


    class RefuseScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ModuleNotFoundError(f"scipy is refused here: {name}")
            return None


    sys.meta_path.insert(0, RefuseScipy())
    try:
        import scipy  # noqa: F401
    except ModuleNotFoundError:
        pass
    else:
        raise AssertionError("the finder let scipy through")

    import numpy as np

    import billiardlab as bl
    from billiardlab import cli
    from billiardlab.bodies import PolarBody

    configs, out = Path(sys.argv[1]), Path(sys.argv[2])
    ran = 0
    for cfg in sorted(configs.glob("*.cfg")):
        experiment = next(line.split("=", 1)[1].strip()
                          for line in cfg.read_text().splitlines()
                          if line.startswith("experiment"))
        assert cli.main([experiment, "--config", str(cfg), "--out", str(out / cfg.stem)]) == 0
        ran += 1
    assert ran == 6, ran

    report = bl.capacity_estimate(bl.Ball(), bl.polar_dual(bl.Superellipse(4.0)), 3,
                                  multistarts=4)
    # c(disk x B_4) = 4 min over the unit circle of |x|_4 = 4 * 2^(-1/4): the
    # diagonal 2-gon +-(1, 1)/sqrt(2), with 2^(-1/4) Superellipse(4) in the disk
    assert abs(report.value - 4.0 * 2.0 ** -0.25) < 1e-10, report.value

    planar = (bl.Ellipsoid(np.array([[0.8, 0.1], [0.1, 1.4]])),
              np.array([0.6, 0.8]), np.array([1.0, 0.3]))
    spatial = (bl.Ellipsoid(np.diag([0.25, 1.0, 0.5])),
               np.array([0.36, 0.48, 0.8]), np.array([0.2, -0.9, 0.4]))
    for I, m, direction in (planar, spatial):
        u = I._boundary_in_direction(direction)
        v1 = bl.finsler_reflect_legendre(I, m, u)
        v2 = bl.finsler_reflect_concurrency(I, m, u)
        assert np.linalg.norm(v1 - v2) < 1e-12

    sampler = bl.SphereInvolutionSampler.from_parallel_chord(
        bl.Superellipse(4.0, dim=3), [0.3, 0.5, 0.8])
    assert bl.projectivity_residual(sampler, bl.SamplePlan(n_points=60, seed=3)) >= 1e-3

    volume = PolarBody(bl.Superellipse(4.0, dim=3)).volume()
    expect = 8.0 * math.gamma(1.75) ** 3 / math.gamma(3.25)
    assert abs(volume - expect) <= 1e-4 * expect

    assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
    print("scipy-free run ok")
''')


def test_library_runs_with_scipy_refused(tmp_path):
    script = tmp_path / "refuse_scipy.py"
    script.write_text(SCRIPT)
    env = dict(os.environ, PYTHONPATH=str(Path(billiardlab.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(script), str(CONFIGS), str(tmp_path / "out")],
                          env=env, timeout=300, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "scipy-free run ok" in done.stdout
