"""The benchmark's tracer patches the library from outside
(``benchmarks/tracing.py``): every attribute it wraps must exist, the
closed-orbit search must call its solver through the wrapped module-level
name ``dynamics.least_squares``, and uninstalling must put every original
back."""

from pathlib import Path

import pytest

import billiardlab as bl
from billiardlab import dynamics

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    return tracing


def test_tracer_hooks_resolve_and_uninstall_restores_them(tracing):
    originals = {}
    for module, names in tracing.MODULE_FUNCTIONS.items():
        for name in names:
            originals[module, name] = getattr(module, name)
    for module in (dynamics, bl.projectivity, bl.reflection):
        originals[module, "least_squares"] = module.least_squares
    tracer = tracing.Tracer()
    tracer.install()
    try:
        undo = list(tracer._undo)
        patched = {(owner, attr) for owner, attr, _ in undo}
        assert set(originals) <= patched
        for owner, attr in patched:
            assert callable(getattr(owner, attr)), (owner, attr)
        K = bl.Ball()
        bl.closed_orbit_search(K, K, 2, multistarts=2)
        names = {(span[tracing.LAYER], span[tracing.NAME]) for span in tracer.spans}
        assert ("scipy", "least_squares") in names
        assert ("dynamics", "least_squares.fun") in names
    finally:
        tracer.uninstall()
    for owner, attr, old in undo:
        assert owner.__dict__.get(attr, tracing._ABSENT) is old, (owner, attr)
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn, (owner, attr)
