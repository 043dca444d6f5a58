"""The benchmark's own result checks on its tiny specs: every operation of
every workload runs once and passes ``check`` and ``group_checks``
(``benchmarks/workloads.py``, imported read-only)."""

from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    return workloads


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["reflect", "projtest", "capacity"])
def test_tiny_workload_passes_the_benchmark_checks(workloads, name, seed, tmp_path):
    spec = workloads.make_spec(name, seed, tiny=True)
    wl = workloads.make_workload(spec, workloads.build_bodies(spec), tmp_path / "work")
    results = []
    for i, op in enumerate(wl.ops):
        result = op.run()
        wl.check(i, result)
        results.append(result)
    assert wl.group_checks(results) == {}
