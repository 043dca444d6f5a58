"""The benchmark's own result checks on its tiny specs, and on the
full-size reflect spec that the benchmark times: every operation runs once
and passes ``check`` and ``group_checks`` (``benchmarks/workloads.py``,
imported read-only)."""

from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    return workloads


def _passes_the_checks(workloads, spec, workdir):
    wl = workloads.make_workload(spec, workloads.build_bodies(spec), workdir)
    results = []
    for i, op in enumerate(wl.ops):
        result = op.run()
        wl.check(i, result)
        results.append(result)
    assert wl.group_checks(results) == {}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["reflect", "projtest", "capacity"])
def test_tiny_workload_passes_the_benchmark_checks(workloads, name, seed, tmp_path):
    _passes_the_checks(workloads, workloads.make_spec(name, seed, tiny=True), tmp_path / "work")


@pytest.mark.parametrize("seed", [1, 7])
def test_full_reflect_workload_passes_the_benchmark_checks(workloads, seed, tmp_path):
    # the Euclidean-law, lift and boundary checks on the orbits the benchmark times
    _passes_the_checks(workloads, workloads.make_spec("reflect", seed), tmp_path / "work")
