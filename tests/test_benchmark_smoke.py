"""The benchmark's own result checks on its tiny specs, and on the
full-size reflect and projtest specs that the benchmark times: every
operation runs once and passes ``check`` and ``group_checks``, the
projtest run checks pass, and a second projtest pass into the same work
directory rewrites every CSV with the same bytes
(``benchmarks/workloads.py``, imported read-only)."""

from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    return workloads


def _passes_the_checks(wl):
    """One pass of ``wl``: the fingerprints of results that passed every check."""
    results = []
    for i, op in enumerate(wl.ops):
        result = op.run()
        wl.check(i, result)
        results.append(result)
    assert wl.group_checks(results) == {}
    return [wl.fingerprint(i, result) for i, result in enumerate(results)]


def _workload(workloads, spec, workdir):
    return workloads.make_workload(spec, workloads.build_bodies(spec), workdir)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["reflect", "projtest", "capacity"])
def test_tiny_workload_passes_the_benchmark_checks(workloads, name, seed, tmp_path):
    _passes_the_checks(_workload(workloads, workloads.make_spec(name, seed, tiny=True),
                                 tmp_path / "work"))


@pytest.mark.parametrize("seed", [1, 7])
def test_full_reflect_workload_passes_the_benchmark_checks(workloads, seed, tmp_path):
    # the Euclidean-law, lift and boundary checks on the orbits the benchmark times
    _passes_the_checks(_workload(workloads, workloads.make_spec("reflect", seed),
                                 tmp_path / "work"))


@pytest.mark.parametrize("seed", [1, 7])
def test_full_projtest_workload_passes_the_benchmark_checks(workloads, seed, tmp_path):
    # the quadric and Superellipse(4) residual checks on the CLI runs the
    # benchmark times; the second pass rewrites the first pass's outputs
    wl = _workload(workloads, workloads.make_spec("projtest", seed), tmp_path / "work")
    first = _passes_the_checks(wl)
    assert [reason for _, reason in wl.run_checks()] == [None, None]
    assert _passes_the_checks(wl) == first
