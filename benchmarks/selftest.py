"""Self-test of the benchmark harness at its smallest size.

Run with ``python3 benchmarks/run.py --selftest`` from the repository root.
It checks three things and exits nonzero if any fails:

1. every metric that BENCHMARK.json names is emitted, with that unit, by a
   tiny run of each workload (``--trace 0`` and ``--trace 1``);
2. each checker rejects a deliberately perturbed result;
3. a holdout seed, used nowhere else, runs cleanly on every workload.
"""

import copy
import dataclasses
import json

import numpy as np

import run
import workloads
from workloads import CheckFailure

SEED = 1
HOLDOUT_SEED = 918273645


class Failures(list):
    def expect(self, ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            self.append(what)


def emitted_metrics(failures):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for name in run.WORKLOAD_NAMES:
            payload, _ = run.run_workload(name, SEED, 0.0, trace, tiny=True)
            got = {k: v["unit"] for k, v in payload["metrics"].items()}
            failures.expect(got == wanted, f"{name} --trace {trace} emits exactly the "
                            f"{section} metrics of BENCHMARK.json with their units")
            failures.expect(set(payload) == {"correct", "attempted", "failed", "metrics"},
                            f"{name} --trace {trace} result has the four contract keys")


def _first_results(name):
    spec = workloads.make_spec(name, SEED, tiny=True)
    wl = workloads.make_workload(spec, workloads.build_bodies(spec),
                                 run.OUT / f"selftest-{name}")
    return wl, [op.run() for op in wl.ops]


def _rejects(failures, check, what):
    try:
        check()
    except CheckFailure as exc:
        failures.expect(True, f"rejects {what} ({exc})")
        return
    failures.expect(False, f"rejects {what}")


def perturbed_results(failures):
    wl, results = _first_results("reflect")
    kinds = [(kind, inp) for kind, inp in wl.inputs]
    i_ball = next(i for i, (k, inp) in enumerate(kinds)
                  if k == "orbit" and inp["T"] == "t_ball" and inp["lift"])
    orbit, lift = results[i_ball]
    wl.check(i_ball, (orbit, lift))

    bent = copy.deepcopy(orbit)
    bent.directions[1] = bent.directions[1] + np.array([1e-6, 0.0])
    _rejects(failures, lambda: wl.check(i_ball, (bent, lift)),
             "a ball orbit 1e-6 off the Euclidean law")
    off = copy.deepcopy(orbit)
    off.points[0] = 1.001 * off.points[0]
    _rejects(failures, lambda: wl.check(i_ball, (off, lift)), "a bounce point off dK")
    moved = copy.deepcopy(lift)
    seg = moved.segments[0]
    moved.segments[0] = dataclasses.replace(seg, q_end=seg.q_end + 1e-6)
    _rejects(failures, lambda: wl.check(i_ball, (orbit, moved)),
             "a lift 1e-6 away from its orbit")

    i_fin = next(i for i, (k, inp) in enumerate(kinds)
                 if k == "finsler" and inp["I"] == "f_ellipse")
    v_leg, v_conc = results[i_fin]
    wl.check(i_fin, (v_leg, v_conc))
    _rejects(failures, lambda: wl.check(i_fin, (v_leg, v_conc + 1e-6)),
             "Finsler laws 1e-6 apart")
    I = wl.bodies["f_ellipse"]
    n = I.implicit_grad(v_leg)
    tangent = np.array([-n[1], n[0]]) / np.linalg.norm(n)
    slid = v_leg + 1e-6 * tangent
    _rejects(failures, lambda: wl.check(i_fin, (slid, slid)),
             "a Legendre reflection that is not involutive")

    wl, results = _first_results("projtest")
    i_q = next(i for i, r in enumerate(wl.inputs) if r.get("body") == "ellipse")
    rc, data, err = results[i_q]
    wl.check(i_q, (rc, data, err))
    header, row = data.decode("utf-8").splitlines()
    cells = row.split(",")
    cells[header.split(",").index("residual")] = "1e-05"
    bad = (header + "\n" + ",".join(cells) + "\n").encode("utf-8")
    _rejects(failures, lambda: wl.check(i_q, (rc, bad, err)), "a quadric residual of 1e-5")
    _rejects(failures, lambda: wl.check(i_q, (2, data, "numeric failure")),
             "a CLI run that exits with 2")
    _rejects(failures, lambda: workloads.check_nonquadric_residual(0.5, 1e-5),
             "a Superellipse(4) residual of 1e-5")

    tally = run.Tally()
    reference = [wl.fingerprint(i, r) for i, r in enumerate(results)]
    reference[0] = (0, b"not the CSV the CLI writes", "")
    run.timed_pass(wl, reference, tally, run.HostSpeed())
    failures.expect(tally.failed == 1, "a rerun whose CSV differs from the first pass "
                    "counts as one failed operation")

    wl, results = _first_results("capacity")
    i_m2 = next(i for i, s in enumerate(wl.inputs) if s["m"] == 2)
    orbit = results[i_m2]
    wl.check(i_m2, orbit)
    low = copy.deepcopy(orbit)
    low.action = 3.9
    _rejects(failures, lambda: wl.check(i_m2, low), "a closed orbit with action 3.9 < 4")
    off = copy.deepcopy(orbit)
    off.points[0] = 1.01 * off.points[0]
    _rejects(failures, lambda: wl.check(i_m2, off), "an orbit vertex off dK")
    high = list(results)
    for i, s in enumerate(wl.inputs):
        if s["K"] == wl.inputs[i_m2]["K"]:
            high[i] = copy.deepcopy(results[i])
            high[i].action = 4.01
    failures.expect(bool(wl.group_checks(high)),
                    "rejects a minimal action of 4.01 for a symmetric body")
    failures.expect(not wl.group_checks(results), "accepts the unperturbed capacities")


def holdout(failures):
    for name in run.WORKLOAD_NAMES:
        payload, record = run.run_workload(name, HOLDOUT_SEED, 0.0, 0, tiny=True)
        failures.expect(payload["correct"] and payload["failed"] == 0,
                        f"{name} holdout seed {HOLDOUT_SEED}: {payload['failed']} of "
                        f"{payload['attempted']} failed {record['failures'][:3]}")


def main():
    failures = Failures()
    emitted_metrics(failures)
    perturbed_results(failures)
    holdout(failures)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0
