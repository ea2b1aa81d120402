"""Self-tests of the benchmark's own checks.

    python3 perfbench/selftest.py

* the correctness gate counts a corrupted distance, a flipped cycle
  verdict and a non-negative "cycle" as failed solves;
* the traced run puts every patched attribute back, also when the traced
  block raises, and its per-layer self times add up to the solve wall;
* model costs repeat bit-exactly between two runs of one seed and between
  the untraced and the traced run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from layers import (  # noqa: E402
    LAYERS, LayerTracer, _repro_modules, _targets, traced)
from workloads import Workload, hidden, late_scale_cycle  # noqa: E402


def _tiny_workload() -> Workload:
    return Workload("tiny", [hidden("hp60", 60, 240, gen_seed=3),
                             late_scale_cycle("cyc60", 60, gen_seed=4)],
                    ("fischer_simple",), None, hidden("warm", 30, 120, 5))


class _Corrupting(run.Runner):
    """Hands the gate wrong answers: distances off by one on feasible
    graphs, distances instead of the cycle on cycle graphs."""

    def solve(self, g, engine):
        res, wall, acc = super().solve(g, engine)
        if res.negative_cycle is None:
            res.dist = res.dist.copy()
            res.dist[-1] += 1
        else:
            res.dist, res.negative_cycle = np.zeros(g.n), None
        return res, wall, acc


class _CycleEverywhere(run.Runner):
    """Reports a negative cycle on every graph."""

    def solve(self, g, engine):
        res, wall, acc = super().solve(g, engine)
        res.dist, res.negative_cycle = None, [0, 1]
        return res, wall, acc


def test_gate_counts_wrong_answers() -> None:
    for cls, expected in ((run.Runner, 0), (_Corrupting, 2),
                          (_CycleEverywhere, 2)):
        runner = cls(_tiny_workload(), repro)
        recs, _, _ = run.untraced_run(runner, 0)
        metrics = run.end_to_end(recs, {}, 1.0, 1.0)
        failed = sum(r["error"] is not None for r in recs)
        assert failed == expected, (cls.__name__, recs)
        assert metrics["solved_frac"]["value"] == 1 - expected / 2


def test_gate_rejects_bad_cycles() -> None:
    # 0 -> 1 -> 2 -> 1 with a negative 1-2-1 loop; 0-1-0 weighs +2
    n = 3
    src, dst = np.array([0, 1, 2, 1]), np.array([1, 2, 1, 0])
    w = np.array([1, -5, 1, 1])
    truth = oracle.ground_truth(n, src, dst, w)
    assert truth.has_cycle
    assert oracle.check(truth, n, None, [1, 2]) is None
    assert "weight 2" in oracle.check(truth, n, None, [0, 1])
    assert "non-edge" in oracle.check(truth, n, None, [0, 2])
    assert "distances" in oracle.check(truth, n, np.zeros(3), None)


def test_oracle_keeps_min_parallel_edge_and_zero_weights() -> None:
    src, dst, w = np.array([0, 0, 1]), np.array([1, 1, 2]), np.array([4, 2, 0])
    truth = oracle.ground_truth(3, src, dst, w)
    assert truth.dist.tolist() == [0.0, 2.0, 2.0]


def _namespace_snapshot() -> dict:
    owners = _repro_modules() + [owner for entries in LAYERS.values()
                                 for module, attr in entries if "." in attr
                                 for owner, _, _ in _targets(module, attr)]
    return {(id(o), name): value for o in owners
            for name, value in list(vars(o).items())}


def test_traced_restores_on_error() -> None:
    before = _namespace_snapshot()
    original = repro.solve_sssp_resilient
    try:
        with traced(LayerTracer()):
            assert repro.solve_sssp_resilient is not original
            assert repro.DiGraph.__init__ is not before[
                (id(repro.DiGraph), "__init__")]
            raise KeyError("boom")
    except KeyError:
        pass
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed, changed


def test_self_times_add_up_to_solve_wall() -> None:
    inst = late_scale_cycle("cyc300", 300, gen_seed=6)
    g = repro.DiGraph(inst.n, inst.src, inst.dst, inst.w)
    for engine in ("goldberg_parallel", "fischer_simple"):
        tracer = LayerTracer()
        with traced(tracer):
            t = time.perf_counter()
            repro.solve_sssp_resilient(g, 0, engine=engine)
            wall = time.perf_counter() - t
        assert abs(tracer.total_self_s / wall - 1) <= 0.02, (engine, wall)
        assert tracer.stats["core"].calls == 1


def _run(*args: str) -> tuple[dict, dict]:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         capture_output=True, text=True, check=True,
                         timeout=300)
    lines = out.stdout.strip().splitlines()
    prov = json.loads(lines[-2].removeprefix("provenance "))
    return prov, json.loads(lines[-1])


def test_model_costs_repeat_across_runs_and_tracing() -> None:
    common = ["--workload", "mixed-small", "--seed", "5", "--seconds", "0"]
    runs = [_run(*common, "--trace", "0"), _run(*common, "--trace", "0"),
            _run(*common, "--trace", "1")]
    for prov, result in runs:
        assert result["correct"] and result["failed"] == 0, prov
        assert all(prov["checks"].values()), prov["checks"]
    for key in ("model_work", "model_span"):
        values = {prov[key] for prov, _ in runs}
        assert len(values) == 1, (key, values)
        assert runs[0][1]["metrics"][key]["value"] == runs[0][0][key]
    assert runs[0][0]["instances"] == runs[2][0]["instances"]


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
