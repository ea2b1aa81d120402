"""Closed-loop benchmark of the public solver API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process solves the workload's (instance, engine) schedule in full
passes, each solve starting when the last returns, until ``--seconds`` have
passed.  Every answer is checked against scipy (``oracle.py``).  The last
line of stdout is the result JSON: end-to-end metrics with ``--trace 0``,
per-layer metrics from a run with timing wrappers (``layers.py``) with
``--trace 1``.  The line before it records the inputs and the host.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()   # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 4     # extra fresh-process set-ups; setup_s is the median
SOURCE = 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print {'setup_s': ...} and exit")
    return p.parse_args(argv)


class Runner:
    """Set-up, solving and checking for one workload."""

    def __init__(self, wl, repro) -> None:
        self.wl, self.repro = wl, repro
        self.graphs = [repro.DiGraph(i.n, i.src, i.dst, i.w)
                       for i in wl.instances]
        self.backend = (None if wl.backend is None else
                        repro.DegradationLadder.for_backend(wl.backend,
                                                            n_workers=2))
        warm = wl.warmup
        warm_g = repro.DiGraph(warm.n, warm.src, warm.dst, warm.w)
        for engine in wl.engines:
            self.solve(warm_g, engine)
        self.truths: dict[int, object] = {}
        self.seen_demotions = self.seen_losses = 0

    def solve(self, g, engine):
        acc = self.repro.CostAccumulator()
        t = time.perf_counter()
        res = self.repro.solve_sssp_resilient(g, SOURCE, engine=engine,
                                              backend=self.backend, acc=acc)
        return res, time.perf_counter() - t, acc

    def truth(self, i: int):
        """scipy's answer for instance ``i``, computed once per run."""
        if i not in self.truths:
            import oracle   # scipy loads after set-up, outside setup_s
            inst = self.wl.instances[i]
            self.truths[i] = oracle.ground_truth(inst.n, inst.src, inst.dst,
                                                 inst.w, SOURCE)
        return self.truths[i]

    def run_one(self, i: int, engine: str) -> dict:
        """One timed solve, then (untimed) its check against the oracle."""
        import oracle
        try:
            res, wall, acc = self.solve(self.graphs[i], engine)
        except Exception as exc:  # a failed solve is counted; the run goes on
            return {"wall": None, "error": f"{type(exc).__name__}: {exc}"}
        inst = self.wl.instances[i]
        error = oracle.check(self.truth(i), inst.n, res.dist,
                             res.negative_cycle)
        # a shared ladder's provenance lists are cumulative over its life
        prov = res.provenance
        new_demotions = len(prov.demotions) - self.seen_demotions
        new_losses = len(prov.worker_losses) - self.seen_losses
        self.seen_demotions = len(prov.demotions)
        self.seen_losses = len(prov.worker_losses)
        return {"wall": wall, "error": error, "m": inst.m,
                "cost": (acc.work, acc.span, acc.span_model),
                "stages": {k: v.work for k, v in acc.stages.items()},
                "fallback": prov.used_fallback or new_demotions > 0,
                "attempts": len(prov.attempts),
                "new_demotions": new_demotions, "new_losses": new_losses}

    def close(self) -> None:
        if self.backend is not None:
            self.backend.shutdown()


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def untraced_run(runner: Runner, seconds: float) -> tuple[list, dict, bool]:
    """Full passes until ``seconds`` are over.  Returns the solve records,
    the cost of each schedule item, and whether every repeat of an item
    charged bit-identical model cost."""
    recs, costs, steady = [], {}, True
    deadline = time.perf_counter() + seconds
    while True:
        for item in runner.wl.schedule:
            rec = runner.run_one(*item)
            recs.append(rec)
            if rec["wall"] is not None:
                steady &= costs.setdefault(item, rec["cost"]) == rec["cost"]
        if time.perf_counter() >= deadline:
            return recs, costs, steady


def end_to_end(recs, costs, setup_s: float, peak_rss_mb: float) -> dict:
    ok = [r for r in recs if r["wall"] is not None]
    walls = [r["wall"] for r in ok]
    failed = sum(r["error"] is not None for r in recs)
    return {
        "setup_s": metric(setup_s, "s"),
        "solve_s_p50": metric(statistics.median(walls), "s"),
        "solve_s_p90": metric(statistics.quantiles(
            walls, n=10, method="inclusive")[-1] if len(walls) > 1
            else walls[0], "s"),
        "edges_per_s": metric(sum(r["m"] for r in ok) / sum(walls),
                              "edges/s"),
        "solved_frac": metric((len(recs) - failed) / len(recs), "ratio"),
        "primary_frac": metric(
            (len(recs) - sum(r.get("fallback", False) for r in recs))
            / len(recs), "ratio"),
        "model_work": metric(sum(c[0] for c in costs.values()), "work"),
        "model_span": metric(sum(c[2] for c in costs.values()), "span"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


# layer -> acc.stages bucket holding its model work, and whether its self
# time per unit of that work is reported (the dijkstra layer also runs
# outside the final-dijkstra stage, in the successor engines' rounds)
STAGE_OF = {"reach.scc": ("scc", True), "dag01": ("dag01", True),
            "limited": ("chain-elimination", True),
            "baselines.dijkstra": ("final-dijkstra", False)}


def traced_run(runner: Runner, seconds: float):
    """Full passes of (untraced, traced) solve pairs of each schedule item
    until ``seconds`` are over.  Returns the records, the cost of each
    schedule item, the per-layer metrics and the integrity checks."""
    from layers import COUNTERS, LayerTracer, traced

    tracer = LayerTracer()
    recs, pairs, costs, costs_equal = [], [], {}, True
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not pairs:
        for item in runner.wl.schedule:
            plain = runner.run_one(*item)
            with traced(tracer):
                timed = runner.run_one(*item)
            recs += [plain, timed]
            if plain["wall"] is None or timed["wall"] is None:
                continue
            first = costs.setdefault(item, plain["cost"])
            costs_equal &= first == plain["cost"] == timed["cost"]
            pairs.append((plain, timed))

    n = len(pairs)
    traced_wall = sum(t["wall"] for _, t in pairs)
    stage_work: dict[str, float] = {}
    for _, t in pairs:
        for name, work in t["stages"].items():
            stage_work[name] = stage_work.get(name, 0.0) + work

    def per_solve(key: str) -> float:
        return sum(t[key] for _, t in pairs) / n

    st = tracer.stats
    out = {}
    for layer, stat in st.items():
        if layer == "core" or layer.startswith("resilience."):
            continue
        out[f"{layer}.self_s"] = metric(stat.self_s / n, "s")
        if layer == "dag01":   # calls that returned, of all attempts
            out["dag01.calls"] = metric((stat.calls - stat.errors) / n,
                                        "count")
            out["dag01.attempts"] = metric(stat.calls / n, "count")
        else:
            out[f"{layer}.calls"] = metric(stat.calls / n, "count")
        if layer in STAGE_OF:
            stage, ratio = STAGE_OF[layer]
            work = stage_work.get(stage, 0.0)
            out[f"{layer}.work"] = metric(work / n, "work")
            if ratio:
                out[f"{layer}.us_per_work"] = metric(
                    stat.self_s * 1e6 / work if work else 0.0, "us/work")
        for name, unit in COUNTERS.get(layer, ()):
            out[f"{layer}.{name}"] = metric(
                stat.counters.get(name, 0) / n, unit)
    out["runtime.backends.worker_losses"] = metric(per_solve("new_losses"),
                                                   "count")
    out["runtime.backends.demotions"] = metric(per_solve("new_demotions"),
                                               "count")
    out["core.self_s"] = metric(st["core"].self_s / n, "s")
    out["resilience.certificate_s"] = metric(
        st["resilience.certificate"].self_s / n, "s")
    out["resilience.validate_s"] = metric(
        st["resilience.validate"].self_s / n, "s")
    out["resilience.attempts_per_solve"] = metric(per_solve("attempts"),
                                                  "count")
    out["trace_overhead_frac"] = metric(
        traced_wall / sum(p["wall"] for p, _ in pairs) - 1, "ratio")
    coverage = tracer.total_self_s / traced_wall
    out["trace.coverage_frac"] = metric(coverage, "ratio")
    out["trace.solve_s"] = metric(traced_wall / n, "s")
    checks = {"costs_equal": costs_equal,
              "coverage_within_2pct": abs(coverage - 1) <= 0.02}
    return recs, costs, out, checks


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def probe_setup(args) -> float:
    """Set-up time of a fresh process on the same inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def provenance(wl, seed: int, runner: Runner, recs, costs) -> dict:
    import numpy
    from repro.graph.io import graph_digest

    return {
        "workload": wl.name, "seed": seed,
        "host": {"cpu_count": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "instances": [
            {"name": i.name, "family": i.family, "n": i.n, "m": i.m,
             "gen_seed": i.gen_seed, "relabel_seed": i.relabel_seed,
             "digest": graph_digest(g)}
            for i, g in zip(wl.instances, runner.graphs)],
        "engines": list(wl.engines), "backend": wl.backend,
        "solves": len(recs),
        "model_work": sum(c[0] for c in costs.values()),
        "model_span": sum(c[2] for c in costs.values()),
        "errors": sorted({r["error"] for r in recs if r["error"]}),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no solver package at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    t = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    gen_s = time.perf_counter() - t
    runner = Runner(wl, repro)
    try:
        setup_s = time.perf_counter() - T0 - gen_s
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        for i in range(len(wl.instances)):
            runner.truth(i)
        if args.trace:
            recs, costs, metrics, checks = traced_run(runner, args.seconds)
            steady = all(checks.values())
        else:
            recs, costs, steady = untraced_run(runner, args.seconds)
    finally:
        runner.close()
    if not args.trace:
        rss = peak_rss_mb()
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(recs, costs, statistics.median(setups), rss)
        checks = {"costs_steady": steady}
    failed = sum(r["error"] is not None for r in recs)
    prov = provenance(wl, args.seed, runner, recs, costs)
    prov["checks"] = checks
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and steady,
                      "attempted": len(recs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
