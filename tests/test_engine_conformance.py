"""Engine conformance, checked by running the engines.

Every registered engine signs one platform contract.  This module checks
it on the real code, in three clauses:

* **contract** — each ``SSSP_ENGINES`` entry solves a feasible and a
  negative-cycle graph under a ``CostAccumulator`` and a ``Tracer``.  It
  must charge work and open spans, and no span may report more work than
  its parent holds.  Handed an already-cancelled token, it must raise
  ``CancelledError`` within a few linear passes over the input.  Each
  ``ASSP_ENGINES`` oracle must charge.
* **pickling** — the same solves run on a bare ``ProcessForkJoinPool``,
  with no degradation ladder to absorb a pickling failure as a demotion,
  and with a grain small enough that every dispatch really ships blocks
  to workers.  Every task named at a ``.map_blocks(`` site in
  ``src/repro`` must be dispatched at least once.  No task argument may
  be a tracer, metrics registry, race checker, pool or lock.
* **taxonomy** — every ``repro`` function that ran during the above, the
  ASSP calls, and a ``solve_sssp_resilient`` pushed into its
  Bellman–Ford fallback (plus that fallback's rarely taken sequential
  cycle extractor) is AST-scanned.  Each ``raise`` in it must
  resolve, through its module's globals, to a ``ReproError`` subclass,
  unless the line carries ``# repro: noqa[RS014] <why>``.

``tests/fixtures/statics/toy_engine.py`` breaks every clause and each
clause must reject it.
"""

import ast
import builtins
import importlib
import importlib.util
import multiprocessing
import pickle
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.experiments import run_backend_scaling
from repro.assp.engines import ASSP_ENGINES
from repro.baselines.bellman_ford import _extract_cycle_sequential
from repro.baselines.bellman_ford_threaded import bellman_ford_parallel
from repro.core.engines import SSSP_ENGINES
from repro.core.sssp import _reduced_weights_block, solve_sssp_resilient
from repro.graph.generators import (
    hidden_potential_graph,
    planted_negative_cycle_graph,
    random_digraph,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer, trace_span, tracing
from repro.resilience.errors import (
    CancelledError,
    InputValidationError,
    ReproError,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.preempt import CancelToken, check_cancelled
from repro.runtime.backends import DegradationLadder, ProcessForkJoinPool
from repro.runtime.executor import ForkJoinPool
from repro.runtime.metrics import CostAccumulator
from repro.runtime.racecheck import RaceChecker
from repro.statics.engine import ModuleContext, dotted_name
from repro.statics.rules import _walk_scope

PKG = Path(repro.__file__).resolve().parent
HERE = Path(__file__).resolve()
TOY_PATH = HERE.parent / "fixtures" / "statics" / "toy_engine.py"

N = 300
#: blocks per dispatch = min(n // GRAIN, 4 * workers): every map_blocks
#: on these graphs ships several blocks, so every task really pickles
GRAIN = 16
#: a pre-cancelled solve may spend at most this many passes over n + m
CANCEL_PASSES = 4
#: ASSP oracles whose factory needs arguments
ASSP_KWARGS = {"fault-injecting": lambda: {"plan": FaultPlan()}}
#: objects that must never ride a task's argument tuple into a worker
UNSHIPPABLE = (Tracer, MetricsRegistry, RaceChecker, ForkJoinPool,
               ProcessForkJoinPool, DegradationLadder,
               type(threading.Lock()), type(threading.RLock()))
#: what pickling an unshippable task raises
PICKLING_ERRORS = (AttributeError, TypeError, pickle.PicklingError)


@pytest.fixture(scope="module")
def graphs():
    feasible = hidden_potential_graph(N, 4 * N, seed=1)
    cyclic, _ = planted_negative_cycle_graph(N, 4 * N, 5, seed=2)
    return {"feasible": feasible, "cycle": cyclic}


# ---------------------------------------------------------------------------
# clause (a): contract
# ---------------------------------------------------------------------------

def contract_violations(engine, graphs) -> list[str]:
    out = []
    for label, g in graphs.items():
        acc, tracer = CostAccumulator(), Tracer()
        with tracing(tracer):
            engine.solve(g, 0, acc=acc)
        if not acc.work > 0:
            out.append(f"{label}: charged no work")
        if not tracer.spans:
            out.append(f"{label}: opened no trace span")
        out += [f"{label}: {m}" for m in unconserved_spans(tracer)]

        token = CancelToken()
        token.cancel("conformance")
        tracer = Tracer()
        try:
            with tracing(tracer):
                engine.solve(g, 0, token=token)
        except CancelledError:
            spent = sum(s.work for s in tracer.spans if s.parent is None)
            if spent > CANCEL_PASSES * (g.n + g.m):
                out.append(f"{label}: spent {spent:g} work before "
                           f"observing a cancelled token (n + m = "
                           f"{g.n + g.m})")
        else:
            out.append(f"{label}: ran to completion under a cancelled "
                       "token")
    return out


def unconserved_spans(tracer: Tracer) -> list[str]:
    """Spans whose children report more work than the span itself: a
    phase charged an accumulator that never reached its caller."""
    child_work: dict[int, float] = {}
    for sp in tracer.spans:
        if sp.parent is not None:
            child_work[sp.parent] = child_work.get(sp.parent, 0.0) + sp.work
    return [f"span `{tracer.spans[sid].name}` holds "
            f"{tracer.spans[sid].work:g} work but its children report "
            f"{work:g}"
            for sid, work in sorted(child_work.items())
            if work > tracer.spans[sid].work * (1 + 1e-9) + 1e-9]


def assp_work(name: str, g) -> float:
    kwargs = ASSP_KWARGS.get(name, dict)()
    acc = CostAccumulator()
    ASSP_ENGINES.create(name, **kwargs)(g, 0, 0.25, acc)
    return acc.work


# ---------------------------------------------------------------------------
# clause (b): pickling
# ---------------------------------------------------------------------------

def record_dispatches(mp: pytest.MonkeyPatch) -> list[tuple]:
    """Every ``(task, args)`` a ProcessForkJoinPool is asked to map."""
    calls: list[tuple] = []
    original = ProcessForkJoinPool.map_blocks

    def recording(self, n, fn, args=(), **kwargs):
        calls.append((fn, tuple(args)))
        return original(self, n, fn, args, **kwargs)

    mp.setattr(ProcessForkJoinPool, "map_blocks", recording)
    return calls


def map_blocks_tasks(path: Path, module: str) -> list[tuple[str, object]]:
    """``(site, task)`` for each ``.map_blocks(n, task, ...)`` call in
    ``path``.  ``task`` is the module-level object the site names, or
    None when it names none (a lambda, a nested def).  A task that is a
    parameter of the enclosing function is forwarded from elsewhere and
    is judged at its origin."""
    ctx = ModuleContext(path.read_text(encoding="utf-8"), str(path))
    out: list[tuple[str, object]] = []
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_blocks"
                and len(node.args) >= 2):
            continue
        task = node.args[1]
        fn = ctx.enclosing_function(node)
        if (isinstance(task, ast.Name) and fn is not None
                and task.id in {a.arg for a in ast.walk(fn.args)
                                if isinstance(a, ast.arg)}):
            continue
        obj = None
        dotted = dotted_name(task)
        if dotted is not None:
            obj = importlib.import_module(module)
            for part in dotted.split("."):
                obj = getattr(obj, part, None)
        out.append((f"{path.name}:{node.lineno} `{ast.unparse(task)}`",
                    obj))
    return out


def package_tasks() -> list[tuple[str, object]]:
    out = []
    for path in sorted(PKG.rglob("*.py")):
        parts = path.relative_to(PKG).with_suffix("").parts
        module = ".".join(("repro",) + parts).removesuffix(".__init__")
        out += map_blocks_tasks(path, module)
    return out


def pickling_violations(calls, tasks) -> list[str]:
    out = []
    for site, task in tasks:
        if task is None or "<locals>" in getattr(task, "__qualname__", ""):
            out.append(f"{site}: not a module-level function, so it "
                       "cannot be pickled by reference")
        elif not any(fn is task for fn, _ in calls):
            out.append(f"{site}: never dispatched to a process pool")
    for fn, args in calls:
        for arg in args:
            if isinstance(arg, UNSHIPPABLE):
                out.append(f"task `{fn.__qualname__}` ships a "
                           f"{type(arg).__name__} in its arguments")
    return out


def _failure(label: str, fn, *args, **kwargs) -> list[str]:
    try:
        fn(*args, **kwargs)
    except Exception as exc:
        return [f"{label}: {type(exc).__name__}: {exc}"]
    return []


def process_pool_failures(graphs) -> list[str]:
    """Solve with every engine, and run every other map_blocks site, on
    bare process pools; returns what failed."""
    out = []
    with ProcessForkJoinPool(2, grain=GRAIN) as pool:
        for name in SSSP_ENGINES:
            engine = SSSP_ENGINES.create(name)
            for label, g in graphs.items():
                out += _failure(f"{name} on {label}", engine.solve, g, 0,
                                backend=pool)
        out += _failure("bellman_ford_parallel", bellman_ford_parallel,
                        graphs["feasible"], 0, backend=pool)
    out += _failure("run_backend_scaling", run_backend_scaling, n=4000,
                    n_workers=2, repeats=1)
    return out


# ---------------------------------------------------------------------------
# clause (c): exception taxonomy
# ---------------------------------------------------------------------------

class Executed:
    """Code objects of every function entered on this thread while
    active, each with the globals it ran against."""

    def __init__(self) -> None:
        self.code: dict = {}

    def _hook(self, frame, event, arg):
        if event == "call" and frame.f_code not in self.code:
            self.code[frame.f_code] = frame.f_globals

    def __enter__(self) -> "Executed":
        self._prev = sys.getprofile()
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(self._prev)


def _local_names(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 globs: dict) -> dict[str, object]:
    """Names bound inside ``fn``: imports resolve to what they import,
    everything else (parameters, assignments, ``except ... as``) to None."""
    out: dict[str, object] = {a.arg: None for a in ast.walk(fn.args)
                              if isinstance(a, ast.arg)}
    for node in _walk_scope(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out[node.id] = None
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out[node.name] = None
        elif isinstance(node, ast.ImportFrom):
            mod = importlib.import_module("." * node.level
                                          + (node.module or ""),
                                          globs.get("__package__"))
            for a in node.names:
                out[a.asname or a.name] = getattr(mod, a.name, None)
        elif isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = \
                    importlib.import_module(
                        a.name if a.asname else a.name.split(".")[0])
    return out


def _raised(node: ast.Raise, scope: dict, globs: dict) -> object:
    """What a ``raise`` names: the resolved object, None for a re-raise
    of a bound exception or a computed one, or a string when the name
    resolves to nothing."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    dotted = dotted_name(exc) if exc is not None else None
    if dotted is None:
        return None
    head, *rest = dotted.split(".")
    if head in scope:
        obj = scope[head]
    elif head in globs:
        obj = globs[head]
    elif hasattr(builtins, head):
        obj = getattr(builtins, head)
    else:
        return dotted
    for part in rest:
        obj = getattr(obj, part, None)
    return obj


def taxonomy_violations(executed: dict, root: Path) -> list[str]:
    """Raises outside the ReproError taxonomy in the executed functions
    whose source lives under ``root``."""
    out: list[str] = []
    defs: dict[str, tuple[ModuleContext, dict]] = {}
    for code, globs in executed.items():
        path = Path(code.co_filename).resolve()
        if root not in path.parents and path != root:
            continue
        if code.co_filename not in defs:
            ctx = ModuleContext(path.read_text(encoding="utf-8"),
                                str(path))
            index = {}
            for node in ast.walk(ctx.tree):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [d.lineno for d in
                                                 node.decorator_list])
                    index[(first, node.name)] = node
            defs[code.co_filename] = (ctx, index)
        ctx, index = defs[code.co_filename]
        fn = index.get((code.co_firstlineno, code.co_name))
        if fn is None:
            continue    # module bodies, class bodies, lambdas
        scope = _local_names(fn, globs)
        for node in _walk_scope(fn):
            if not isinstance(node, ast.Raise) or \
                    ctx.is_suppressed("RS014", node.lineno):
                continue
            obj = _raised(node, scope, globs)
            name = getattr(code, "co_qualname", code.co_name)
            where = f"{path.name}:{node.lineno} in `{name}`"
            if isinstance(obj, str):
                out.append(f"{where}: raise of unresolvable `{obj}`")
            elif isinstance(obj, type) and not issubclass(obj,
                                                          ReproError):
                out.append(f"{where}: raises {obj.__name__}, outside the "
                           "ReproError taxonomy")
    return sorted(set(out))


# ---------------------------------------------------------------------------
# one conformance run over the real registries
# ---------------------------------------------------------------------------

@dataclass
class ConformanceRun:
    contract: dict[str, list[str]] = field(default_factory=dict)
    assp_work: dict[str, float] = field(default_factory=dict)
    pool_failures: list[str] = field(default_factory=list)
    dispatches: list[tuple] = field(default_factory=list)
    fallback_engines: list[str] = field(default_factory=list)
    executed: dict = field(default_factory=dict)


@pytest.fixture(scope="module")
def conformance(graphs):
    out = ConformanceRun()
    nonneg = random_digraph(N, 4 * N, min_w=0, max_w=10, seed=3)
    with Executed() as ex:
        for name in SSSP_ENGINES:
            out.contract[name] = contract_violations(
                SSSP_ENGINES.create(name), graphs)
        for name in ASSP_ENGINES:
            out.assp_work[name] = assp_work(name, nonneg)
        with pytest.MonkeyPatch.context() as mp:
            out.dispatches = record_dispatches(mp)
            out.pool_failures = process_pool_failures(graphs)
        for g in graphs.values():
            res = solve_sssp_resilient(g, 0, max_work=1, backend="serial")
            out.fallback_engines.append(res.provenance.engine)
        # the fallback's sequential cycle extractor runs only when the
        # Jacobi parent pointers hold no negative loop, which no known
        # input triggers, so it is run directly
        cyclic = graphs["cycle"]
        _extract_cycle_sequential(cyclic, cyclic.w.astype(np.float64),
                                  CostAccumulator())
    out.executed = ex.code
    return out


class TestContract:
    @pytest.mark.parametrize("name", list(SSSP_ENGINES))
    def test_sssp_engine_keeps_contract(self, conformance, name):
        assert conformance.contract[name] == []

    @pytest.mark.parametrize("name", list(ASSP_ENGINES))
    def test_assp_engine_charges(self, conformance, name):
        assert conformance.assp_work[name] > 0

    def test_accepts_conformant_engine(self, graphs):
        class Conformant:
            def solve(self, g, source, *, acc=None, token=None):
                acc = acc if acc is not None else CostAccumulator()
                if token is not None:
                    token.check("conformant:entry")
                with trace_span("solve", acc=acc):
                    acc.charge(g.n + g.m, span=1.0)
                    check_cancelled("conformant:scan")

        assert contract_violations(Conformant(), graphs) == []


class TestPickling:
    def test_every_map_blocks_task_ships_by_reference(self, conformance):
        assert conformance.pool_failures == []
        assert pickling_violations(conformance.dispatches,
                                   package_tasks()) == []

    def test_rejects_lambda_task(self):
        with ProcessForkJoinPool(2, grain=GRAIN) as pool, \
                pytest.raises(PICKLING_ERRORS):
            pool.map_blocks(8 * GRAIN, lambda lo, hi: hi - lo)

    def test_rejects_lock_in_args(self):
        lock = threading.Lock()
        with pytest.MonkeyPatch.context() as mp:
            calls = record_dispatches(mp)
            with ProcessForkJoinPool(2, grain=GRAIN) as pool, \
                    pytest.raises(PICKLING_ERRORS, match="lock"):
                pool.map_blocks(8 * GRAIN, _reduced_weights_block,
                                (lock,))
        assert any("lock" in v for v in pickling_violations(calls, []))

    def test_accepts_module_task_with_plain_args(self, graphs):
        g = graphs["feasible"]
        price = np.arange(g.n, dtype=np.int64) % 7
        with pytest.MonkeyPatch.context() as mp:
            calls = record_dispatches(mp)
            with ProcessForkJoinPool(2, grain=GRAIN) as pool:
                parts = pool.map_blocks(g.m, _reduced_weights_block,
                                        (g.src, g.dst, g.w, price))
        assert len(parts) > 1
        task = [("sssp.py", _reduced_weights_block)]
        assert pickling_violations(calls, task) == []

    def test_spawn_ships_reduced_weights_block_bit_identically(self,
                                                               graphs):
        # under spawn nothing is inherited: the worker entry point and
        # the task both travel as pickled references
        g = graphs["feasible"]
        price = (np.arange(g.n, dtype=np.int64) * 37) % 101 - 50
        with ProcessForkJoinPool(
                2, grain=GRAIN * 16, liveness_timeout=30.0,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            parts = pool.map_blocks(g.m, _reduced_weights_block,
                                    (g.src, g.dst, g.w, price))
        assert len(parts) > 1
        got = np.concatenate(parts)
        want = g.w + price[g.src] - price[g.dst]
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _generic_raise(flag: bool) -> int:
    if flag:
        raise ValueError("boom")
    return 0


def _taxonomy_raise(flag: bool) -> int:
    if flag:
        raise InputValidationError("bad input")
    return 0


def _suppressed_raise(flag: bool) -> int:
    if flag:
        raise RuntimeError("boom")  # repro: noqa[RS014] fixture for the suppression path
    return 0


class TestTaxonomy:
    def test_fallback_was_forced(self, conformance):
        assert conformance.fallback_engines == ["fallback:bellman_ford"] * 2

    def test_solver_paths_raise_only_taxonomy_errors(self, conformance):
        assert taxonomy_violations(conformance.executed, PKG) == []

    def test_flags_generic_raise(self):
        with Executed() as ex:
            _generic_raise(False)
        (v,) = taxonomy_violations(ex.code, HERE)
        assert "ValueError" in v and "_generic_raise" in v

    def test_accepts_taxonomy_raise(self):
        with Executed() as ex:
            _taxonomy_raise(False)
        assert taxonomy_violations(ex.code, HERE) == []

    def test_honours_noqa(self):
        with Executed() as ex:
            _suppressed_raise(False)
        assert taxonomy_violations(ex.code, HERE) == []


# ---------------------------------------------------------------------------
# the planted toy engine: every clause must reject it
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def toy():
    spec = importlib.util.spec_from_file_location("toy_engine", TOY_PATH)
    module = importlib.util.module_from_spec(spec)
    # registered so its module-level tasks pickle by reference and only
    # the planted defects can fail
    sys.modules["toy_engine"] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules["toy_engine"]


class TestToyFixture:
    def test_contract_rejects_toy_engine(self, toy, graphs):
        found = " ".join(contract_violations(
            toy.SSSP_ENGINES.create("toy"), graphs))
        assert "charged no work" in found
        assert "opened no trace span" in found
        assert "cancelled token" in found

    def test_pickling_rejects_nested_task(self, toy):
        with ProcessForkJoinPool(2, grain=GRAIN) as pool, \
                pytest.raises(PICKLING_ERRORS, match="local"):
            toy.dispatch_nested(pool, 8 * GRAIN)
        (v,) = [v for v in pickling_violations(
            [], map_blocks_tasks(TOY_PATH, "toy_engine"))
            if "module-level" in v]
        assert "`body`" in v

    def test_pickling_rejects_lock_argument(self, toy):
        with pytest.MonkeyPatch.context() as mp:
            calls = record_dispatches(mp)
            with ProcessForkJoinPool(2, grain=GRAIN) as pool, \
                    pytest.raises(PICKLING_ERRORS, match="lock"):
                toy.dispatch_locked(pool, 8 * GRAIN)
        assert pickling_violations(calls, []) == [
            "task `_lock_task` ships a lock in its arguments"]

    def test_taxonomy_rejects_toy_engine(self, toy, graphs):
        with Executed() as ex:
            toy.SSSP_ENGINES.create("toy").solve(graphs["feasible"], 0)
        (v,) = taxonomy_violations(ex.code, TOY_PATH)
        assert "ValueError" in v and "ToyEngine.solve" in v
