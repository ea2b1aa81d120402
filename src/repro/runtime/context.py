"""The solve context: all ambient per-solve state in one immutable record.

A solve's tracer, metrics registry, phase profiler, race checker and
cancellation token are fields of one frozen :class:`SolveContext` held in
one :class:`contextvars.ContextVar` (DESIGN.md, "Solve context").  A
thread sees only its own context, so concurrent solves never share a
trace; :class:`~repro.runtime.executor.ForkJoinPool` runs each block in a
copy of the caller's.  Hot-path guards read ``current_context().<field>``
— one ``ContextVar.get`` plus an ``is None`` test when a plane is off.
Stdlib only, so every layer can import it without cycles.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Generic, TypeVar

if TYPE_CHECKING:
    from ..observability.metrics import MetricsRegistry
    from ..observability.profiler import PhaseProfiler
    from ..observability.tracer import Tracer
    from ..resilience.preempt import CancelToken
    from .racecheck import RaceChecker

__all__ = ["SolveContext", "current_context", "solve_scope"]

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class SolveContext:
    """The ambient state one solve's code runs under (all off by default).

    ``in_worker`` is True inside a process-backend worker session that
    ships telemetry back to the parent; ``worker_span`` records only then.
    """

    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None
    profiler: PhaseProfiler | None = None
    race_checker: RaceChecker | None = None
    token: CancelToken | None = None
    in_worker: bool = False


_CONTEXT: contextvars.ContextVar[SolveContext] = contextvars.ContextVar(
    "repro_solve_context", default=SolveContext())

current_context = _CONTEXT.get
"""The :class:`SolveContext` the calling code runs under."""


class solve_scope(Generic[T]):
    """Install a solve context for the enclosed block.

    The installed context is ``base`` (default: the current context) with
    ``changes`` applied, computed on entry; the previous context comes
    back on exit.  ``__enter__`` returns ``value``, the object the public
    installers hand back (``with tracing(tr) as t``).
    """

    __slots__ = ("_value", "_base", "_changes", "_reset")

    def __init__(self, value: T, base: SolveContext | None = None, /,
                 **changes: Any) -> None:
        self._value = value
        self._base = base
        self._changes = changes

    def __enter__(self) -> T:
        ctx = self._base if self._base is not None else _CONTEXT.get()
        self._reset = _CONTEXT.set(replace(ctx, **self._changes)
                                   if self._changes else ctx)
        return self._value

    def __exit__(self, *exc: Any) -> bool:
        _CONTEXT.reset(self._reset)
        return False
