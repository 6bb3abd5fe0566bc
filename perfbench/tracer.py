"""Layer spans recorded from outside the program, by wrapping public functions.

:class:`Tracer` replaces each function named in :data:`LAYERS` with a wrapper
that records a span (layer, start, end, parent) in memory and restores the
originals on :meth:`Tracer.uninstall`.  A span's self time is its duration
minus the time its child spans cover, computed as the spans close.

Process pools fork, so pool workers inherit the installed wrappers and a
copy of the parent's open-span stack.  The first span a worker opens drops
the inherited spans and records the parent's innermost open span (the
``SearchOrchestrator.run`` waiting on the pool) as its parent; after each
restart the worker appends its spans to a file in the trace directory,
which the parent merges back in :meth:`Tracer.collect_workers`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

UNATTRIBUTED = "unattributed"

#: Layers whose per-call durations are summarised as p50 / p95.
_PERCENTILE_LAYERS = ("bayesopt.fit", "stabilizer.evolve")


def _rows(args, result) -> int:
    return int(args[1].shape[0])


def _batch(args, result) -> int:
    return int(result.batch_size)


def _targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, layer, size-of-work) for every wrapped function."""
    import repro.chemistry.hamiltonian as hamiltonian
    import repro.core.orchestrator as orchestrator
    import repro.core.search as search
    import repro.problems as problems
    from repro.bayesopt.forest import RandomForestRegressor
    from repro.bayesopt.optimizer import BayesianOptimizer
    from repro.chemistry.integrals import IntegralEngine
    from repro.chemistry.scf import RestrictedHartreeFock
    from repro.core.objective import CliffordObjective
    from repro.operators.pauli_sum import PauliSum
    from repro.stabilizer.expectation import PauliSumEvaluator
    from repro.stabilizer.tableau import BatchedCliffordTableau

    return [
        (problems, "get", "chemistry.build", None),
        (IntegralEngine, "electron_repulsion_tensor", "chemistry.integrals", None),
        (RestrictedHartreeFock, "run", "chemistry.scf", None),
        (hamiltonian, "exact_ground_state_energy", "chemistry.exact", None),
        (PauliSum, "to_sparse_matrix", "operators.to_sparse", None),
        (RandomForestRegressor, "fit", "bayesopt.fit", _rows),
        (RandomForestRegressor, "predict_with_uncertainty", "bayesopt.predict", None),
        (BayesianOptimizer, "minimize", "bayesopt.propose", None),
        (search, "coordinate_descent", "core.refine", None),
        (CliffordObjective, "__call__", "core.objective", None),
        (CliffordObjective, "evaluate_batch", "core.objective", None),
        (CliffordObjective, "energy", "core.objective", None),
        (BatchedCliffordTableau, "from_program", "stabilizer.evolve", _batch),
        (PauliSumEvaluator, "expectation", "stabilizer.reduce", None),
        (PauliSumEvaluator, "expectation_batch", "stabilizer.reduce", None),
        (orchestrator.SearchOrchestrator, "run", "core.orchestrator", None),
        # The restart entry point, in-process or in a pool worker: its own
        # time (search/objective construction) is orchestration work.
        (orchestrator, "run_restart", "core.orchestrator", None),
    ]


#: Every layer the trace reports, in table order.
LAYERS = (
    "chemistry.build",
    "chemistry.integrals",
    "chemistry.scf",
    "chemistry.exact",
    "operators.to_sparse",
    "bayesopt.fit",
    "bayesopt.predict",
    "bayesopt.propose",
    "core.refine",
    "core.objective",
    "stabilizer.evolve",
    "stabilizer.reduce",
    "core.orchestrator",
)


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self, directory: Path):
        self._worker_dir = Path(directory) / f"workers-{os.getpid()}"
        self._main_pid = os.getpid()
        self._pid = os.getpid()
        # span: (pid, id, parent, layer, start, end, self_s, size)
        # parent: (pid, id) of the enclosing span, or None for a root.
        self.spans: List[tuple] = []
        self._stack: List[list] = []  # [id, layer, start, child_seconds]
        self._next_id = 0
        self._inherited_parent: Optional[Tuple[int, int]] = None
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def begin(self, layer: str) -> list:
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked pool worker: the inherited spans belong
            # to the parent, whose innermost open span is this one's parent.
            self._inherited_parent = (
                (self._pid, self._stack[-1][0]) if self._stack else None
            )
            self._pid = pid
            self.spans = []
            self._stack = []
        # Ids keep counting across worker flushes, so (pid, id) stays unique.
        frame = [self._next_id, layer, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end(self, frame: list, size: int = 0) -> None:
        finished = time.perf_counter()
        self._stack.pop()
        span_id, layer, started, child_seconds = frame
        duration = finished - started
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_ref = (self._pid, parent[0])
        else:
            parent_ref = self._inherited_parent
        self.spans.append((
            self._pid, span_id, parent_ref, layer, started, finished,
            duration - child_seconds, size,
        ))

    @contextlib.contextmanager
    def span(self, layer: str):
        frame = self.begin(layer)
        try:
            yield
        finally:
            self.end(frame)

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def _wrap(self, function, layer: str, size: Optional[Callable], flush: bool):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = tracer.begin(layer)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                tracer.end(frame, size(args, result) if size and result is not None else 0)
                if flush and not tracer._stack and os.getpid() != tracer._main_pid:
                    tracer._flush_worker()

        return wrapper

    def install(self) -> None:
        """Wrap every target function."""
        for owner, name, layer, size in _targets():
            raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            is_classmethod = isinstance(raw, classmethod)
            function = raw.__func__ if is_classmethod else raw
            wrapped = self._wrap(function, layer, size, flush=name == "run_restart")
            setattr(owner, name, classmethod(wrapped) if is_classmethod else wrapped)
            self._installed.append((owner, name, raw))

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._installed):
            setattr(owner, name, raw)
        self._installed = []

    # ------------------------------------------------------------------ #
    # pool workers
    # ------------------------------------------------------------------ #
    def _flush_worker(self) -> None:
        self._worker_dir.mkdir(parents=True, exist_ok=True)
        with open(self._worker_dir / f"{self._pid}.jsonl", "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def collect_workers(self) -> None:
        """Merge in the spans pool workers wrote, and delete their files."""
        if not self._worker_dir.is_dir():
            return
        for path in sorted(self._worker_dir.glob("*.jsonl")):
            with open(path) as handle:
                for line in handle:
                    pid, span_id, parent, *rest = json.loads(line)
                    self.spans.append(
                        (pid, span_id, tuple(parent) if parent else None, *rest)
                    )
            path.unlink()
        self._worker_dir.rmdir()

    # ------------------------------------------------------------------ #
    # summary
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, float]:
        """Per-layer calls / self_s / share, plus work counts.

        ``share`` divides by busy time: the summed duration of every
        process's root spans (the main process's pass, and each restart a
        pool worker ran).  Self times partition busy time exactly, so the
        shares, ``unattributed`` included, sum to one.
        """
        spans = self.spans
        busy = sum(
            end - start
            for pid, _, parent, _, start, end, _, _ in spans
            if parent is None or parent[0] != pid
        )
        metrics: Dict[str, float] = {}
        for layer in LAYERS + (UNATTRIBUTED,):
            mine = [span for span in spans if span[3] == layer]
            self_s = sum(span[6] for span in mine)
            metrics[f"{layer}.calls"] = len(mine)
            metrics[f"{layer}.self_s"] = self_s
            metrics[f"{layer}.share"] = self_s / busy if busy > 0 else 0.0
            if layer in _PERCENTILE_LAYERS:
                durations = [(span[5] - span[4]) * 1e3 for span in mine]
                metrics[f"{layer}.p50_ms"] = _percentile(durations, 50)
                metrics[f"{layer}.p95_ms"] = _percentile(durations, 95)
        metrics["bayesopt.fit.rows"] = sum(
            span[7] for span in spans if span[3] == "bayesopt.fit"
        )
        metrics["stabilizer.points"] = sum(
            span[7] for span in spans if span[3] == "stabilizer.evolve"
        )
        metrics["trace.busy_s"] = busy
        return metrics

    def write(self, path: Path, extra: Dict[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("pid", "id", "parent", "layer", "start", "end", "self_s", "size")
        payload = dict(extra)
        payload["spans"] = [dict(zip(fields, span)) for span in self.spans]
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _percentile(values: List[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
