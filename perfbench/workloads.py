"""The benchmark's workloads and the checks on their results.

Each workload turns a workload seed into a list of :class:`Operation` s (one
``repro.run`` call each) before timing starts.  A pass runs them in order
from one process — a closed loop — and checks each result as it arrives;
an operation whose call raises or whose check fails counts as failed.
Operations are kept short (at most ~3 s) so that a run repeats each one
many times.  :func:`pinned_checks` adds long, untimed operations whose
results are pinned bit-for-bit.  See README.md for why each workload exists.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import RunSpec, run
from repro.chemistry.molecules import get_preset
from repro.experiments.config import SMOKE, spread_bond_lengths

TOLERANCE = 1e-9

PINNED_H2_ENERGY = -0.9316389097681868
PINNED_H2_EVALUATIONS = 3488

#: Exact ground energies of the molecule slice, keyed by (molecule, bond
#: length); geometries do not depend on the seed, so these hold for all.
MOLECULE_SLICE_EXACT: Dict[tuple, float] = {
    ("H2", 0.37): -0.8452336692008006,
    ("H2", 2.96): -0.933708117254046,
    ("LiH", 0.8): -7.630978024382937,
    ("LiH", 4.8): -7.782356276045849,
    ("H4", 0.45): -1.3958898838541816,
    ("H4", 3.6): -1.8664167546494157,
}
MOLECULE_SLICE = ("H2", "LiH", "H4")

#: h2_pool: H2 searches per pass, and each one's restarts and budget.
H2_POOL_OPERATIONS = 4
H2_POOL_SEEDS = 2
H2_POOL_EVALUATIONS = 120

XXZ_SITES = 50


@dataclass
class Operation:
    label: str
    spec: RunSpec
    #: extra check on the report; returns an error message or None
    check: Callable[[object], Optional[str]]


@dataclass
class Outcome:
    label: str
    energy: float
    reference: float
    evaluations: int
    budget: int
    #: from the call into repro to the checked result
    seconds: float
    error: Optional[str]


def _bounded(report, exact: Optional[float]) -> Optional[str]:
    """CAFQA never ends above its reference and never below the exact energy."""
    if report.is_partial:
        return f"{report.result.num_failed_restarts} restarts failed"
    if not report.energy <= report.reference_energy + TOLERANCE:
        return f"energy {report.energy!r} above reference {report.reference_energy!r}"
    if exact is not None and not report.energy >= exact - TOLERANCE:
        return f"energy {report.energy!r} below exact {exact!r}"
    return None


def _h2_spec(seed: int, **options) -> RunSpec:
    return RunSpec(
        problem="H2",
        problem_options={"bond_length": 2.5},
        ansatz_reps=2,
        max_workers=2,
        seed=seed,
        **options,
    )


def _bounded_check(report) -> Optional[str]:
    return _bounded(report, report.exact_energy)


def h2_pool(seed: int) -> List[Operation]:
    return [
        Operation(
            f"H2@2.5x{H2_POOL_SEEDS}#{k}",
            _h2_spec(1000 * seed + k, max_evaluations=H2_POOL_EVALUATIONS,
                     num_seeds=H2_POOL_SEEDS),
            _bounded_check,
        )
        for k in range(H2_POOL_OPERATIONS)
    ]


def _pinned_h2(report) -> Optional[str]:
    error = _bounded(report, report.exact_energy)
    if error:
        return error
    if report.energy != PINNED_H2_ENERGY:
        return f"energy {report.energy!r} != pinned {PINNED_H2_ENERGY!r}"
    if report.result.total_evaluations != PINNED_H2_EVALUATIONS:
        return (
            f"{report.result.total_evaluations} evaluations != pinned "
            f"{PINNED_H2_EVALUATIONS}"
        )
    return None


def pinned_checks(workload: str, seed: int) -> List[Operation]:
    """Untimed operations with bit-for-bit pinned results.

    At seed 0, h2_pool also runs the 8-restart, 400-evaluation H2 search on
    the same 2-worker pool, whose energy and evaluation count are pinned.
    """
    if workload != "h2_pool" or seed != 0:
        return []
    spec = _h2_spec(0, max_evaluations=400, num_seeds=8)
    return [Operation("H2@2.5x8 pinned", spec, _pinned_h2)]


def molecule_slice(seed: int) -> List[Operation]:
    operations = []
    for i, molecule in enumerate(MOLECULE_SLICE):
        preset = get_preset(molecule)
        low, high = preset.bond_length_range
        for j, bond_length in enumerate(spread_bond_lengths(low, high, 2)):
            spec = RunSpec(
                problem=molecule,
                problem_options={"bond_length": bond_length},
                max_evaluations=SMOKE.search_evaluations(preset.expected_qubits),
                num_seeds=1,
                seed=1000 * seed + 100 * i + j,
                max_workers=1,
            )
            recorded = MOLECULE_SLICE_EXACT[(molecule, bond_length)]

            def check(report, recorded=recorded, qubits=preset.expected_qubits):
                if report.problem.num_qubits != qubits:
                    return f"{report.problem.num_qubits} qubits, expected {qubits}"
                exact = report.exact_energy
                if exact is None or abs(exact - recorded) > TOLERANCE:
                    return f"exact energy {exact!r} != recorded {recorded!r}"
                return _bounded(report, exact)

            operations.append(Operation(f"{molecule}@{bond_length}", spec, check))
    return operations


def xxz_chain_50(seed: int) -> List[Operation]:
    spec = RunSpec(
        problem="xxz_chain",
        problem_options={"num_sites": XXZ_SITES},
        max_evaluations=100,
        num_seeds=1,
        seed=seed,
        max_workers=1,
    )
    # Each isotropic bond XX + YY + ZZ has lowest eigenvalue -3, so no state
    # of the open chain lies below -3 per bond.
    floor = -3.0 * (XXZ_SITES - 1)

    def check(report):
        error = _bounded(report, None)
        if error is None and not report.energy >= floor - TOLERANCE:
            error = f"energy {report.energy!r} below the bond bound {floor}"
        return error

    return [Operation(f"xxz_chain({XXZ_SITES})", spec, check)]


WORKLOADS: Dict[str, Callable[[int], List[Operation]]] = {
    "h2_pool": h2_pool,
    "molecule_slice": molecule_slice,
    "xxz_chain_50": xxz_chain_50,
}


def warm_up() -> None:
    """One tiny build and search, so lazy imports finish before timing."""
    import scipy.sparse.linalg  # noqa: F401  (imported lazily by the exact solver)

    run(
        RunSpec(
            problem="H2",
            problem_options={"bond_length": 0.74},
            max_evaluations=8,
            seed=0,
            max_workers=1,
        )
    )


def run_operation(operation: Operation) -> Outcome:
    """Run and check one operation; failures are recorded, not raised."""
    budget = operation.spec.evaluation_budget()
    started = time.perf_counter()
    try:
        report = run(operation.spec)
        error = operation.check(report)
    except Exception as exc:  # noqa: BLE001 — one failed operation, keep going
        traceback.print_exc()
        return Outcome(operation.label, math.nan, math.nan, 0, budget,
                       time.perf_counter() - started, f"{type(exc).__name__}: {exc}")
    return Outcome(
        operation.label,
        report.energy,
        report.reference_energy,
        report.result.total_evaluations,
        budget,
        time.perf_counter() - started,
        error,
    )
