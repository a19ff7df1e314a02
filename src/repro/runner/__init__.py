"""Declarative experiment execution.

``RunSpec`` (what to run) → ``RunEngine`` + an ``Executor`` (how:
in-process, local process pool, or socket runner pool — cached,
fault-tolerant) → ``RunRecord`` (structured JSON artifact) → each
experiment module's pure ``reduce``.  See ``docs/RUNNER.md``.
"""

from repro.runner.cache import ResultCache, code_version
from repro.runner.engine import (
    CELL_PHASES,
    DEFAULT_TIMEOUT_S,
    JOURNAL_SCHEMA_VERSION,
    EngineEvent,
    JournalLockError,
    RunEngine,
    RunFailure,
    execute_spec,
    run_specs,
)
from repro.runner.executors import (
    CellOutcome,
    CellTask,
    Executor,
    LocalExecutor,
    ProcessExecutor,
    SocketExecutor,
    make_executor,
)
from repro.runner.records import (
    RunRecord,
    scenario_result_from_dict,
    scenario_result_to_dict,
)
from repro.runner.registry import FACTORIES, register, resolve
from repro.runner.spec import RunSpec, canonical_params

__all__ = [
    "CELL_PHASES",
    "DEFAULT_TIMEOUT_S",
    "CellOutcome",
    "CellTask",
    "EngineEvent",
    "Executor",
    "JOURNAL_SCHEMA_VERSION",
    "JournalLockError",
    "FACTORIES",
    "LocalExecutor",
    "ProcessExecutor",
    "ResultCache",
    "RunEngine",
    "SocketExecutor",
    "make_executor",
    "RunFailure",
    "RunRecord",
    "RunSpec",
    "canonical_params",
    "code_version",
    "execute_spec",
    "register",
    "resolve",
    "run_specs",
    "scenario_result_from_dict",
    "scenario_result_to_dict",
]
