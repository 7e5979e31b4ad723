"""Exception hierarchy for the ASIM II reproduction.

The original ASIM II compiler reports a small family of errors while reading a
specification (malformed numbers, undefined macros, circular dependencies,
missing components) and a few more at simulation time (selector index out of
range, memory address out of range).  This module defines one exception class
per error condition so that callers can react to specific failures, while
``AsimError`` remains a convenient catch-all base class.
"""

from __future__ import annotations


class AsimError(Exception):
    """Base class for every error raised by the repro package."""


# ---------------------------------------------------------------------------
# Specification / parse time errors
# ---------------------------------------------------------------------------


class SpecificationError(AsimError):
    """A specification could not be parsed or is semantically invalid."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedNumberError(SpecificationError):
    """A numeric literal could not be parsed (paper: 'Malformed number')."""


class MalformedExpressionError(SpecificationError):
    """An expression field is not a number, bit string or component ref."""


class UndefinedMacroError(SpecificationError):
    """A macro reference names a macro that was never defined."""


class MacroRedefinitionError(SpecificationError):
    """A macro name was defined twice."""


class InvalidNameError(SpecificationError):
    """A component name contains characters other than letters and digits."""


class MissingCommentError(SpecificationError):
    """The first line of a specification must be a ``#`` comment line."""


class UnknownComponentError(SpecificationError):
    """An expression references a component that is not defined."""


class DuplicateComponentError(SpecificationError):
    """Two components were defined with the same name."""


class ExpressionWidthError(SpecificationError):
    """A concatenation requires more than the 31-bit machine word."""


class CircularDependencyError(SpecificationError):
    """ALU/selector components form a combinational cycle."""

    def __init__(self, names: list[str]) -> None:
        self.names = list(names)
        super().__init__(
            "circular dependency involving " + " and/or ".join(self.names)
        )


class ValidationError(SpecificationError):
    """Aggregate error for a specification that failed validation."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        super().__init__("; ".join(problems))


class SpecFormatError(SpecificationError):
    """A JSON specification document that does not follow the interchange
    schema (:mod:`repro.rtl.interchange`).

    ``path`` locates the offending node in the document using JavaScript-ish
    syntax (``components[3].left[0].width``), so a client uploading a machine
    over the wire gets a pointer rather than prose.
    """

    def __init__(self, message: str, path: str = "$") -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# Simulation (run) time errors
# ---------------------------------------------------------------------------


class SimulationError(AsimError):
    """Base class for errors raised while a simulation is running."""

    def __init__(self, message: str, cycle: int | None = None) -> None:
        self.cycle = cycle
        if cycle is not None:
            message = f"cycle {cycle}: {message}"
        super().__init__(message)


class SelectorRangeError(SimulationError):
    """A selector index exceeded the number of cases (paper: runtime error)."""


class MemoryRangeError(SimulationError):
    """A memory address fell outside the declared 0-based range."""


class InvalidAluFunctionError(SimulationError):
    """An ALU function code outside 0..13 was requested."""


class InvalidMemoryOperationError(SimulationError):
    """A memory operation code is not a valid combination of operation bits."""


class InputExhaustedError(SimulationError):
    """A memory-mapped input was requested but no input data remains."""


class CompilationError(AsimError):
    """Generated simulator code failed to compile or execute."""


class BackendError(AsimError):
    """An unknown or misconfigured simulation backend was requested."""


class AssemblyError(AsimError):
    """A program for one of the bundled machines failed to assemble."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FaultConfigurationError(AsimError):
    """A fault-injection plan references unknown components or bits."""


class SynthesisError(AsimError):
    """The hardware construction pass could not map a component to parts."""


class ServingError(AsimError):
    """The batch/parallel serving layer was misused (closed pool, spec
    mismatch between a batch request and the pool it was submitted to)."""


class DeadlineExceededError(SimulationError, TimeoutError):
    """A run exceeded its ``timeout_seconds`` deadline.

    Raised cooperatively by the instrumentation layer between component
    evaluations (serial/lane executors, and inside process-pool
    workers), or by the process executor's wall-clock backstop when a
    worker stops responding entirely.  Inherits :class:`TimeoutError` so
    generic ``except TimeoutError`` handling works, and
    :class:`SimulationError` so it is reported per item like any other
    run failure — a timed-out run never takes its batch down.
    """


class WorkerCrashError(ServingError):
    """A request was quarantined after repeatedly killing worker processes.

    The process executor respawns a crashed pool and retries the lost
    requests; a request on whose account workers died twice is poisoned
    and reported with this error instead of being retried forever (or
    failing the whole batch)."""
