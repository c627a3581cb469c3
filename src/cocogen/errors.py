"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CocogenError(Exception):
    """Base class for all cocogen errors."""


class DimensionMismatch(CocogenError):
    """A vector or matrix does not match the number of organizations."""


class InvariantViolation(CocogenError):
    """A model field violates its declared invariant."""

    def __init__(self, field: str, detail: str):
        super().__init__(f"{field}: {detail}")
        self.field = field
        self.detail = detail


class NonNegativeZWeight(CocogenError):
    """An organization's game weight is not strictly negative."""

    def __init__(self, org: int, value: float):
        super().__init__(f"z weight of organization {org} is {value!r}, expected < 0")
        self.org = org
        self.value = value


class InvalidScenario(CocogenError):
    """A scenario cannot be used for evaluation or solving."""


class ScenarioValidationError(InvalidScenario):
    """Aggregate of every invariant violation found in one scenario."""

    def __init__(self, violations: list[CocogenError]):
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"{len(violations)} violation(s): {lines}")
        self.violations = violations


class ZeroTotalData(CocogenError):
    """Local plus generated data is zero, so the error law is undefined."""


class InstanceTooLarge(CocogenError):
    """Grid oracle refused: the box its proof leaves holds more lattice
    points than ``solver.MAX_BOX_POINTS``, where the potential is nearly flat."""


class UnwritableOutput(CocogenError):
    """An output path given on the command line cannot be written."""


class InsufficientPoints(CocogenError):
    """Too few distinct curve points to fit the error law."""


class NonPositiveShifted(CocogenError):
    """No offset candidate gives a usable fit: some shifted error value is not
    positive, or the fitted alpha or beta is not positive."""
