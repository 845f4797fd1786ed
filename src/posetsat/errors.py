"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: UsageError -> 2, ContractViolationError -> 3.
"""


class PosetSatError(Exception):
    """Base class for all package errors."""


class UsageError(PosetSatError):
    """Caller violated a precondition (bad arguments, mismatched ground sets,
    non-free greedy seed, malformed input files)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PosetValidationError(UsageError):
    """A relation matrix is not a strict partial order.

    ``violations`` lists every offending cell as ``(axiom, a, b)`` tuples with
    axiom one of ``"reflexivity"``, ``"antisymmetry"``, ``"transitivity"``.
    The message names the first ``SHOWN`` of them and counts the rest, so it
    stays one short line however many cells are wrong.
    """

    SHOWN = 3

    def __init__(self, violations):
        self.violations = tuple(violations)
        shown = self.violations[:self.SHOWN]
        detail = "; ".join(f"{axiom} at ({a},{b})" for axiom, a, b in shown)
        if len(self.violations) > len(shown):
            detail += f"; and {len(self.violations) - len(shown)} more"
        super().__init__(f"not a strict partial order: {detail}")


class ContractViolationError(PosetSatError):
    """An internal promise was broken (a saturated family failed to produce a
    structure the theory guarantees, or an exact value contradicts a proved
    bound). Indicates a bug or a genuine discrepancy; always inspectable."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail
