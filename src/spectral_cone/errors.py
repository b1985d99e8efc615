"""Exception types, input checks and the report schema shared across the package."""


class SpectralConeError(Exception):
    """Base class for all package-specific errors."""


class SpaceMismatchError(SpectralConeError, ValueError):
    """Operands live in different state spaces."""


class InvalidWeightsError(SpectralConeError, ValueError):
    """Mixture weights are negative or do not sum to one."""


class NotInConeError(SpectralConeError, ValueError):
    """A point fails the membership test of its state space."""


class ApexError(SpectralConeError, ValueError):
    """The cone apex was passed where a nonzero element is required."""


class DecompositionError(SpectralConeError, RuntimeError):
    """No orthogonal decomposition was found; indicates a geometry bug."""


class NonSpectralSpaceError(SpectralConeError, ValueError):
    """Operation requires a spectral state space."""


class DomainError(SpectralConeError, ValueError):
    """A scalar function was evaluated outside its domain."""


class PreconditionError(SpectralConeError, ValueError):
    """A checker precondition (e.g. reversibility, locality) failed."""


def require_count(name: str, value: int) -> None:
    """Reject a trial count or size below 1: a check over nothing passes vacuously."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def require_tolerance(name: str, value: float) -> None:
    """Reject a tolerance that is NaN, infinite or negative: the verdict would follow from it alone."""
    if not 0.0 <= value < float("inf"):  # NaN fails every comparison
        raise ValueError(f"{name} must be a finite number at least 0, got {value}")


def check_report(check: str, passed, max_gap, witness, trials, seed, **fields) -> dict:
    """The report of a check: the six fields every check shares, as JSON types, then the check's own fields."""
    return {"check": check, "pass": bool(passed), "max_gap": float(max_gap), "witness": witness,
            "trials": int(trials), "seed": int(seed), **fields}
