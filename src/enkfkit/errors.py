"""Exception types shared across the toolkit."""


class NotPositiveDefiniteError(ArithmeticError):
    """Cholesky factorization failed at a non-positive pivot.

    ``pivot`` is the 0-based index of the failing diagonal entry.
    """

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite (pivot {pivot})")


class SingularUpdateError(ArithmeticError):
    """A rank-one update denominator 1 + v'u fell below tolerance or overflowed.

    The analysis system matrix is positive definite for valid inputs, so
    hitting this usually means the inputs are corrupted or too large.
    ``level`` is the 1-based ensemble column that produced the denominator.
    """

    def __init__(self, level: int, denominator: float):
        self.level = level
        self.denominator = denominator
        # the guard passes 1e-14 <= |1 + v'u| < inf, so a failing value that
        # is not tiny is inf or nan
        state = "is numerically singular" if abs(denominator) < 1 else "overflowed"
        super().__init__(
            f"rank-one update {level} {state} (1 + v'u = {denominator:.3e})"
        )


class NumericalFailureError(ArithmeticError):
    """A numerical routine failed: an iteration did not converge, or an
    intermediate result of finite input overflowed."""


class DivergenceError(ArithmeticError):
    """Model state blew up during time integration.

    ``member`` is the 0-based ensemble column that diverged, or None when
    a single trajectory was being advanced.
    """

    def __init__(self, message: str, member: int | None = None):
        self.member = member
        if member is not None:
            message = f"{message} (ensemble member {member})"
        super().__init__(message)


class ConfigError(ValueError):
    """Invalid experiment configuration."""
