"""Exception types shared across the package."""


class MeanflockError(Exception):
    """Base class for all package errors.

    Errors are rebuilt from their constructor arguments alone when pickled,
    so they cross the process pool intact; attached objects such as
    ``BlowUpError.partial`` stay in the process that raised them.
    """

    def __reduce__(self):
        return type(self), self.args


class DimensionMismatchError(MeanflockError):
    """An array argument has the wrong spatial dimension.

    Carries the name of the offending argument so callers can report it.
    """

    def __init__(self, argument: str, expected: int, got: int):
        super().__init__(argument, expected, got)
        self.argument = argument
        self.expected = expected
        self.got = got

    def __str__(self):
        return f"argument '{self.argument}' has dimension {self.got}, expected {self.expected}"


class SupportCapError(MeanflockError):
    """Exact transport solver refused an instance above the support cap."""

    def __init__(self, combined: int, cap: int):
        super().__init__(combined, cap)
        self.combined = combined
        self.cap = cap

    def __str__(self):
        return (
            f"combined support size {self.combined} exceeds solver cap {self.cap}; "
            "subsample the measures before computing exact distances"
        )


class UnsupportedTransportError(MeanflockError):
    """No exact transport route for this pair of measures outside 1-D.

    Only pairs where one atom count divides the other have one; every
    experiment builds such pairs.
    """

    def __init__(self, n: int, m: int):
        super().__init__(n, m)
        self.n = n
        self.m = m

    def __str__(self):
        return (
            f"no exact transport route between {self.n} and {self.m} atoms: outside 1-D "
            "one atom count must divide the other"
        )


class NonFiniteCostError(MeanflockError):
    """A cost has non-finite entries.

    Finite states far apart can have a squared distance, or its p-th power,
    that overflows; no exact solver route takes such a transport cost
    matrix, and no comparison estimate is formed from one. ``what`` names
    the cost.
    """

    def __init__(self, what: str):
        super().__init__(what)
        self.what = what

    def __str__(self):
        return f"{self.what} has non-finite entries"


class BlowUpError(MeanflockError):
    """A simulated state left the configured norm bound or became non-finite.

    ``seed`` is the master seed of the failing run when the raiser knows it.
    ``partial`` holds the states recorded before the failing step, an array
    of shape (step_index + 1, m, d) from the stepping loop that the particle
    run and the characteristics replay share; it is not pickled.
    """

    def __init__(self, step_index: int, max_norm: float, seed=None, partial=None):
        super().__init__(step_index, max_norm, seed)
        self.step_index = step_index
        self.max_norm = max_norm
        self.seed = seed
        self.partial = partial

    def __str__(self):
        seed = "" if self.seed is None else f" of seed={self.seed}"
        return (
            f"state blow-up at step {self.step_index}{seed}: "
            f"max particle norm {self.max_norm:.3e}"
        )


class ConfigError(MeanflockError):
    """Invalid experiment configuration; message carries field/line context."""
