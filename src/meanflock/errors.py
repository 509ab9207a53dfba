"""Exception types shared across the package."""


class MeanflockError(Exception):
    """Base class for all package errors.

    A subclass declares ``fields``, its constructor arguments in order, which
    become its attributes, and ``message``, a format over its attributes that
    is its ``str``. A failed run's manifest records the fields, and a pickled
    error is rebuilt from them alone, so it crosses the process pool intact;
    attached objects such as ``BlowUpError.partial`` stay in the process that
    raised them.
    """

    fields: tuple = ()
    message = ""

    def __init__(self, *values):
        super().__init__(*values)
        vars(self).update(zip(self.fields, values, strict=True))

    def __str__(self):
        return self.message.format_map(vars(self))

    def __reduce__(self):
        return type(self), self.args


class DimensionMismatchError(MeanflockError):
    """An array argument, named by ``argument``, has the wrong spatial dimension."""

    fields = ("argument", "expected", "got")
    message = "argument '{argument}' has dimension {got}, expected {expected}"


class SupportCapError(MeanflockError):
    """Exact transport solver refused an instance above the support cap."""

    fields = ("combined", "cap")
    message = ("combined support size {combined} exceeds solver cap {cap}; "
               "subsample the measures before computing exact distances")


class UnsupportedTransportError(MeanflockError):
    """No exact transport route for this pair of measures.

    Only pairs where one atom count divides the other have one, in any
    dimension; every experiment builds such pairs.
    """

    fields = ("n", "m")
    message = ("no exact transport route between {n} and {m} atoms: "
               "one atom count must divide the other")


class NonFiniteCostError(MeanflockError):
    """A cost has non-finite entries.

    Finite states far apart can have a squared distance, or its p-th power,
    that overflows; no exact solver route takes such a transport cost
    matrix, and no comparison estimate is formed from one. ``what`` names
    the cost.
    """

    fields = ("what",)
    message = "{what} has non-finite entries"


class BlowUpError(MeanflockError):
    """A simulated state left the configured norm bound or became non-finite.

    ``seed`` is the master seed of the failing run when the raiser knows it.
    ``partial`` holds the states recorded before the failing step, an array
    of shape (step_index + 1, m, d) from the stepping loop that the particle
    run and the characteristics replay share; it is not pickled.
    """

    fields = ("step_index", "max_norm", "seed")
    message = "state blow-up at step {step_index}{of_seed}: max particle norm {max_norm:.3e}"

    def __init__(self, step_index: int, max_norm: float, seed=None, partial=None):
        super().__init__(step_index, max_norm, seed)
        self.partial = partial
        self.of_seed = "" if seed is None else f" of seed={seed}"


class ConfigError(MeanflockError):
    """Invalid experiment configuration; ``reason`` carries field/line context."""

    fields = ("reason",)
    message = "{reason}"
