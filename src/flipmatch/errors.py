"""Exception types shared across the package."""

import os


class FlipmatchError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FlipmatchError):
    """A configuration file or TrainConfig field is invalid."""


class ShapeMismatch(FlipmatchError):
    """An array argument has the wrong shape for the operation."""


class TooLarge(FlipmatchError):
    """The model has too many variables for exact enumeration."""


class PartialAssignment(FlipmatchError):
    """A full assignment was required but some variables are uninstantiated."""


class SameValue(FlipmatchError):
    """A flip was requested to the value the variable already has."""


class MissingBlanket(FlipmatchError):
    """A local loss term needs the full neighborhood of the flipped variable."""


class EmptyBatch(FlipmatchError):
    """An operation over a batch received zero rows."""


class EmptyDataset(FlipmatchError):
    """A training routine received an empty dataset."""


class NonFiniteLoss(FlipmatchError):
    """A loss or gradient evaluated to NaN or infinity."""


class TooFewChildren(FlipmatchError):
    """The two-index gradient estimator needs at least two child terms."""


class LatentCoversAll(FlipmatchError):
    """Latent-variable training requires at least one observed variable."""


class CorruptFile(FlipmatchError, ValueError):
    """A model sidecar or checkpoint file is truncated or malformed."""


def read_exact(fh, size: int, path: str, what: str) -> bytes:
    """The next ``size`` bytes of binary file ``fh``, or CorruptFile naming ``path``.

    The length is checked against what is left of the file before reading,
    so a corrupt size field cannot ask for an absurd allocation.
    """
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise CorruptFile(f"{path}: truncated {what}: needs {size} bytes, {max(left, 0)} left")
    return fh.read(size)
