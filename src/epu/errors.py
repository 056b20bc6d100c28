"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: configuration and contract
violations exit 2, parse and I/O failures exit 3, numeric divergence exits 4.
Two builtin errors are mapped too: `MemoryError`, settings that ask for more
memory than there is, exits 2, and `OSError` exits 3. The latter covers
`ChildProcessError`, an evaluation or training worker process that ended
without a reply, and a worker process the OS refuses to fork.
"""


class EpuError(Exception):
    """Base class for package errors."""


class ContractError(EpuError):
    """An operation was called outside its documented contract."""


class DimensionError(ContractError):
    """Tensor or image shapes are incompatible with the operation."""


class ConfigError(EpuError):
    """A run configuration is malformed or self-contradictory."""


class IngestionError(EpuError):
    """A dataset directory violates the expected layout."""


class ParseError(EpuError):
    """A binary or text artifact could not be decoded."""


class CheckpointError(ParseError):
    """A checkpoint file is corrupt or inconsistent with its header."""


class MetricError(EpuError):
    """A metric is undefined for the given inputs."""


class DegenerateInputError(EpuError):
    """Input carries no usable signal (e.g. single-bin histogram)."""


class TrainingDivergedError(EpuError):
    """Optimization produced a non-finite loss."""
