"""Error taxonomy shared across the package.

Every error the package raises on purpose derives from DecentsimError, so
a front end can map the whole family to exit codes: RunAbortError to 3,
everything else to 2. `cli.exit_code` is that map, for the CLI and both
experiment scripts.
"""


class DecentsimError(Exception):
    """Base of every deliberate decentsim error."""


class ConfigurationError(DecentsimError, ValueError):
    """Invalid option value or inconsistent option combination."""


class ParseError(DecentsimError, ValueError):
    """Malformed input file; message names the offending line."""


class ShapeError(DecentsimError, ValueError):
    """Array shape or length does not match the declared model."""


class PartitionError(DecentsimError, ValueError):
    """Shard assignment violates a partitioning guarantee."""


class ProtocolError(DecentsimError, RuntimeError):
    """A message expected from a neighbor is missing or malformed."""


class RunAbortError(DecentsimError, RuntimeError):
    """Training produced non-finite parameters; carries the round index."""

    def __init__(self, round_index: int, message: str = ""):
        self.round_index = round_index
        super().__init__(message or f"non-finite parameters at round {round_index}")


class UsageError(DecentsimError, ValueError):
    """Bad command line or config file; maps to exit code 2."""
