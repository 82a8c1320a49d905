"""Exception types shared across the toolkit."""


class ChaintraceError(Exception):
    """Base class for all toolkit errors."""


# --- event model ---

class MalformedLine(ChaintraceError):
    """A raw log line (or a ground-truth or scored line) does not match its
    grammar."""


class DecodeError(ChaintraceError):
    """A canonical event record could not be decoded. ``offset`` is the
    byte offset of the fault within its line, stated in the message when
    the decoder has one; it is 0 for a record that breaks the schema."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = 0 if offset is None else offset


# --- event store ---

class OutOfOrder(ChaintraceError):
    """Append violated the monotonic (ts, id) precondition."""


class IoFailure(ChaintraceError):
    """A directory opened as an existing event store holds no store index,
    or one path is named as two outputs. A file that cannot be read or
    written stays an OSError."""


# --- pseudonymizer ---

class VaultSealed(ChaintraceError):
    """The vault was opened read-only; no new entries may be added."""


class VaultFormatError(ChaintraceError, ValueError):
    """A vault file is not a vault, or lacks or garbles a member."""


class TokenCollision(ChaintraceError):
    """Two distinct plaintexts produced the same truncated token."""


class UnknownToken(ChaintraceError):
    """Token not present in the vault."""


class InsufficientShares(ChaintraceError):
    """Fewer than the threshold number of shares supplied."""


class InconsistentShares(ChaintraceError):
    """Shares have duplicate x coordinates or mismatched lengths."""


class IntegrityFailure(ChaintraceError):
    """Decrypted plaintext does not reproduce the vault token."""


class BadParameters(ChaintraceError):
    """Invalid secret-sharing parameters."""


# --- simulator ---

class BadConfig(ChaintraceError):
    """Invalid simulation configuration."""


# --- graph engine ---

class UnsortedInput(ChaintraceError):
    """Event stream was not sorted by (ts, id)."""


class RuleCycle(ChaintraceError):
    """Sequence rules do not form a valid layer ordering."""


class UnknownInputKind(ChaintraceError):
    """A rule consumes an event type or sequence type that does not exist."""


# --- kill chain ---

class SchemaError(ChaintraceError):
    """A JSON input document is not UTF-8 JSON or does not fit its schema;
    an event to write does not fit the event schema."""


class UnknownSequenceType(ChaintraceError):
    """Kill-chain element accepts a sequence type absent from the rule set."""


# --- anomaly svm ---

class EmptyTrainingSet(ChaintraceError):
    """Standardization or training requires at least one vector."""


class DimensionMismatch(ChaintraceError):
    """Vector dimensionality differs from the model's."""


class BadHyperparameters(ChaintraceError):
    """nu outside (0, 1), gamma not finite and > 0, or infeasible alphas."""


class DidNotConverge(ChaintraceError):
    """Solver hit the pair-update cap before reaching tolerance."""


class LengthMismatch(ChaintraceError):
    """Predictions and labels differ in length."""


class EmptyInput(ChaintraceError):
    """Metric computation over zero samples."""


class ModelFormatError(ChaintraceError, ValueError):
    """A model file is not JSON, not a model, or lacks or garbles a member."""
