"""Exception hierarchy shared across prooforge modules.

Every error raised by the library derives from ProoforgeError so callers can
catch domain failures without also swallowing programming errors.
"""

from __future__ import annotations


class ProoforgeError(Exception):
    """Base class for all prooforge errors."""


class FormatError(ProoforgeError):
    """A corpus or interchange file violates the expected format.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ZeroVectorError(ProoforgeError):
    """An embedding with zero norm cannot participate in cosine similarity."""


class ProviderError(ProoforgeError):
    """A remote provider (embeddings or chat) failed.

    `key` identifies the failing input (query text, prompt digest, ...).
    """

    def __init__(self, message: str, key: str = ""):
        self.key = key
        super().__init__(message)


class ProviderTimeout(ProviderError):
    """The provider did not answer within the configured deadline."""


class RateLimited(ProviderError):
    """The provider asked us to slow down; retry_after is in seconds."""

    def __init__(self, message: str, retry_after: float = 1.0, key: str = ""):
        self.retry_after = retry_after
        super().__init__(message, key=key)


class MalformedResponse(ProviderError):
    """The provider answered with a payload we cannot interpret. Not retryable."""


class UnjudgeableResponse(ProoforgeError):
    """The judge reply exposed neither a YES nor a NO token to read."""


class SessionDesync(ProoforgeError):
    """A backend session no longer matches the state the caller believes it has."""


class PortFailure(ProoforgeError):
    """An unrecoverable backend or gateway failure, with branch context."""

    def __init__(self, message: str, context: str = ""):
        self.context = context
        super().__init__(f"{message} [{context}]" if context else message)


class DegenerateSeries(ProoforgeError):
    """A correlation over a constant or too-short series is undefined."""
