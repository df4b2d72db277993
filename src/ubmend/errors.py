"""Exception types shared across the repair pipeline."""
from __future__ import annotations


class UbmendError(Exception):
    """Base class for every error raised by this package."""


class TargetRejected(UbmendError):
    """Target failed up-front validation (missing files, token budget)."""


class ToolMissing(UbmendError):
    """The UB detection tool is not installed or not runnable."""


class DetectionTimeout(UbmendError):
    """A detection run exceeded its time budget."""


class NonUbCompileError(UbmendError):
    """The target fails ordinary compilation; out of repair scope."""


class LexFailure(UbmendError):
    """Source could not be lexed well enough to locate regions."""


class Unclassifiable(UbmendError):
    """No unsafe-operation pattern matched the region."""


class ProviderFailure(UbmendError):
    """A language-model backend call failed."""


class ReplayMiss(ProviderFailure):
    """Replay transcript has no entry for the requested prompt hash."""


class HttpFailure(ProviderFailure):
    """Live HTTP backend failed after retries."""


class TokenOverflow(ProviderFailure):
    """Prompt exceeds the configured token window; caller must shrink context."""


class AgentFailure(UbmendError):
    """A repair step could not be executed; the step is skipped."""


class NoSafeEquivalent(AgentFailure):
    """Safe-replacement agent abstained; the step is skipped as declined."""


class NoGuardExpressible(AgentFailure):
    """Assertion agent abstained; the step is skipped as declined."""


class StorageFailure(UbmendError):
    """Snapshot, knowledge-base, or transcript persistence failed."""
