"""Exception types shared across the package."""


class VolstreamError(Exception):
    """Base class for all package errors."""


class ConfigError(VolstreamError):
    """A configuration value is outside its allowed range."""


class CodecError(VolstreamError):
    """A wire buffer cannot be decoded; the message names the offending field."""


class TransportError(VolstreamError):
    """An endpoint cannot make progress (closed channel, oversize frame)."""


class SyncError(VolstreamError):
    """Clock offset estimation failed after exhausting retries."""


class MetricsError(VolstreamError):
    """A latency record cannot be assembled or summarized."""
