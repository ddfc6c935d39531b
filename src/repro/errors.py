"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  Sub-hierarchies mirror the package
layout: toolkit errors, network errors, server errors and coupling errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Toolkit errors
# ---------------------------------------------------------------------------

class ToolkitError(ReproError):
    """Base class for UI-toolkit errors."""


class UnknownAttributeError(ToolkitError, AttributeError):
    """An attribute name is not defined for the widget type."""

    def __init__(self, widget_type: str, attribute: str):
        super().__init__(
            f"widget type {widget_type!r} has no attribute {attribute!r}"
        )
        self.widget_type = widget_type
        self.attribute = attribute


class AttributeValidationError(ToolkitError, ValueError):
    """A value failed an attribute's validator."""

    def __init__(self, attribute: str, value: object, reason: str):
        super().__init__(
            f"invalid value {value!r} for attribute {attribute!r}: {reason}"
        )
        self.attribute = attribute
        self.value = value
        self.reason = reason


class DuplicateChildError(ToolkitError):
    """A widget already has a child with the requested name."""


class DestroyedWidgetError(ToolkitError):
    """An operation was attempted on a destroyed widget."""


class PathError(ToolkitError, KeyError):
    """A pathname did not resolve to a widget."""

    def __init__(self, pathname: str):
        super().__init__(f"no widget at path {pathname!r}")
        self.pathname = pathname


class BuilderError(ToolkitError):
    """A declarative UI specification was malformed."""


# ---------------------------------------------------------------------------
# Network errors
# ---------------------------------------------------------------------------

class NetworkError(ReproError):
    """Base class for transport/codec errors."""


class CodecError(NetworkError, ValueError):
    """A wire message could not be encoded or decoded.

    Raised out of ``StreamDecoder.feed``, it carries the messages the
    same chunk completed ahead of the bad frame (:attr:`decoded`): a
    transport delivers those before it closes the connection.
    """

    decoded = ()


class UnknownCommunicatorError(NetworkError, ValueError):
    """``Session(backend=...)`` names none of the backends that exist."""

    def __init__(self, name: str, known=()):
        known = tuple(known)
        hint = f"; backends: {list(known)}" if known else ""
        super().__init__(f"unknown backend {name!r}{hint}")
        self.name = name
        self.known = known


class TransportClosedError(NetworkError):
    """An operation was attempted on a closed transport endpoint."""


class DeliveryError(NetworkError):
    """A message could not be delivered (unknown peer, dropped link)."""


# ---------------------------------------------------------------------------
# Server errors
# ---------------------------------------------------------------------------

class ServerError(ReproError):
    """Base class for central-server errors."""


class NotRegisteredError(ServerError):
    """An instance id is unknown to the server's registration records."""

    def __init__(self, instance_id: str):
        super().__init__(f"application instance {instance_id!r} is not registered")
        self.instance_id = instance_id


class AlreadyRegisteredError(ServerError):
    """An instance id is already present in the registration records."""


class PermissionDeniedError(ServerError):
    """The access-permission table forbids the requested operation."""

    def __init__(self, user: str, target: str, right: str):
        super().__init__(
            f"user {user!r} lacks {right!r} permission on {target!r}"
        )
        self.user = user
        self.target = target
        self.right = right


class LockDeniedError(ServerError):
    """The floor-control lock for a couple group could not be acquired."""


class HistoryError(ServerError):
    """Undo/redo was requested but no matching historical UI state exists."""


class PersistenceError(ServerError):
    """The durable op log or snapshot store is unreadable or corrupt."""


# ---------------------------------------------------------------------------
# Coupling / core errors
# ---------------------------------------------------------------------------

class CouplingError(ReproError):
    """Base class for errors of the coupling runtime."""


class IncompatibleObjectsError(CouplingError):
    """Two UI objects are not compatible and cannot be coupled/copied."""

    def __init__(self, source: str, target: str, reason: str):
        super().__init__(
            f"cannot couple/copy {source!r} -> {target!r}: {reason}"
        )
        self.source = source
        self.target = target
        self.reason = reason


class NoSuchCoupleError(CouplingError):
    """Decoupling was requested for a link that does not exist."""


class UnknownCommandError(CouplingError):
    """A CoSendCommand arrived for a command with no registered handler."""

    def __init__(self, command: str):
        super().__init__(f"no handler registered for command {command!r}")
        self.command = command


class SemanticHookError(CouplingError):
    """A semantic store/load hook raised or returned malformed data."""
