"""Attribute model of the CENTER-like toolkit.

The paper (§3) defines the *state* of a UI object as "the set of
attribute-value pairs of this object", where "the set of attributes of an
object only depends on the object type".  Synchronization shares only the
*relevant* attributes: "Relevant attributes are those that have to be shared
(i.e. made identical) when instances of these types are coupled."

This module provides:

* :class:`Attribute` — the declaration of one attribute of a widget type
  (name, default, relevance for coupling, optional validator).
* :class:`AttributeSet` — an ordered, immutable collection of attribute
  declarations belonging to a widget type, supporting inheritance merging.
* Small reusable validators (:func:`of_type`, :func:`one_of`,
  :func:`non_negative`, …).

Attribute *values* must be JSON-serializable (str, int, float, bool, None,
and lists/dicts thereof) because UI state travels over the wire when objects
are copied or coupled.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.errors import AttributeValidationError, UnknownAttributeError

Validator = Callable[[Any], Optional[str]]
"""A validator returns ``None`` when the value is acceptable, or a string
describing why it is not."""

_JSON_SCALARS = (str, int, float, bool, type(None))


def json_safe(value: Any) -> bool:
    """Return True if *value* is composed only of JSON-serializable parts."""
    if isinstance(value, _JSON_SCALARS):
        return True
    if isinstance(value, (list, tuple)):
        return all(json_safe(item) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and json_safe(item) for key, item in value.items()
        )
    return False


# ---------------------------------------------------------------------------
# Reusable validators
# ---------------------------------------------------------------------------

def of_type(*types: type) -> Validator:
    """Accept values that are instances of any of *types*."""

    def check(value: Any) -> Optional[str]:
        if isinstance(value, tuple(types)):
            return None
        names = ", ".join(t.__name__ for t in types)
        return f"expected {names}, got {type(value).__name__}"

    return check


def one_of(*choices: Any) -> Validator:
    """Accept only values from the given finite set of *choices*."""

    allowed = tuple(choices)

    def check(value: Any) -> Optional[str]:
        if value in allowed:
            return None
        return f"expected one of {allowed!r}"

    return check


def non_negative(value: Any) -> Optional[str]:
    """Accept ints/floats >= 0."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return f"expected a number, got {type(value).__name__}"
    if value < 0:
        return "expected a non-negative number"
    return None


def positive(value: Any) -> Optional[str]:
    """Accept ints/floats > 0."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return f"expected a number, got {type(value).__name__}"
    if value <= 0:
        return "expected a positive number"
    return None


def string_list(value: Any) -> Optional[str]:
    """Accept a list (or tuple) of strings."""
    if not isinstance(value, (list, tuple)):
        return f"expected a list of strings, got {type(value).__name__}"
    for item in value:
        if not isinstance(item, str):
            return f"expected a list of strings, found {type(item).__name__}"
    return None


def any_value(_value: Any) -> Optional[str]:
    """Accept anything JSON-safe (the JSON check happens separately)."""
    return None


# ---------------------------------------------------------------------------
# Attribute declaration
# ---------------------------------------------------------------------------

class Attribute:
    """Declaration of a single widget attribute.

    Parameters
    ----------
    name:
        The attribute name (an identifier, unique within the widget type).
    default:
        The value a fresh widget starts with.  Mutable defaults are deep
        copied per widget instance.
    relevant:
        Whether this attribute participates in coupling/copying (paper §3.1:
        "a set of relevant attributes is predefined for any type of couplable
        UI objects").  Geometry attributes such as width or font are
        typically *not* relevant — "two text input fields may have different
        size and fonts, but just share the same content".
    validator:
        Optional value check applied on every set.
    doc:
        Human-readable description.
    """

    __slots__ = ("name", "default", "relevant", "validator", "doc")

    def __init__(
        self,
        name: str,
        default: Any = None,
        *,
        relevant: bool = False,
        validator: Optional[Validator] = None,
        doc: str = "",
    ):
        if not name.isidentifier():
            raise ValueError(f"attribute name must be an identifier: {name!r}")
        if not json_safe(default):
            raise ValueError(
                f"default for attribute {name!r} is not JSON-serializable"
            )
        self.name = name
        self.default = default
        self.relevant = relevant
        self.validator = validator
        self.doc = doc

    def fresh_default(self) -> Any:
        """Return a per-instance copy of the default value."""
        if isinstance(self.default, (list, dict)):
            return copy.deepcopy(self.default)
        return self.default

    def validate(self, value: Any) -> None:
        """Raise :class:`AttributeValidationError` if *value* is unacceptable."""
        if not json_safe(value):
            raise AttributeValidationError(
                self.name, value, "value is not JSON-serializable"
            )
        if self.validator is not None:
            reason = self.validator(value)
            if reason is not None:
                raise AttributeValidationError(self.name, value, reason)

    def __repr__(self) -> str:
        flag = "relevant" if self.relevant else "irrelevant"
        return f"Attribute({self.name!r}, default={self.default!r}, {flag})"


class AttributeSet:
    """Ordered, immutable set of :class:`Attribute` declarations.

    Widget classes build one ``AttributeSet`` per type; subclasses extend the
    parent type's set with :meth:`extended`.
    """

    def __init__(self, attributes: Iterable[Attribute] = ()):
        self._by_name: Dict[str, Attribute] = {}
        for attribute in attributes:
            if attribute.name in self._by_name:
                raise ValueError(f"duplicate attribute {attribute.name!r}")
            self._by_name[attribute.name] = attribute
        # The set never changes after this point, so what the per-widget
        # hot paths ask for on every call is derived once.
        self._names = tuple(self._by_name)
        self._relevant_names = tuple(
            a.name for a in self._by_name.values() if a.relevant
        )
        self._declared_defaults = {
            name: attr.default for name, attr in self._by_name.items()
        }

    def extended(self, attributes: Iterable[Attribute]) -> "AttributeSet":
        """Return a new set with *attributes* added (overriding same names)."""
        merged = dict(self._by_name)
        for attribute in attributes:
            merged[attribute.name] = attribute
        return AttributeSet(merged.values())

    def names(self) -> Tuple[str, ...]:
        return self._names

    def relevant_names(self) -> Tuple[str, ...]:
        """Names of the attributes shared when objects are coupled."""
        return self._relevant_names

    def get(self, name: str, widget_type: str = "<unknown>") -> Attribute:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAttributeError(widget_type, name) from None

    def defaults(self) -> Dict[str, Any]:
        """A fresh name -> default-value mapping for a new widget."""
        return {name: attr.fresh_default() for name, attr in self._by_name.items()}

    def non_default(self, state: Mapping[str, Any]) -> Dict[str, Any]:
        """The entries of *state* that differ from the declared defaults.

        Compares against each :attr:`Attribute.default` itself — nothing
        is copied, because nothing here can mutate it.
        """
        declared = self._declared_defaults
        return {
            name: value
            for name, value in state.items()
            if declared.get(name) != value
        }

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __repr__(self) -> str:
        return f"AttributeSet({list(self._by_name)})"


def diff_states(old: Mapping[str, Any], new: Mapping[str, Any]) -> Dict[str, Any]:
    """Return the attributes of *new* that differ from *old*.

    Used to ship minimal state updates over the wire.
    """
    return {
        name: value
        for name, value in new.items()
        if name not in old or old[name] != value
    }
