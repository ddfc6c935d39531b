"""Declarative UI builder.

The CENTER toolbox "provides an interactive builder for users who are not
experienced programmers" (§1).  We reproduce the builder's *output side*: a
declarative specification format from which whole widget trees are
instantiated, plus the inverse operation (a tree describes itself back into
a spec).  RemoteCopy and destructive merging (§3.3) use the same format to
materialize complex UI objects in a receiving application instance.

A spec is a plain dict::

    {
        "type": "form",
        "name": "query",
        "state": {"title": "Query"},          # optional attribute overrides
        "children": [ {...}, ... ],            # optional
    }

What a spec says about *structure* — ``type``, ``name``, ``children`` —
is also kept per widget as a cached value: :func:`shape` returns the
:class:`Shape` record of a subtree, rebuilt only after a structural change
(the invalidation rule and why it is safe across threads are in
:mod:`repro.toolkit.widget`).
"""

from __future__ import annotations

# Not hashlib: importing it maps OpenSSL's libcrypto into the process.
from _sha1 import sha1
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import BuilderError
from repro.toolkit.widget import UIObject
from repro.toolkit.widgets.registry import widget_class

_ALLOWED_KEYS = {"type", "name", "state", "children"}


def validate_spec(spec: Mapping[str, Any], *, _path: str = "") -> None:
    """Raise :class:`BuilderError` if *spec* is malformed.

    Checks key names, types, widget-type existence and sibling-name
    uniqueness for the whole nested spec.
    """
    where = _path or "<root>"
    if not isinstance(spec, Mapping):
        raise BuilderError(f"{where}: spec must be a mapping, got {type(spec).__name__}")
    unknown = set(spec) - _ALLOWED_KEYS
    if unknown:
        raise BuilderError(f"{where}: unknown spec keys {sorted(unknown)}")
    for key in ("type", "name"):
        if key not in spec:
            raise BuilderError(f"{where}: spec is missing required key {key!r}")
        if not isinstance(spec[key], str) or not spec[key]:
            raise BuilderError(f"{where}: {key!r} must be a non-empty string")
    widget_class(spec["type"])  # raises BuilderError on unknown type
    state = spec.get("state", {})
    if not isinstance(state, Mapping):
        raise BuilderError(f"{where}: 'state' must be a mapping")
    children = spec.get("children", [])
    if not isinstance(children, (list, tuple)):
        raise BuilderError(f"{where}: 'children' must be a list")
    seen: set = set()
    for child in children:
        if not isinstance(child, Mapping) or "name" not in child:
            raise BuilderError(f"{where}: malformed child spec")
        if child["name"] in seen:
            raise BuilderError(
                f"{where}: duplicate child name {child['name']!r}"
            )
        seen.add(child["name"])
        validate_spec(child, _path=f"{where}/{child['name']}")


def build(spec: Mapping[str, Any], parent: Optional[UIObject] = None) -> UIObject:
    """Instantiate the widget tree described by *spec*.

    The spec is validated first; the returned widget is attached to
    *parent* when given.
    """
    validate_spec(spec)
    return _build_unchecked(spec, parent)


def _build_unchecked(spec: Mapping[str, Any], parent: Optional[UIObject]) -> UIObject:
    cls = widget_class(spec["type"])
    widget = cls(spec["name"], parent=parent)
    state = spec.get("state", {})
    if state:
        widget.set_state(state)
    for child_spec in spec.get("children", []):
        _build_unchecked(child_spec, widget)
    return widget


def to_spec(widget: UIObject, *, full_state: bool = False) -> Dict[str, Any]:
    """Describe *widget*'s subtree as a builder spec (inverse of :func:`build`).

    With the default *full_state=False* only attributes differing from the
    type defaults are included, producing compact round-trippable specs.
    """
    cls = type(widget)
    if full_state:
        state = widget.state()
    else:
        state = cls.ATTRIBUTES.non_default(widget.state())
    spec: Dict[str, Any] = {"type": cls.TYPE_NAME, "name": widget.name}
    if state:
        spec["state"] = state
    children: List[Dict[str, Any]] = [
        to_spec(child, full_state=full_state) for child in widget.children
    ]
    if children:
        spec["children"] = children
    return spec


def spec_fingerprint(spec: Mapping[str, Any]) -> str:
    """A stable fingerprint of a builder spec's *structure*.

    Covers exactly what the structural matchers look at — widget types,
    component names and nesting — and deliberately ignores state values,
    so two transfers of the same (possibly mutated) object hash alike.
    Used as the memoization key for mapping results and as the cheap
    "did the structure change since last transfer?" test of the delta
    sync protocol.
    """

    def canon(node: Mapping[str, Any]) -> Tuple:
        return (
            node.get("type", ""),
            node.get("name", ""),
            tuple(canon(child) for child in node.get("children", ())),
        )

    return sha1(repr(canon(spec)).encode("utf-8")).hexdigest()


class Shape(NamedTuple):
    """Everything about a widget subtree that depends on structure alone.

    Immutable throughout, so one record serves every reader on every
    thread until the structure changes.
    """

    #: The widget's structure stamp this record was built under.
    stamp: object
    #: ``to_spec(widget)`` minus ``state``: read-only mappings, children
    #: in a tuple.  Local use only — a spec that travels carries state.
    skeleton: Mapping[str, Any]
    #: :func:`spec_fingerprint` of the skeleton — and so of the full
    #: ``to_spec`` result, of which it reads nothing the skeleton lacks.
    fingerprint: str
    #: relative path -> ``TYPE_NAME`` for the whole subtree.
    types: Mapping[str, str]
    #: ``(relative path, widget)`` for the whole subtree, pre-order.
    widgets: Tuple[Tuple[str, UIObject], ...]


def shape(widget: UIObject) -> Shape:
    """The :class:`Shape` of *widget*'s subtree, from its cache when valid."""
    cached = widget._shape
    stamp = widget._structure_stamp
    if cached is not None and cached.stamp is stamp:
        return cached
    types: Dict[str, str] = {}
    widgets: List[Tuple[str, UIObject]] = []
    skeleton = _skeleton(widget, "", types, widgets)
    record = Shape(
        stamp,
        skeleton,
        spec_fingerprint(skeleton),
        MappingProxyType(types),
        tuple(widgets),
    )
    # Stored under the stamp read *before* the walk: if the structure
    # changed meanwhile, the widget's stamp has moved on and this record
    # is never served.
    widget._shape = record
    return record


def _skeleton(
    widget: UIObject,
    rel: str,
    types: Dict[str, str],
    widgets: List[Tuple[str, UIObject]],
) -> Mapping[str, Any]:
    types[rel] = widget.TYPE_NAME
    widgets.append((rel, widget))
    node: Dict[str, Any] = {"type": widget.TYPE_NAME, "name": widget.name}
    children = tuple(
        _skeleton(child, f"{rel}/{child.name}" if rel else child.name, types, widgets)
        for child in widget.children
    )
    if children:
        node["children"] = children
    return MappingProxyType(node)


def clone(widget: UIObject, name: Optional[str] = None,
          parent: Optional[UIObject] = None) -> UIObject:
    """Deep-copy a widget subtree (full state), optionally renaming the root."""
    spec = to_spec(widget, full_state=True)
    if name is not None:
        spec["name"] = name
    return build(spec, parent)
