"""Base widget (primitive UI object) of the CENTER-like toolkit.

Terminology follows the paper (§3):

* A **primitive UI object** is an instance of a pre-defined UI object type
  (form, button, menu, …).  "It encapsulates low-level events and provides
  high-level interactive techniques.  A set of attributes is defined for
  each type of UI objects."
* UI objects "are organized as a tree along the parent/child relationship".
  The hierarchical name of an object is its **pathname**; globally an object
  is the pair ``<instance-id, pathname>``.
* A **complex UI object** is a hierarchically structured collection of
  primitive UI objects — in this toolkit simply a widget with children.
* The **state** of a UI object is the set of attribute-value pairs.

**Structure is a cached value.**  What a subtree looks like without its
state — types, names, nesting — changes in exactly two places,
:meth:`UIObject.add_child` and :meth:`UIObject.remove_child` (``destroy``,
the builder and both merge modes go through them), and a widget's name
never changes.  Everything derived from structure alone (the skeleton
spec, its fingerprint, the relative-path indexes) is therefore kept per
widget in one record, :func:`repro.toolkit.builder.shape`, and both
mutators end by giving the node and every ancestor a fresh *structure
stamp*.  A record is valid only while the stamp it was built under is
still its widget's stamp.  The order makes that safe across threads (a
record built on the aio loop thread while the application thread edits
the tree): a mutation changes ``_children`` first and stamps afterwards,
a builder reads the stamp first and walks afterwards — so a walk that
missed a change carries a stamp the change has since replaced, and a
stamp is a new object each time, never a counter two threads could leave
at the same value.

Every widget owns a :class:`~repro.toolkit.events.CallbackRegistry`.  When a
high-level event fires on a widget that belongs to an
:class:`~repro.core.instance.ApplicationInstance`, the event is routed
through the instance runtime, which performs the paper's multiple-execution
algorithm (lock the couple group, broadcast, re-execute).  Widgets outside
any instance execute events purely locally, which is exactly how a
single-user application behaves — the paper's point that multi-user
interfaces are developed "in very much the same way as single-user
applications".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import (
    DestroyedWidgetError,
    DuplicateChildError,
    PathError,
)
from repro.toolkit.attributes import Attribute, AttributeSet, of_type
from repro.toolkit.events import (
    ATTRIBUTE_CHANGED,
    CHILD_ADDED,
    CHILD_REMOVED,
    DESTROYED,
    Callback,
    CallbackRegistry,
    Event,
)

if TYPE_CHECKING:
    from repro.toolkit.builder import Shape

PATH_SEPARATOR = "/"

#: Global monotonic attribute-write counter.  Every attribute write on any
#: widget advances it; delta state sync (docs/PERF.md) remembers the clock
#: value of the last acknowledged transfer and later ships only attributes
#: written after that baseline.
_STATE_CLOCK = 0


def state_clock() -> int:
    """The current value of the global attribute-write counter."""
    return _STATE_CLOCK


def _tick() -> int:
    global _STATE_CLOCK
    _STATE_CLOCK += 1
    return _STATE_CLOCK


class _VersionedState(dict):
    """A widget's state dict, stamping a clock version on every write.

    All write paths funnel through ``__setitem__`` — :meth:`UIObject.set`,
    bulk ``set_state`` / ``update`` / ``|=``, widget types' built-in
    feedback assigning ``self._state[...]`` directly, and
    :meth:`UndoRecord.rollback` — so dirty tracking cannot miss a
    mutation, and every removal drops the removed key's version with it.
    ``newest`` is the largest version ever stamped here: a widget whose
    ``newest`` is not after a baseline wrote nothing since (a removal only
    ever lowers the true maximum, so the bound stays safe).
    """

    __slots__ = ("versions", "newest")

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        stamp = _tick()
        #: attribute name -> clock value of its last write.
        self.versions: Dict[str, int] = {name: stamp for name in self}
        self.newest = stamp

    def __setitem__(self, key: str, value: Any) -> None:
        super().__setitem__(key, value)
        self.versions[key] = self.newest = _tick()

    def __delitem__(self, key: str) -> None:
        super().__delitem__(key)
        self.versions.pop(key, None)

    def update(self, *args: Any, **kwargs: Any) -> None:  # type: ignore[override]
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def __ior__(self, other: Any) -> "_VersionedState":  # type: ignore[override]
        self.update(other)
        return self

    def setdefault(self, key: str, default: Any = None) -> Any:
        if key not in self:
            self[key] = default
        return self[key]

    def pop(self, key: str, *default: Any) -> Any:
        self.versions.pop(key, None)
        return super().pop(key, *default)

    def popitem(self) -> Tuple[str, Any]:
        key, value = super().popitem()
        self.versions.pop(key, None)
        return key, value

    def clear(self) -> None:
        super().clear()
        self.versions.clear()

    def __copy__(self) -> "_VersionedState":
        duplicate = _VersionedState.__new__(_VersionedState)
        dict.update(duplicate, self)
        duplicate.versions = dict(self.versions)
        duplicate.newest = self.newest
        return duplicate


#: Attributes shared by every widget type.  Geometry and cosmetics are not
#: relevant for coupling (§3.1: objects may differ in size and fonts yet
#: "share the same content").
BASE_ATTRIBUTES = AttributeSet(
    [
        Attribute("x", 0, validator=of_type(int, float), doc="left edge"),
        Attribute("y", 0, validator=of_type(int, float), doc="top edge"),
        Attribute("width", 10, validator=of_type(int, float), doc="widget width"),
        Attribute("height", 1, validator=of_type(int, float), doc="widget height"),
        Attribute("visible", True, validator=of_type(bool), doc="mapped on screen"),
        Attribute(
            "sensitive",
            True,
            validator=of_type(bool),
            doc="accepts user input (Motif XmNsensitive)",
        ),
        Attribute("foreground", "black", validator=of_type(str)),
        Attribute("background", "white", validator=of_type(str)),
        Attribute("font", "fixed", validator=of_type(str)),
        Attribute("tooltip", "", validator=of_type(str)),
    ]
)


class UndoRecord:
    """Snapshot of attribute values overwritten by one event application.

    The multiple-execution algorithm needs to "undo syntactic built-in
    feedback of the event" when lock acquisition fails (§3.2); applying an
    event therefore returns an :class:`UndoRecord` that can roll the widget
    back.

    Rollback is *conditional* per attribute: between applying the optimistic
    feedback and learning that the floor was denied, a remote event may have
    legitimately overwritten the attribute — the undo must not clobber that.
    An attribute is restored only while it still holds the value the
    feedback wrote (compare-and-swap semantics).
    """

    __slots__ = ("widget", "saved", "written")

    def __init__(self, widget: "UIObject", saved: Dict[str, Any]):
        self.widget = widget
        self.saved = saved
        #: Values the feedback wrote; filled in by ``apply_feedback``.
        self.written: Dict[str, Any] = {}

    def capture_written(self) -> None:
        """Record the post-feedback values of the saved attributes."""
        self.written = {
            name: self.widget._state.get(name) for name in self.saved
        }

    def rollback(self) -> None:
        """Undo the feedback (bypassing event dispatch).

        Attributes that no longer hold the value the feedback wrote were
        overwritten by a newer (remote) event and are left alone.
        """
        for name, value in self.saved.items():
            if name in self.written and (
                self.widget._state.get(name) != self.written[name]
            ):
                continue
            self.widget._state[name] = value

    def __repr__(self) -> str:
        return f"UndoRecord({self.widget.pathname!r}, {sorted(self.saved)})"


class UIObject:
    """A primitive UI object; containers make it a complex one.

    Parameters
    ----------
    name:
        The widget's name, unique among its siblings.  Must not contain
        ``/`` (the pathname separator).
    parent:
        Optional parent container; the widget is appended to its children.
    attrs:
        Initial attribute values overriding the type defaults.
    """

    #: Symbolic type name; the compatibility machinery (§3.3) keys on it.
    TYPE_NAME = "uiobject"

    #: The attribute declarations of this widget type.  Subclasses extend.
    ATTRIBUTES: AttributeSet = BASE_ATTRIBUTES

    #: Event types this widget can emit from user interaction; used by the
    #: builder and by workload generators to produce realistic events.
    EMITS: Tuple[str, ...] = ()

    def __init__(
        self,
        name: str,
        parent: Optional["UIObject"] = None,
        **attrs: Any,
    ):
        if not name or PATH_SEPARATOR in name:
            raise ValueError(
                f"widget name must be non-empty and contain no '/': {name!r}"
            )
        self._name = name
        self._state: _VersionedState = _VersionedState(
            type(self).ATTRIBUTES.defaults()
        )
        self._parent: Optional[UIObject] = None
        self._children: Dict[str, UIObject] = {}
        #: Replaced whenever this subtree's structure changes; the cached
        #: shape record (``repro.toolkit.builder.shape``) is valid only
        #: while it carries this very object (see the module docstring).
        self._structure_stamp: object = object()
        self._shape: Optional["Shape"] = None
        self._callbacks = CallbackRegistry()
        self._destroyed = False
        #: Set by the floor-control lock protocol; independent of the
        #: application-level ``sensitive`` attribute.
        self._floor_locked = False
        #: Back-pointer to the owning ApplicationInstance runtime (if any).
        self._runtime: Optional[Any] = None

        for attr_name, value in attrs.items():
            self.set(attr_name, value, quiet=True)
        if parent is not None:
            parent.add_child(self)

    # ------------------------------------------------------------------
    # Identity and tree structure
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Unique among siblings, and fixed for life: the parent's child
        table and every cached shape record are keyed on it."""
        return self._name

    @property
    def parent(self) -> Optional["UIObject"]:
        return self._parent

    @property
    def children(self) -> Tuple["UIObject", ...]:
        """Children in insertion order."""
        return tuple(self._children.values())

    @property
    def child_names(self) -> Tuple[str, ...]:
        return tuple(self._children)

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    @property
    def pathname(self) -> str:
        """Hierarchical name from the root, e.g. ``/app/form/ok``."""
        parts: List[str] = []
        node: Optional[UIObject] = self
        while node is not None:
            parts.append(node._name)
            node = node._parent
        return PATH_SEPARATOR + PATH_SEPARATOR.join(reversed(parts))

    @property
    def root(self) -> "UIObject":
        node = self
        while node._parent is not None:
            node = node._parent
        return node

    @property
    def runtime(self) -> Optional[Any]:
        """The owning ApplicationInstance runtime, inherited from the root."""
        return self.root._runtime

    def attach_runtime(self, runtime: Any) -> None:
        """Bind this (root) widget tree to an application-instance runtime."""
        if self._parent is not None:
            raise ValueError("only a root widget can be attached to a runtime")
        self._runtime = runtime

    def _check_alive(self) -> None:
        if self._destroyed:
            raise DestroyedWidgetError(
                f"widget {self.name!r} has been destroyed"
            )

    def add_child(self, child: "UIObject") -> "UIObject":
        """Append *child* to this container."""
        self._check_alive()
        child._check_alive()
        if child._parent is not None:
            raise ValueError(
                f"widget {child.name!r} already has parent {child._parent.name!r}"
            )
        if child.name in self._children:
            raise DuplicateChildError(
                f"{self.pathname!r} already has a child named {child.name!r}"
            )
        self._children[child.name] = child
        child._parent = self
        self._structure_changed()
        self._local_event(CHILD_ADDED, child=child.name)
        return child

    def remove_child(self, child: "UIObject") -> None:
        """Detach *child* (without destroying it)."""
        if self._children.get(child.name) is not child:
            raise PathError(child.name)
        del self._children[child.name]
        child._parent = None
        self._structure_changed()
        self._local_event(CHILD_REMOVED, child=child.name)

    def _structure_changed(self) -> None:
        """Invalidate the shape records of this node and every ancestor.

        Called *after* ``_children`` was modified (module docstring).  The
        stale record is dropped as well, so it stops pinning a removed
        subtree's widgets.
        """
        node: Optional[UIObject] = self
        while node is not None:
            node._shape = None
            node._structure_stamp = object()
            node = node._parent

    def child(self, name: str) -> "UIObject":
        """Return the direct child called *name*."""
        try:
            return self._children[name]
        except KeyError:
            raise PathError(f"{self.pathname}{PATH_SEPARATOR}{name}") from None

    def find(self, pathname: str) -> "UIObject":
        """Resolve *pathname* relative to this widget.

        Absolute paths (starting with ``/``) are resolved from this widget's
        root; the first component must then match the root's name.
        """
        if pathname.startswith(PATH_SEPARATOR):
            node = self.root
            parts = [p for p in pathname.split(PATH_SEPARATOR) if p]
            if not parts or parts[0] != node.name:
                raise PathError(pathname)
            parts = parts[1:]
        else:
            node = self
            parts = [p for p in pathname.split(PATH_SEPARATOR) if p]
        for part in parts:
            try:
                node = node._children[part]
            except KeyError:
                raise PathError(pathname) from None
        return node

    def walk(self) -> Iterator["UIObject"]:
        """Pre-order traversal of this widget's subtree (self included)."""
        stack: List[UIObject] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def destroy(self) -> None:
        """Destroy this widget and its whole subtree.

        Fires :data:`DESTROYED` on every destroyed widget (bottom-up) so the
        coupling runtime can apply "the decoupling algorithm ... when a UI
        object is destroyed" (§3.2).
        """
        if self._destroyed:
            return
        for child in self.children:
            child.destroy()
        # Fire DESTROYED while still attached, so the pathname is intact and
        # the runtime (reached through the root) can run decoupling.
        self._local_event(DESTROYED)
        if self._parent is not None:
            self._parent.remove_child(self)
        self._destroyed = True
        self._callbacks.clear()

    # ------------------------------------------------------------------
    # Attribute state
    # ------------------------------------------------------------------

    def get(self, name: str) -> Any:
        """Return the current value of attribute *name*."""
        type(self).ATTRIBUTES.get(name, self.TYPE_NAME)
        return self._state[name]

    def set(self, name: str, value: Any, *, quiet: bool = False) -> None:
        """Set attribute *name* to *value*.

        Unless *quiet*, an :data:`ATTRIBUTE_CHANGED` event is dispatched
        locally (never through the coupling layer: coupled attribute changes
        travel as state sync or as the high-level event that caused them).
        """
        self._check_alive()
        attribute = type(self).ATTRIBUTES.get(name, self.TYPE_NAME)
        attribute.validate(value)
        old = self._state.get(name)
        if old == value:
            return
        self._state[name] = value
        if not quiet:
            self._local_event(ATTRIBUTE_CHANGED, attribute=name, value=value)

    def state(self) -> Dict[str, Any]:
        """The full attribute-value mapping (a copy)."""
        return dict(self._state)

    def relevant_state(self) -> Dict[str, Any]:
        """Only the coupling-relevant attribute-value pairs (§3.1)."""
        relevant = type(self).ATTRIBUTES.relevant_names()
        return {name: self._state[name] for name in relevant}

    def set_state(
        self, values: Mapping[str, Any], *, quiet: bool = True
    ) -> Dict[str, Any]:
        """Bulk-apply attribute values (used by synchronization by state).

        Returns the values the write replaced: each attribute of *values*
        as it was just before it was set.
        """
        old: Dict[str, Any] = {}
        for name, value in values.items():
            old[name] = self._state.get(name)
            self.set(name, value, quiet=quiet)
        return old

    def attribute_version(self, name: str) -> int:
        """The global clock value of *name*'s last write (0 if never)."""
        return self._state.versions.get(name, 0)

    def changed_since(self, baseline: int) -> Dict[str, Any]:
        """Attribute values written after global clock *baseline*.

        The delta sync protocol calls this with the clock value of the
        last acknowledged transfer; an unchanged widget returns ``{}``.
        """
        state = self._state
        if state.newest <= baseline:
            return {}
        return {
            name: state[name]
            for name, version in state.versions.items()
            if version > baseline
        }

    @property
    def is_interactive(self) -> bool:
        """Whether the widget currently accepts user input.

        False while the floor-control protocol has the widget locked
        ("Actions on locked objects are disabled", §3.2) or when the
        application made it insensitive.
        """
        return (
            not self._destroyed
            and not self._floor_locked
            and bool(self._state.get("sensitive", True))
        )

    def floor_lock(self) -> None:
        """Disable the widget for the duration of a remote event (§3.2)."""
        self._floor_locked = True

    def floor_unlock(self) -> None:
        """Re-enable the widget after the remote event completed."""
        self._floor_locked = False

    @property
    def floor_locked(self) -> bool:
        return self._floor_locked

    # ------------------------------------------------------------------
    # Events and callbacks
    # ------------------------------------------------------------------

    def add_callback(self, event_type: str, callback: Callback) -> None:
        """Register *callback* for *event_type* (Motif ``XtAddCallback``)."""
        self._callbacks.add(event_type, callback)

    def remove_callback(self, event_type: str, callback: Callback) -> bool:
        return self._callbacks.remove(event_type, callback)

    def fire(self, event_type: str, user: str = "", **params: Any) -> Event:
        """Emit a user-level event on this widget.

        If the widget tree belongs to an application instance, the event is
        routed through the coupling runtime (multiple execution over the
        couple group).  Otherwise it is executed locally, single-user style.

        Returns the event object (whose execution may have been vetoed by a
        failed lock; see :meth:`ApplicationInstance.process_local_event`).
        """
        self._check_alive()
        runtime = self.runtime
        event = Event(
            type=event_type,
            source_path=self.pathname,
            params=params,
            user=user,
            instance_id=getattr(runtime, "instance_id", ""),
        )
        if runtime is not None:
            runtime.process_local_event(self, event)
        else:
            self.deliver(event)
        return event

    def deliver(self, event: Event) -> UndoRecord:
        """Apply *event* to this widget: built-in feedback, then callbacks.

        Returns the :class:`UndoRecord` for the built-in feedback so the
        caller (the multiple-execution algorithm) can undo it on lock
        failure.
        """
        self._check_alive()
        undo = self.apply_feedback(event)
        self._callbacks.invoke(self, event)
        return undo

    def run_callbacks(self, event: Event) -> int:
        """Invoke the application callbacks of *event* without re-applying
        built-in feedback; returns the number of callbacks run.  Used by
        the multiple-execution algorithm, which manages feedback itself."""
        self._check_alive()
        return self._callbacks.invoke(self, event)

    def reexecute(self, event: Event) -> None:
        """Re-execute *event* from another member of the couple group:
        built-in feedback, then callbacks (§3.2).  No undo is taken —
        only the source rolls its feedback back, on a denied floor."""
        self._builtin_feedback(event)
        self.run_callbacks(event)

    def apply_feedback(self, event: Event) -> UndoRecord:
        """Apply only the *syntactic built-in feedback* of *event*.

        The base implementation delegates to :meth:`_builtin_feedback`,
        snapshotting every attribute the widget type declares it may touch
        for this event type, so the change can be rolled back.

        Contract for widget types: the feedback itself lives in
        :meth:`_builtin_feedback` alone.  :meth:`reexecute` calls that
        hook directly, so an override of ``apply_feedback`` may change
        how the undo is taken (as ``RadioGroup`` and ``Canvas`` do) but
        must not add feedback of its own.
        """
        touched = self._feedback_attributes(event)
        saved = {name: self._state[name] for name in touched if name in self._state}
        record = UndoRecord(self, saved)
        self._builtin_feedback(event)
        record.capture_written()
        return record

    # Subclass hooks -----------------------------------------------------

    def _feedback_attributes(self, event: Event) -> Tuple[str, ...]:
        """Attribute names the built-in feedback for *event* may modify."""
        return ()

    def _builtin_feedback(self, event: Event) -> None:
        """Widget-type-specific built-in semantics of *event*.

        E.g. a text field's ``value_changed`` event sets its ``value``
        attribute; a toggle's ``activate`` flips ``set``.
        """

    # Internal ------------------------------------------------------------

    def _local_event(self, event_type: str, **params: Any) -> None:
        """Dispatch a purely local (syntactic) event to callbacks only."""
        if self._destroyed:
            return
        event = Event(
            type=event_type,
            source_path=self.pathname,
            params=params,
            instance_id=getattr(self.runtime, "instance_id", ""),
        )
        self._callbacks.invoke(self, event)
        runtime = self.runtime
        if runtime is not None and event_type == DESTROYED:
            runtime.on_widget_destroyed(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """A structural description of this widget's subtree.

        Used by the compatibility machinery, the builder (round-tripping)
        and remote copying of complex objects.
        """
        return {
            "type": self.TYPE_NAME,
            "name": self.name,
            "state": self.state(),
            "children": [child.describe() for child in self.children],
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.pathname!r}>"
