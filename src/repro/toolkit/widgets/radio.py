"""Radio group: mutually exclusive choices with container-level feedback.

A :class:`RadioGroup` holds :class:`RadioButton` children; selecting one
deselects the others.  The interesting part for the coupling layer is that
the *built-in feedback spans the container*: the high-level event occurs
on the group (one ``selection_changed`` with the chosen child's name)
rather than as N per-button events — the same granularity argument as
§3.2's keystrokes-vs-commits, applied to structure.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.toolkit.attributes import Attribute, of_type
from repro.toolkit.events import SELECTION_CHANGED, Event
from repro.toolkit.widget import BASE_ATTRIBUTES, UIObject
from repro.toolkit.widgets.registry import register_widget


@register_widget
class RadioButton(UIObject):
    """One choice inside a :class:`RadioGroup` (XmToggleButton in a
    radio-behaviour row-column)."""

    TYPE_NAME = "radiobutton"
    ATTRIBUTES = BASE_ATTRIBUTES.extended(
        [
            Attribute("label", "", relevant=True, validator=of_type(str)),
            Attribute(
                "set",
                False,
                validator=of_type(bool),
                doc="whether this is the chosen entry; derived from the "
                    "group's selection, hence not independently relevant",
            ),
        ]
    )

    def choose(self, user: str = "") -> Optional[Event]:
        """Select this button (fires on the *group*, see class docs)."""
        group = self.parent
        if isinstance(group, RadioGroup):
            return group.select(self.name, user=user)
        # Orphan radio button: degrade to a local toggle.
        self.set("set", True)
        return None


@register_widget
class RadioGroup(UIObject):
    """A container enforcing one-of-N selection among its radio children."""

    TYPE_NAME = "radiogroup"
    ATTRIBUTES = BASE_ATTRIBUTES.extended(
        [
            Attribute("label", "", relevant=True, validator=of_type(str)),
            Attribute(
                "selection",
                "",
                relevant=True,
                validator=of_type(str),
                doc="name of the chosen child; shared when coupled",
            ),
        ]
    )
    EMITS = (SELECTION_CHANGED,)

    def _feedback_attributes(self, event: Event) -> Tuple[str, ...]:
        if event.type == SELECTION_CHANGED:
            return ("selection",)
        return ()

    def _builtin_feedback(self, event: Event) -> None:
        if event.type != SELECTION_CHANGED or "selection" not in event.params:
            return
        choice = str(event.params["selection"])
        self._state["selection"] = choice
        self._sync_children(choice)

    def _sync_children(self, choice: str) -> None:
        for child in self.children:
            if isinstance(child, RadioButton):
                child.set("set", child.name == choice, quiet=True)

    def apply_feedback(self, event: Event):
        """Extend the base undo with the children's derived flags.

        Rolling back the group's ``selection`` must also restore the
        children, so the returned record re-syncs them on rollback.
        """
        record = super().apply_feedback(event)
        return _RadioUndo(record, self)

    # Convenience interaction API ---------------------------------------

    def select(self, choice: str, user: str = "") -> Event:
        """Choose the child named *choice* through the event path."""
        if choice not in self.child_names:
            raise ValueError(
                f"radio group {self.name!r} has no entry {choice!r}"
            )
        return self.fire(SELECTION_CHANGED, user=user, selection=choice)

    @property
    def selection(self) -> str:
        return str(self._state["selection"])

    @property
    def chosen(self) -> Optional[RadioButton]:
        name = self.selection
        if name and name in self.child_names:
            child = self.child(name)
            if isinstance(child, RadioButton):
                return child
        return None

    def entries(self) -> List[str]:
        return [
            child.name
            for child in self.children
            if isinstance(child, RadioButton)
        ]


class _RadioUndo:
    """UndoRecord wrapper that re-derives the children after a rollback."""

    __slots__ = ("inner", "group")

    def __init__(self, inner, group: RadioGroup):
        self.inner = inner
        self.group = group

    def rollback(self) -> None:
        self.inner.rollback()
        self.group._sync_children(str(self.group._state.get("selection", "")))
