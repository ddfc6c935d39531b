"""Canvas widget: a drawing surface holding committed strokes.

Models the electronic-blackboard surface of the COSOFT classroom (the Xerox
Liveboard) and the group drawing baseline (GroupDesign-style editors the
paper compares against).  A *stroke* is the high-level unit: the paper's
synchronization-by-action operates on committed strokes, not on pointer
motion, although ``pointer_motion`` is available for the fine-grained
experiments.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.toolkit.attributes import Attribute, of_type
from repro.toolkit.events import DRAW, POINTER_MOTION, VALUE_CHANGED, Event
from repro.toolkit.widget import BASE_ATTRIBUTES, UIObject
from repro.toolkit.widgets.registry import register_widget


class _StrokeUndo:
    """Undo record for one appended stroke.

    A snapshot-based rollback is wrong for append semantics: if a remote
    stroke lands between this widget's optimistic feedback and a floor
    denial, restoring the snapshot would also erase the remote stroke, and
    the compare-and-swap variant would keep the denied stroke.  The
    correct inverse of "append stroke S" is "remove one occurrence of S".
    """

    __slots__ = ("widget", "stroke")

    def __init__(self, widget: "Canvas", stroke: Dict[str, Any]):
        self.widget = widget
        self.stroke = stroke

    def rollback(self) -> None:
        strokes = list(self.widget._state["strokes"])
        for index in range(len(strokes) - 1, -1, -1):
            if strokes[index] == self.stroke:
                del strokes[index]
                break
        self.widget._state["strokes"] = strokes


def _stroke_list(value: object):
    if not isinstance(value, (list, tuple)):
        return f"expected a list of strokes, got {type(value).__name__}"
    for stroke in value:
        if not isinstance(stroke, dict):
            return "each stroke must be a dict"
        if "points" not in stroke:
            return "each stroke needs a 'points' key"
    return None


@register_widget
class Canvas(UIObject):
    """A 2-D drawing surface whose content is a list of strokes.

    Each stroke is ``{"points": [[x, y], ...], "color": str, "width": n}``.
    ``draw`` appends a stroke (built-in feedback); ``value_changed``
    replaces the whole drawing (used by clear/undo operations).
    """

    TYPE_NAME = "canvas"
    ATTRIBUTES = BASE_ATTRIBUTES.extended(
        [
            Attribute(
                "strokes",
                [],
                relevant=True,
                validator=_stroke_list,
                doc="committed strokes, shared when coupled",
            ),
            Attribute("grid", False, validator=of_type(bool)),
            Attribute("zoom", 1.0, validator=of_type(int, float)),
        ]
    )
    EMITS = (DRAW, VALUE_CHANGED, POINTER_MOTION)

    def _feedback_attributes(self, event: Event) -> Tuple[str, ...]:
        if event.type in (DRAW, VALUE_CHANGED):
            return ("strokes",)
        return ()

    def apply_feedback(self, event: Event):
        if event.type == DRAW and "stroke" in event.params:
            stroke = dict(event.params["stroke"])
            self._builtin_feedback(event)
            return _StrokeUndo(self, stroke)
        return super().apply_feedback(event)

    def _builtin_feedback(self, event: Event) -> None:
        if event.type == DRAW and "stroke" in event.params:
            strokes = list(self._state["strokes"])
            strokes.append(dict(event.params["stroke"]))
            self._state["strokes"] = strokes
        elif event.type == VALUE_CHANGED and "strokes" in event.params:
            self._state["strokes"] = [dict(s) for s in event.params["strokes"]]

    # Convenience interaction API ---------------------------------------

    def draw_stroke(
        self,
        points: List[Tuple[float, float]],
        color: str = "black",
        width: int = 1,
        user: str = "",
    ) -> Event:
        """Commit one stroke (the high-level event)."""
        stroke: Dict[str, Any] = {
            "points": [[float(x), float(y)] for x, y in points],
            "color": color,
            "width": int(width),
        }
        return self.fire(DRAW, user=user, stroke=stroke)

    def clear(self, user: str = "") -> Event:
        """Erase the whole drawing."""
        return self.fire(VALUE_CHANGED, user=user, strokes=[])

    @property
    def strokes(self) -> List[Dict[str, Any]]:
        return [dict(s) for s in self._state["strokes"]]

    @property
    def stroke_count(self) -> int:
        return len(self._state["strokes"])
