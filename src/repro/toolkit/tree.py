"""Widget-tree utilities: path algebra, subtree state, structure signatures.

The coupling layer manipulates whole *complex UI objects* (subtrees): it
copies their state (§3.1), compares their structure (§3.3) and rebuilds
them remotely (RemoteCopy, destructive merging).  The helpers here give
those operations a single vocabulary:

* **relative paths** — a component's position inside its complex object,
  e.g. ``"fields/name"`` inside ``/app/query`` for ``/app/query/fields/name``;
* **subtree state** — a mapping of relative path -> relevant attribute dict;
* **structure signature** — a hashable shape summary used by the flexible
  matching heuristics.

The subtree walks here (:func:`subtree_widgets` and the state functions on
top of it) read the path list of the root's cached shape record
(:func:`repro.toolkit.builder.shape`): relative paths are derived once per
structural change, not once per widget per transfer.  ``add_child`` /
``remove_child`` invalidate the record of the node and of every ancestor;
:mod:`repro.toolkit.widget` says why a walk racing such a change on
another thread cannot leave a stale list behind.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import PathError
from repro.toolkit.builder import shape
from repro.toolkit.widget import PATH_SEPARATOR, UIObject


def join_path(*parts: str) -> str:
    """Join path components, collapsing empty parts and extra separators."""
    pieces: List[str] = []
    absolute = bool(parts) and parts[0].startswith(PATH_SEPARATOR)
    for part in parts:
        pieces.extend(p for p in part.split(PATH_SEPARATOR) if p)
    joined = PATH_SEPARATOR.join(pieces)
    return (PATH_SEPARATOR + joined) if absolute else joined


def split_path(pathname: str) -> Tuple[str, ...]:
    """Path components of *pathname*, ignoring leading/trailing separators."""
    return tuple(p for p in pathname.split(PATH_SEPARATOR) if p)


def is_ancestor_path(ancestor: str, descendant: str) -> bool:
    """True if *ancestor* is a (non-strict) prefix path of *descendant*."""
    a, d = split_path(ancestor), split_path(descendant)
    return len(a) <= len(d) and d[: len(a)] == a


def relative_path(root: UIObject, widget: UIObject) -> str:
    """The path of *widget* relative to *root* ("" when identical)."""
    parts: List[str] = []
    node: Optional[UIObject] = widget
    while node is not None and node is not root:
        parts.append(node.name)
        node = node.parent
    if node is None:
        raise PathError(
            f"{widget.pathname} is not inside {root.pathname}"
        )
    return PATH_SEPARATOR.join(reversed(parts))


def subtree_widgets(root: UIObject) -> Iterator[Tuple[str, UIObject]]:
    """Yield ``(relative_path, widget)`` for the whole subtree, pre-order.

    The root itself is yielded with relative path ``""``.
    """
    return iter(shape(root).widgets)


def subtree_state(root: UIObject, *, relevant_only: bool = True) -> Dict[str, Dict[str, Any]]:
    """Relative-path -> attribute-dict mapping for a complex UI object.

    With *relevant_only* (the default) only coupling-relevant attributes are
    included — this is exactly the payload of CopyFrom/CopyTo (§3.1).
    """
    result: Dict[str, Dict[str, Any]] = {}
    for rel, widget in subtree_widgets(root):
        result[rel] = (
            widget.relevant_state() if relevant_only else widget.state()
        )
    return result


def subtree_state_since(
    root: UIObject, baseline: int, *, relevant_only: bool = True
) -> Dict[str, Dict[str, Any]]:
    """The delta counterpart of :func:`subtree_state`.

    Includes only attributes written after global state clock *baseline*
    (see :func:`repro.toolkit.widget.state_clock`); widgets with no such
    writes are omitted entirely, so an idle subtree yields ``{}``.
    """
    result: Dict[str, Dict[str, Any]] = {}
    for rel, widget in subtree_widgets(root):
        changed = widget.changed_since(baseline)
        if relevant_only and changed:
            relevant = type(widget).ATTRIBUTES.relevant_names()
            changed = {
                name: value
                for name, value in changed.items()
                if name in relevant
            }
        if changed:
            result[rel] = changed
    return result


def apply_subtree_state(
    root: UIObject,
    state: Mapping[str, Mapping[str, Any]],
    *,
    strict: bool = False,
) -> List[str]:
    """Apply a :func:`subtree_state` mapping onto *root*'s subtree.

    Returns the relative paths that were applied.  Paths missing from the
    tree are skipped unless *strict*, in which case :class:`PathError` is
    raised — destructive merging handles structural differences instead.
    """
    return list(overwrite_subtree_state(root, state, strict=strict))


def overwrite_subtree_state(
    root: UIObject,
    state: Mapping[str, Mapping[str, Any]],
    *,
    strict: bool = False,
) -> Dict[str, Dict[str, Any]]:
    """:func:`apply_subtree_state`, returning what the write overwrote.

    The result maps each applied relative path to its widget's values,
    read just before the write, of exactly the attributes *state* wrote
    there: the write's pre-image, which a history record keeps (§2.2).
    Applying it back restores those attributes and touches no other.
    """
    overwritten: Dict[str, Dict[str, Any]] = {}
    for rel, values in state.items():
        try:
            widget = root.find(rel) if rel else root
        except PathError:
            if strict:
                raise
            continue
        overwritten[rel] = widget.set_state(values)
    return overwritten


def structure_signature(root: UIObject) -> Tuple:
    """A hashable summary of a subtree's shape: (type, child signatures).

    Two subtrees with equal signatures are structurally identical up to
    widget *names* (names deliberately excluded: s-compatibility is about a
    one-to-one mapping of components, not equal naming).
    """
    return (
        root.TYPE_NAME,
        tuple(structure_signature(child) for child in root.children),
    )


def tree_size(root: UIObject) -> int:
    """Number of widgets in the subtree."""
    return sum(1 for _ in root.walk())


def tree_depth(root: UIObject) -> int:
    """Depth of the subtree (a leaf has depth 1)."""
    if not root.children:
        return 1
    return 1 + max(tree_depth(child) for child in root.children)


def format_tree(root: UIObject, *, show_state: bool = False, indent: str = "  ") -> str:
    """Human-readable rendering of a widget tree, for debugging and docs."""
    lines: List[str] = []

    def emit(node: UIObject, depth: int) -> None:
        suffix = ""
        if show_state:
            relevant = node.relevant_state()
            if relevant:
                suffix = "  " + repr(relevant)
        lines.append(f"{indent * depth}{node.name} <{node.TYPE_NAME}>{suffix}")
        for child in node.children:
            emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)
