"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import time

import pytest

from repro.session import Session
from repro.toolkit import (
    Canvas,
    Form,
    OptionMenu,
    PushButton,
    Scale,
    Shell,
    TextField,
    ToggleButton,
)


#: Backend the shared ``session`` fixture builds; CI overrides this to
#: run the whole suite against the asyncio runtime (REPRO_BACKEND=aio).
SESSION_BACKEND = os.environ.get("REPRO_BACKEND", "memory")


@pytest.fixture
def session():
    """A fresh deployment (server + network) on the configured backend."""
    sess = Session(backend=SESSION_BACKEND)
    yield sess
    sess.close()


@pytest.fixture
def pair(session):
    """Two registered instances named 'a' and 'b'."""
    a = session.create_instance("a", user="alice")
    b = session.create_instance("b", user="bob")
    return session, a, b


def make_demo_tree(root_name: str = "app") -> Shell:
    """A small mixed widget tree used across tests.

    Layout::

        /<root>
          /form
            /name   (textfield)
            /mode   (optionmenu: eq/like)
            /ok     (pushbutton)
            /flag   (togglebutton)
          /board
            /canvas (canvas)
            /zoom   (scale)
    """
    shell = Shell(root_name, title="demo")
    form = Form("form", parent=shell)
    TextField("name", parent=form, width=20)
    OptionMenu("mode", parent=form, entries=["eq", "like"], selection="eq")
    PushButton("ok", parent=form, label="OK")
    ToggleButton("flag", parent=form, label="Flag")
    board = Form("board", parent=shell)
    Canvas("canvas", parent=board, width=30, height=8)
    Scale("zoom", parent=board, maximum=10)
    return shell


def settle(session, predicate, timeout=30.0):
    """Quiesce *session*, then test *predicate*: one pump on the memory
    backend, a poll until *timeout* on the socket ones."""
    if session.backend == "memory":
        session.pump()
        return predicate()
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@pytest.fixture
def demo_tree():
    return make_demo_tree()


@pytest.fixture
def coupled_pair(pair):
    """Two instances with identical demo trees, text fields coupled."""
    session, a, b = pair
    tree_a = make_demo_tree()
    tree_b = make_demo_tree()
    a.add_root(tree_a)
    b.add_root(tree_b)
    a.couple(tree_a.find("/app/form/name"), ("b", "/app/form/name"))
    session.pump()
    return session, a, b, tree_a, tree_b
