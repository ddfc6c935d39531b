"""Tests for the cooperative TORI retrieval interface (§4)."""

import pytest

from repro.apps.minidb import sample_publications
from repro.apps.tori import QUERY_ATTRIBUTES, VIEWS, ToriApplication
from repro.session import Session


@pytest.fixture
def solo():
    session = Session()
    inst = session.create_instance("tori-1", user="alice", app_type="tori")
    app = ToriApplication(inst, sample_publications(300))
    yield session, app
    session.close()


@pytest.fixture
def duo():
    session = Session()
    a = ToriApplication(
        session.create_instance("tori-a", user="alice", app_type="tori"),
        sample_publications(300),
    )
    b = ToriApplication(
        session.create_instance("tori-b", user="bob", app_type="tori"),
        sample_publications(300),
    )
    yield session, a, b
    session.close()


class TestSingleUser:
    def test_ui_structure(self, solo):
        _, app = solo
        for attr in QUERY_ATTRIBUTES:
            assert app.field_value(attr) is not None
            assert app.field_op(attr) is not None
        assert set(app.view_menu.get("entries")) == set(VIEWS)

    def test_query_roundtrip(self, solo):
        _, app = solo
        app.set_condition("author", "eq", "Zhao")
        result = app.run_query()
        assert len(result) > 0
        assert all(row[0] == "Zhao" for row in result.rows)
        assert len(app.visible_rows()) == len(result)
        assert "rows" in app.count_label.get("text")

    def test_view_controls_columns(self, solo):
        _, app = solo
        app.choose_view("bibliographic")
        result = app.run_query()
        assert result.columns == VIEWS["bibliographic"]

    def test_numeric_coercion_for_year(self, solo):
        _, app = solo
        app.set_condition("year", "ge", "1990")
        result = app.run_query()
        assert all(row[-1] >= 1990 or True for row in result.rows)
        years = {d["year"] for d in result.as_dicts()}
        assert min(years) >= 1990

    def test_clear_resets_fields(self, solo):
        _, app = solo
        app.set_condition("author", "substring", "Z")
        app.clear()
        assert app.field_value("author").value == ""
        assert app.field_op("author").selection == "eq"

    def test_refine_from_selection(self, solo):
        _, app = solo
        app.run_query()
        app.rows_list.select_indices([0])
        selected_author = app._semantic_rows[0]["author"]
        app.refine_from_selection()
        assert app.field_value("author").value == selected_author

    def test_refine_without_selection_is_noop(self, solo):
        _, app = solo
        app.run_query()
        app.refine_from_selection()
        assert app.field_value("author").value == ""

    def test_unknown_view_rejected(self, solo):
        _, app = solo
        with pytest.raises(ValueError):
            app.choose_view("sideways")


class TestCooperative:
    def test_query_form_coupled(self, duo):
        session, a, b = duo
        a.make_cooperative("tori-b")
        session.pump()
        a.set_condition("topic", "substring", "group")
        session.pump()
        assert b.field_value("topic").value == "group"
        assert b.field_op("topic").selection == "substring"

    def test_synchronized_invocation_reexecutes(self, duo):
        """The paper's mode: 'a query will be potentially re-executed
        several times'."""
        session, a, b = duo
        a.make_cooperative("tori-b")
        session.pump()
        a.set_condition("author", "eq", "Hoppe")
        session.pump()
        a.run_query()
        session.pump()
        assert a.queries_run == 1
        assert b.queries_run == 1  # re-executed remotely
        assert a.visible_rows() == b.visible_rows()
        # Each side paid its own scan (multiple evaluation).
        assert a.database.total_rows_scanned == 300
        assert b.database.total_rows_scanned == 300

    def test_queries_may_differ_per_user(self, duo):
        """Flexibility of multiple evaluation: only some attributes are
        shared; users can diverge on the uncoupled ones."""
        session, a, b = duo
        # Couple everything except the 'venue' field.
        paths = [
            p
            for p in ToriApplication.COUPLED_PATHS
            if "venue" not in p
        ]
        for path in paths:
            a.instance.couple(a.instance.widget(path), ("tori-b", path))
        session.pump()
        a.choose_view("full")  # view menu is coupled: both see all columns
        session.pump()
        b.set_condition("venue", "eq", "CSCW")  # private condition
        session.pump()
        a.set_condition("author", "eq", "Ellis")
        session.pump()
        a.run_query()
        session.pump()
        assert b.queries_run == 1
        b_rows = {d["venue"] for d in b._semantic_rows} if b._semantic_rows else set()
        assert b_rows <= {"CSCW"}
        assert a.field_value("venue").value == ""  # a kept its own venue

    def test_share_results_mode(self, duo):
        """The alternative the paper debates: evaluate once, share rows."""
        session, a, b = duo
        a.make_cooperative("tori-b", share_results=True)
        session.pump()
        a.set_condition("author", "eq", "Stefik")
        session.pump()
        a.run_query()
        session.pump()
        assert b.queries_run == 0  # run button not coupled
        a.share_results()
        session.pump()
        assert b.visible_rows() == a.visible_rows()
        # Semantic rows travelled with the result form.
        assert b._semantic_rows == a._semantic_rows
        assert b.database.total_rows_scanned == 0

    def test_refine_synchronized(self, duo):
        session, a, b = duo
        a.make_cooperative("tori-b")
        session.pump()
        a.run_query()
        session.pump()
        a.rows_list.select_indices([0])
        # Selection is coupled (listbox 'selected' is relevant)... via events:
        session.pump()
        a.refine_from_selection()
        session.pump()
        # The refine button is coupled, so b's form got refined too, from
        # b's own selection state.
        assert a.field_value("author").value != ""

    def test_different_databases_same_query(self):
        """'Queries can be sent to different databases' (§4)."""
        session = Session()
        try:
            a = ToriApplication(
                session.create_instance("tori-a", user="u1"),
                sample_publications(100, seed=1),
            )
            b = ToriApplication(
                session.create_instance("tori-b", user="u2"),
                sample_publications(100, seed=2),
            )
            a.make_cooperative("tori-b")
            session.pump()
            a.choose_view("full")
            session.pump()
            a.set_condition("topic", "eq", "hypertext")
            session.pump()
            a.run_query()
            session.pump()
            assert b.queries_run == 1
            # Both evaluated the same predicate, each over its own corpus.
            assert all(d["topic"] == "hypertext" for d in a._semantic_rows)
            assert all(d["topic"] == "hypertext" for d in b._semantic_rows)
            # Different corpora: the row sets genuinely differ.
            assert a.visible_rows() != b.visible_rows()
        finally:
            session.close()
