"""Tests for the COSOFT classroom application (§4)."""

import pytest

from repro.apps.classroom import (
    StudentEnvironment,
    TeacherEnvironment,
    couple_simulation_directly,
)
from repro.session import Session


@pytest.fixture
def classroom():
    session = Session()
    teacher = TeacherEnvironment(
        session.create_instance("teacher", user="hoppe")
    )
    students = [
        StudentEnvironment(
            session.create_instance(f"student-{i}", user=f"kid-{i}")
        )
        for i in range(2)
    ]
    session.pump()
    yield session, teacher, students
    session.close()


class TestHelpRequests:
    def test_request_buffered_at_teacher(self, classroom):
        session, teacher, (s1, s2) = classroom
        ack = s1.request_help("lost", "teacher")
        assert ack == {"queued": 1}
        queue = teacher.pending_help()
        assert queue[0]["student"] == "student-0"
        assert queue[0]["data"]["message"] == "lost"

    def test_multiple_requests_queue_in_order(self, classroom):
        session, teacher, (s1, s2) = classroom
        s1.request_help("first", "teacher")
        s2.request_help("second", "teacher")
        students = [entry["student"] for entry in teacher.pending_help()]
        assert students == ["student-0", "student-1"]


class TestJoinSession:
    def test_indirect_join_couples_params_not_display(self, classroom):
        session, teacher, (s1, _) = classroom
        coupled = teacher.join_session("student-0")
        session.pump()
        coupled_teacher_paths = {t for t, _ in coupled}
        assert "/teacher/params/amplitude" in coupled_teacher_paths
        assert "/teacher/simulation" not in coupled_teacher_paths
        assert teacher.instance.is_coupled("/teacher/params/amplitude")
        assert not teacher.instance.is_coupled("/teacher/simulation")

    def test_parameter_changes_regenerate_remote_display(self, classroom):
        session, teacher, (s1, _) = classroom
        teacher.join_session("student-0")
        session.pump()
        regens_before = s1.simulation_regenerations
        teacher.set_parameters(6, 2)
        session.pump()
        assert s1._amp.value == 6
        assert s1._freq.value == 2
        assert s1.simulation_regenerations > regens_before
        # Indirect coupling converges the displays without shipping them.
        assert s1.simulation_strokes == teacher.simulation_strokes

    def test_student_changes_flow_back(self, classroom):
        session, teacher, (s1, _) = classroom
        teacher.join_session("student-0")
        session.pump()
        s1.set_parameters(3, 5)
        session.pump()
        assert teacher._amp.value == 3
        assert teacher.simulation_strokes == s1.simulation_strokes

    def test_notes_coupled_to_answer(self, classroom):
        session, teacher, (s1, _) = classroom
        teacher.join_session("student-0")
        session.pump()
        teacher.write_note("watch the amplitude")
        session.pump()
        assert s1.answer_text == "watch the amplitude"

    def test_leave_session_decouples(self, classroom):
        session, teacher, (s1, _) = classroom
        teacher.join_session("student-0")
        session.pump()
        count = teacher.leave_session("student-0")
        session.pump()
        assert count == 3
        teacher.set_parameters(9, 9)
        session.pump()
        assert s1._amp.value != 9

    def test_second_student_unaffected(self, classroom):
        session, teacher, (s1, s2) = classroom
        teacher.join_session("student-0")
        session.pump()
        teacher.set_parameters(7, 1)
        session.pump()
        assert s1._amp.value == 7
        assert s2._amp.value == 1  # the default


class TestDirectCoupling:
    def test_direct_display_coupling_ships_strokes(self, classroom):
        session, teacher, (s1, _) = classroom
        couple_simulation_directly(teacher, "student-0")
        session.pump()
        before = session.network.stats.bytes
        teacher.set_parameters(8, 4)
        session.pump()
        shipped = session.network.stats.bytes - before
        # The display strokes travelled over the wire (big payload).
        assert s1.simulation_strokes == teacher.simulation_strokes
        assert shipped > 2000

    def test_indirect_coupling_is_cheaper(self):
        """The E9 claim, asserted qualitatively at unit-test scale."""

        def run(indirect):
            session = Session()
            try:
                teacher = TeacherEnvironment(
                    session.create_instance("teacher", user="t")
                )
                s1 = StudentEnvironment(
                    session.create_instance("student-0", user="s")
                )
                session.pump()
                if indirect:
                    teacher.join_session(
                        "student-0",
                        pairs=[
                            ("/teacher/params/amplitude",
                             "/student/exercise/amplitude"),
                            ("/teacher/params/frequency",
                             "/student/exercise/frequency"),
                        ],
                    )
                else:
                    couple_simulation_directly(teacher, "student-0")
                session.pump()
                base = session.network.stats.bytes
                for value in range(1, 6):
                    teacher.set_parameters(value, value)
                session.pump()
                assert (
                    s1.simulation_strokes == teacher.simulation_strokes
                )
                return session.network.stats.bytes - base
            finally:
                session.close()

        assert run(indirect=True) * 2 < run(indirect=False)


class TestInspection:
    def test_teacher_pulls_student_answer(self, classroom):
        session, teacher, (s1, _) = classroom
        s1.write_answer("my solution")
        session.pump()
        teacher.inspect_student_work(
            "student-0", "/student/exercise/answer", "/teacher/notes"
        )
        assert teacher.ui.find("/teacher/notes").text == "my solution"
