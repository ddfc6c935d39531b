"""Tests for the §4 intelligent demon (automatic help requests)."""

import pytest

from repro.apps.classroom import (
    IntelligentDemon,
    StudentEnvironment,
    TeacherEnvironment,
)
from repro.session import Session


@pytest.fixture
def room():
    session = Session()
    teacher = TeacherEnvironment(
        session.create_instance("teacher", user="t", app_type="cosoft-teacher")
    )
    student = StudentEnvironment(
        session.create_instance("ws-0", user="kim", app_type="cosoft-student")
    )
    demon = IntelligentDemon(student, "teacher", fiddle_threshold=4)
    session.pump()
    yield session, teacher, student, demon
    session.close()


class TestDemon:
    def test_thrashing_triggers_automatic_request(self, room):
        session, teacher, student, demon = room
        for i in range(4):
            student.set_parameters(i + 1, 1)
        session.pump()
        queue = teacher.pending_help()
        assert len(queue) == 1
        assert queue[0]["data"]["demon"] is True
        assert demon.alerts_sent == 1

    def test_set_parameters_counts_both_scales(self, room):
        session, teacher, student, demon = room
        # set_parameters fires two events; two calls reach threshold 4.
        student.set_parameters(2, 2)
        student.set_parameters(3, 3)
        session.pump()
        assert demon.alerts_sent == 1

    def test_writing_an_answer_resets_the_counter(self, room):
        session, teacher, student, demon = room
        student.set_parameters(2, 2)          # 2 fiddles
        student.write_answer("A=2 because…")  # progress: reset
        student.set_parameters(3, 3)          # 2 fiddles again
        session.pump()
        assert demon.alerts_sent == 0
        assert teacher.pending_help() == []

    def test_disarmed_until_progress(self, room):
        session, teacher, student, demon = room
        for i in range(8):
            student.set_parameters(i + 1, 1)
        session.pump()
        assert demon.alerts_sent == 1  # not re-fired while disarmed
        student.write_answer("trying something")
        for i in range(4):
            student.set_parameters(i + 2, 2)
        session.pump()
        assert demon.alerts_sent == 2

    def test_teacher_driving_the_scales_does_not_count(self, room):
        session, teacher, student, demon = room
        teacher.join_session("ws-0")
        session.pump()
        for i in range(6):
            teacher.set_parameters(i + 1, 1)
        session.pump()
        # The coupled re-executions carried the teacher's user tag.
        assert demon.alerts_sent == 0

    def test_threshold_validated(self, room):
        _, _, student, _ = room
        with pytest.raises(ValueError):
            IntelligentDemon(student, "teacher", fiddle_threshold=0)
