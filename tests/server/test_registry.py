"""Unit tests for the registration records."""

import pytest

from repro.errors import AlreadyRegisteredError, NotRegisteredError
from repro.server.registry import RegistrationRecord, Registry, record_from_delta


def record(instance_id="i1", user="alice", app_type="editor"):
    return RegistrationRecord(
        instance_id=instance_id,
        user=user,
        host="host-1",
        app_type=app_type,
        registered_at=1.5,
    )


class TestRegistry:
    def test_add_get(self):
        reg = Registry()
        reg.add(record())
        assert reg.get("i1").user == "alice"
        assert "i1" in reg
        assert len(reg) == 1

    def test_duplicate_rejected(self):
        reg = Registry()
        reg.add(record())
        with pytest.raises(AlreadyRegisteredError):
            reg.add(record())

    def test_remove_returns_record(self):
        reg = Registry()
        reg.add(record())
        removed = reg.remove("i1")
        assert removed.instance_id == "i1"
        assert "i1" not in reg

    def test_remove_missing_raises(self):
        with pytest.raises(NotRegisteredError):
            Registry().remove("ghost")

    def test_get_missing_raises(self):
        with pytest.raises(NotRegisteredError):
            Registry().get("ghost")

    def test_by_user(self):
        reg = Registry()
        reg.add(record("i1", "alice"))
        reg.add(record("i2", "bob"))
        reg.add(record("i3", "alice"))
        assert {r.instance_id for r in reg.by_user("alice")} == {"i1", "i3"}

    def test_by_app_type(self):
        reg = Registry()
        reg.add(record("i1", app_type="teacher"))
        reg.add(record("i2", app_type="student"))
        reg.add(record("i3", app_type="student"))
        assert len(reg.by_app_type("student")) == 2

    def test_roster_wire_roundtrip(self):
        reg = Registry()
        reg.add(record())
        entry = reg.roster()[0]
        rebuilt = RegistrationRecord.from_wire(entry)
        assert rebuilt == record()

    def test_every_change_bumps_the_version(self):
        reg = Registry()
        assert reg.version == 0
        reg.add(record("i1"))
        reg.add(record("i2"))
        with pytest.raises(AlreadyRegisteredError):
            reg.add(record("i2"))
        reg.remove("i1")
        with pytest.raises(NotRegisteredError):
            reg.remove("i1")
        assert reg.version == 3  # refused changes are not changes

    def test_roster_messages_stamp_the_version(self):
        reg = Registry()
        reg.add(record("i1", "alice"))
        assert reg.full_roster() == {"roster": reg.roster(), "version": 1}
        reg.add(record("i2", "bob"))
        joined = reg.joined_delta(reg.get("i2"))
        assert joined["joined"] == "i2" and joined["version"] == 2
        assert "instance_id" not in joined["record"]  # said once
        assert record_from_delta(joined) == reg.get("i2")
        reg.remove("i1")
        assert reg.left_delta("i1") == {"left": "i1", "version": 3}

    def test_restore_resumes_the_chain(self):
        reg = Registry()
        reg.add(record("i1", "kept"))
        reg.restore([record("i1", "ignored"), record("i2")], 9)
        assert reg.instance_ids() == ("i1", "i2")
        assert reg.get("i1").user == "kept"
        assert reg.version == 9
        reg.add(record("i3"))
        assert reg.version == 10

    def test_instance_ids_order(self):
        reg = Registry()
        for name in ("z", "a", "m"):
            reg.add(record(name))
        assert reg.instance_ids() == ("z", "a", "m")
