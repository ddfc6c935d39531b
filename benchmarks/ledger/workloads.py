"""The seven ledger workloads.

Each workload builds one deployment from its *shape* only (``backend``,
``shards``, ``processes``, ``persistence``) — every other knob stays at
the commit's default, so a default flip shows as a gain and a deleted
knob cannot break the benchmark.  ``--seed`` drives payload text, field
choice and churn pairing; all generated strings have a fixed length and
all instance ids a fixed width, so message and byte counts are the same
for every seed.

A workload exposes ``setup()``, ``act(k)`` (one user action; returns its
latency in seconds or ``None`` when it failed), ``settle()`` (wait for
what that action left in flight), ``quiesce()`` (the same for a whole
phase), ``check()`` (the output check, a list of problems) and ``close()``.
"""

from __future__ import annotations

import os
import random
import string
import time
from typing import Any, Callable, Dict, List, Optional

from completion import DEADLINE, Arrivals, await_count, await_replica
from specs import Spec

from repro.errors import ReproError
from repro.net import kinds
from repro.session import Session
from repro.toolkit.events import VALUE_CHANGED
from repro.toolkit.widgets import Form, Shell, TextField

#: Length of every generated payload string.
TEXT_LEN = 24

#: Untimed warm-up actions, as a share of the timed action count.
WARMUP_SHARE = 0.10


def _texts(rng: random.Random, count: int) -> List[str]:
    letters = string.ascii_lowercase
    return ["".join(rng.choices(letters, k=TEXT_LEN)) for _ in range(count)]


class Workload:
    """Shared deployment plumbing of the three workload kinds."""

    def __init__(
        self,
        spec: Spec,
        seed: int,
        workdir: str,
        actions: int,
        *,
        observability: bool = False,
        shape: Optional[Dict[str, Any]] = None,
        pause: Callable[[], None] = lambda: None,
    ):
        self.spec = spec
        self.actions = actions
        self.warmup = max(1, int(actions * WARMUP_SHARE))
        self.rng = random.Random(seed)
        self.shape = dict(spec.shape if shape is None else shape)
        if spec.journal and "persistence" not in self.shape:
            self.shape["persistence"] = os.path.join(workdir, "journal")
        if observability:
            self.shape["observability"] = True
        #: Called between the steps of ``setup()``; the repetition times a
        #: calibration probe there and takes the time back out.
        self.pause = pause
        self.session: Optional[Session] = None
        self.instances: List[Any] = []
        self.fields: List[TextField] = []

    # -- deployment ------------------------------------------------------

    def _open(self) -> Session:
        self.session = Session(**self.shape)
        return self.session

    def _join(self, index: int, root_child) -> Any:
        """Register instance *index* with a ``/ui`` shell holding *root_child*."""
        instance = self.session.create_instance(
            f"i{index:02d}", user=f"u{index:02d}"
        )
        shell = Shell("ui")
        shell.add_child(root_child)
        instance.add_root(shell)
        self.instances.append(instance)
        self.pause()
        return instance

    def worker_pids(self) -> List[int]:
        cluster = self.session.cluster
        if cluster is None:
            return []
        processes = cluster.cluster_status().get("processes", {})
        return [info["pid"] for info in processes.values() if info.get("pid")]

    def journal_bytes(self) -> int:
        setting = self.shape.get("persistence")
        root = getattr(setting, "directory", setting)
        if not isinstance(root, str):
            return 0
        total = 0
        for folder, _dirs, files in os.walk(root):
            if os.path.basename(folder) == "oplog":
                total += sum(
                    os.path.getsize(os.path.join(folder, name)) for name in files
                )
        return total

    def lock_denials(self) -> int:
        return sum(inst.stats["lock_denials"] for inst in self.instances)

    def locks_held(self) -> int:
        """Entries in the floor-control lock table(s) right now."""
        cluster = self.session.cluster
        if cluster is None:
            return len(self.session.server.locks)
        # Worker lock tables are only visible through the heartbeat's
        # stats; wait for a pong younger than this call.
        asked = time.monotonic()
        end = asked + DEADLINE
        while time.monotonic() < end:
            if all(h.last_pong > asked for h in cluster.shards.values()):
                break
            time.sleep(0.01)
        per_shard = cluster.stats()["per_shard"].values()
        return sum(int(s["worker"].get("locks_held", -1)) for s in per_shard)

    # -- the interface the repetition drives --------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def act(self, k: int) -> Optional[float]:
        raise NotImplementedError

    def settle(self) -> bool:
        """Wait out what one action leaves in flight (False on timeout)."""
        return True

    def quiesce(self) -> bool:
        """Wait out what a whole phase leaves in flight (False on timeout)."""
        return self.settle()

    def check(self) -> List[str]:
        """The output check; subclasses add to the shared lock-table check."""
        held = self.locks_held()
        return [f"lock table not empty ({held} entries)"] if held else []

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


class GroupCommit(Workload):
    """N instances, one couple group, every commit issued by ``i00``."""

    def setup(self) -> None:
        session = self._open()
        n = self.spec.instances
        for index in range(n):
            text = TextField("field")
            self._join(index, text)
            self.fields.append(text)
        source = self.instances[0]
        for index in range(1, n):
            peer = self.instances[index].gid(self.fields[index])
            source.couple(self.fields[0], peer)
            self.pause()
        for instance, text in zip(self.instances, self.fields):
            if not await_replica(
                instance, lambda: len(instance.coupled_objects(text)) == n - 1
            ):
                raise ReproError(f"{instance.instance_id}: couple group incomplete")
        self.arrivals = Arrivals(n - 1)
        for text in self.fields[1:]:
            text.add_callback(VALUE_CHANGED, self.arrivals)
        self.values = _texts(self.rng, self.warmup + self.actions)
        self.last_value = ""
        self._memory = session.backend == "memory"
        self._acks = session.server.processed[kinds.EVENT_ACK]

    def act(self, k: int) -> Optional[float]:
        value = self.values[k]
        arrivals = self.arrivals
        arrivals.arm()
        started = time.perf_counter()
        self.fields[0].commit(value)
        if not self.instances[0].last_execution.executed:
            return None  # floor denied or lock request timed out
        self.last_value = value
        if self._memory:
            self.session.pump()
            ended = time.perf_counter()
            return ended - started if arrivals.count == arrivals.expected else None
        self._acks += arrivals.expected
        if not arrivals.wait():
            return None
        return arrivals.stamp - started

    def settle(self) -> bool:
        """The floor is free again once the server has seen every ack."""
        if self._memory:
            return True
        processed = self.session.server.processed
        if await_count(processed, kinds.EVENT_ACK, self._acks):
            return True
        self._acks = processed[kinds.EVENT_ACK]  # resynchronise after a loss
        return False

    def check(self) -> List[str]:
        problems = super().check()
        problems += [
            f"{inst.instance_id} shows {text.value!r}, not {self.last_value!r}"
            for inst, text in zip(self.instances, self.fields)
            if text.value != self.last_value
        ]
        if self.spec.journal and self.journal_bytes() <= 0:
            problems.append("journals are empty")
        return problems


class CopyForm(Workload):
    """Edit one seeded field of form A, CopyTo B, CopyFrom B back."""

    FIELDS = 25

    def setup(self) -> None:
        self._open()
        self.forms = []
        self.form_fields: List[List[TextField]] = []
        for index in range(2):
            form = Form("form")
            texts = [TextField(f"f{j:02d}") for j in range(self.FIELDS)]
            for text in texts:
                form.add_child(text)
            self._join(index, form)
            self.forms.append(form)
            self.form_fields.append(texts)
        total = self.warmup + self.actions
        # Seeded shuffles back to back: every field is edited equally often
        # whatever the seed, which keeps byte counts seed-independent.
        self.choices: List[int] = []
        while len(self.choices) < total:
            self.choices += self.rng.sample(range(self.FIELDS), self.FIELDS)
        self.values = _texts(self.rng, total)
        self.target = self.instances[1].gid(self.forms[1])

    def act(self, k: int) -> Optional[float]:
        a = self.instances[0]
        form = self.forms[0]
        choice, value = self.choices[k], self.values[k]
        started = time.perf_counter()
        self.form_fields[0][choice].commit(value)
        try:
            a.copy_to(form, self.target)
            a.copy_from(form, self.target)
        except ReproError:
            return None
        ended = time.perf_counter()
        # B answers the fetch after applying the push (one FIFO connection),
        # so both forms must show the edit by now.
        if self.form_fields[1][choice].value != value:
            return None
        return ended - started

    def check(self) -> List[str]:
        return super().check() + [
            f"{left.name}: form A {left.value!r} != form B {right.value!r}"
            for left, right in zip(*self.form_fields)
            if left.value != right.value
        ]


class Churn(Workload):
    """Seeded sparse ``couple`` then ``decouple`` of instance pairs."""

    def setup(self) -> None:
        self._open()
        n = self.spec.instances
        for index in range(n):
            text = TextField("field")
            self._join(index, text)
            self.fields.append(text)
        # Both phases must end on a decouple, so both counts are even.
        self.warmup += self.warmup % 2
        self.actions += self.actions % 2
        pairs = (self.warmup + self.actions) // 2
        self.pairs = [tuple(self.rng.sample(range(n), 2)) for _ in range(pairs)]

    def act(self, k: int) -> Optional[float]:
        a, b = self.pairs[k // 2]
        source, peer = self.instances[a], self.instances[b]
        peer_field = self.fields[b]
        target = peer.gid(peer_field)
        coupling = k % 2 == 0
        started = time.perf_counter()
        try:
            if coupling:
                source.couple(self.fields[a], target)
            else:
                source.decouple(self.fields[a], target)
        except ReproError:
            return None
        if not await_replica(peer, lambda: peer.is_coupled(peer_field) == coupling):
            return None
        return time.perf_counter() - started

    def quiesce(self) -> bool:
        """Every replica (not only the pair's) has absorbed the updates."""
        return all(
            await_replica(inst, lambda: not inst.is_coupled(text))
            for inst, text in zip(self.instances, self.fields)
        )

    def check(self) -> List[str]:
        return super().check() + [
            f"{inst.instance_id} still sees a couple link"
            for inst, text in zip(self.instances, self.fields)
            if inst.is_coupled(text)
        ]


KINDS = {"commit": GroupCommit, "copy": CopyForm, "churn": Churn}


def build(
    spec: Spec, seed: int, workdir: str, actions: int, **options: Any
) -> Workload:
    return KINDS[spec.kind](spec, seed, workdir, actions, **options)
