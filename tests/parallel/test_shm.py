"""Unit tests for the shared-memory worker pool and published sides.

The pool's lifecycle contract: lazy spawn, reuse across runs, automatic
respawn after a worker dies mid-task (with the dead worker's tasks
re-executed), idempotent close, and task exceptions surfacing in the
parent with the worker traceback attached.  The publication contract:
arrays round-trip through shared segments bit-exactly and the owner
tracks (and releases) every byte it published.
"""

import os
import random
import signal
import subprocess
import sys
import time
from multiprocessing import get_all_start_methods
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.passjoin import PassJoinIndex
from repro.core.plan import JoinPlanner
from repro.core.signatures import scheme_for
from repro.core.vectorized import signatures_for_scheme
from repro.data.errors import inject_error
from repro.data.names import build_last_name_pool
from repro.distance.codec import encode_raw
from repro.obs.stats import StatsCollector
from repro.parallel import kernels, shm
from repro.parallel.kernels import pack_signatures
from repro.parallel.partition import balanced_splits
from repro.parallel.prepared import PreparedSide
from repro.parallel.shm import (
    PassJoinProbe,
    Publication,
    WorkerPool,
    _resolve_ref,
    close_shared_pools,
    inline_side,
    run_hybrid,
    shared_pool,
)


def _double(x):
    return x * 2


def _boom(x):
    raise ValueError(f"boom on {x}")


def _kill_once(flag_path):
    """SIGKILL the worker the first time only (the flag file survives
    the corpse, so the re-executed task completes)."""
    if not os.path.exists(flag_path):
        open(flag_path, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


#: a parent that keeps the 2-worker pool busy with hybrid joins forever
_BUSY_PARENT = """
import repro
from repro.data.datasets import dataset_for_family
from repro.parallel import shm

pool = shm.shared_pool(2)
pool.ensure()
print(*(p.pid for p in pool._procs), flush=True)
pair = dataset_for_family("LN", 3000, seed=1)
while True:
    repro.join(pair.error, pair.clean, "FPDL", k=1, generator="all-pairs",
               backend="hybrid", workers=2)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie awaiting its reaper
    counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def _shm_segments() -> set[str]:
    """The POSIX shared-memory segments Python names (``psm_*``)."""
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def assert_pool_dies_with_parent(script: str, *args: str) -> None:
    """Run ``script`` (which starts the 2-worker shared pool, prints the
    worker pids and then keeps the pool busy), SIGKILL it, and assert
    that within 10 s its workers are gone and every shared segment it
    published is unlinked (``/dev/shm`` is back to its baseline).

    The kill waits for a live publication: a segment of this run seen at
    two consecutive polls, with both workers running.  The parent
    publishes and unlinks a segment per join, so one sample can fall
    between two joins; the second sighting also keeps the kill out of
    the window between a segment's ``shm_open`` and its registration
    with the resource tracker, which unlinks it after the kill."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    baseline = _shm_segments()
    parent = subprocess.Popen(
        [sys.executable, "-c", script, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 60
        seen: set[str] = set()
        live: set[str] = set()
        while time.monotonic() < deadline:
            fresh = _shm_segments() - baseline
            live = seen & fresh
            if live and all(map(_running, pids)):
                break
            seen = fresh
            time.sleep(0.02)
        assert all(_running(pid) for pid in pids)
        assert live, "the parent published nothing"
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and (
        any(map(_running, pids)) or _shm_segments() - baseline
    ):
        time.sleep(0.1)
    assert not any(map(_running, pids))
    assert not _shm_segments() - baseline


needs_proc_and_shm = pytest.mark.skipif(
    not (os.path.exists("/proc/self/stat") and os.path.isdir("/dev/shm")),
    reason="needs /proc and /dev/shm",
)


class TestWorkerPool:
    @needs_proc_and_shm
    def test_workers_exit_when_parent_killed(self):
        assert_pool_dies_with_parent(_BUSY_PARENT)

    def test_runs_tasks_in_order(self):
        with WorkerPool(workers=2) as pool:
            out = pool.run_tasks([(_double, i) for i in range(20)])
            assert out == [i * 2 for i in range(20)]
            assert pool.tasks_dispatched == 20
            assert pool.tasks_completed == 20

    def test_pool_reused_across_runs(self):
        with WorkerPool(workers=2) as pool:
            pool.run_tasks([(_double, 1)])
            pids = {p.pid for p in pool._procs}
            pool.run_tasks([(_double, 2)])
            assert {p.pid for p in pool._procs} == pids
            assert pool.respawns == 0

    def test_crash_respawns_and_reruns(self, tmp_path):
        flag = str(tmp_path / "boom.flag")
        with WorkerPool(workers=2) as pool:
            out = pool.run_tasks(
                [(_kill_once, flag), (_double, 21), (_double, 22)]
            )
            assert out == ["survived", 42, 44]
            assert pool.respawns >= 1
            # Respawned workers keep serving.
            assert pool.run_tasks([(_double, 5)]) == [10]

    @pytest.mark.skipif(
        "fork" not in get_all_start_methods(),
        reason="workers must inherit the patched probe",
    )
    def test_probe_crash_reruns_and_credits_once(self, tmp_path, monkeypatch):
        """A worker killed mid-probe: its re-enqueued probe task gives
        the clean run's matches, funnel and generator count, and a task
        that ran twice (re-enqueued while still in flight) is credited
        once."""
        rng = random.Random(15)
        right = build_last_name_pool(300, rng)
        left = [inject_error(s, rng) for s in right[:150]] + right[150:]
        scheme = scheme_for("alpha", 2)
        sides = [PreparedSide(left, scheme), PreparedSide(right, scheme)]
        refs = [side.publish() for side in sides]
        index = PassJoinIndex(right, k=1)

        def run(pool):
            c = StatsCollector("probe")
            probe = PassJoinProbe(index)
            r = run_hybrid(
                pool, *refs, "FPDL", probe,
                scheme=scheme, k=1, collector=c, record_matches=True,
            )
            funnel = {n: (st.tested, st.passed) for n, st in c.stages.items()}
            return sorted(r.matches), r.match_count, probe.emitted, funnel

        try:
            with WorkerPool(workers=2) as pool:
                clean = run(pool)
            log = tmp_path / "probes.log"
            slow_flag = tmp_path / "slow.flag"
            last_r0 = balanced_splits(len(left), 2 * shm._TASKS_PER_WORKER)[-1][0]
            real = kernels.Kernels.run_probe

            def flaky(self, index, r0, r1, obs):
                with open(log, "a") as fh:
                    fh.write(f"{r0}\n")
                if r0 == 0:
                    _kill_once(str(tmp_path / "boom.flag"))
                if r0 == last_r0 and not slow_flag.exists():
                    # In flight while the parent notices the dead worker
                    # and re-enqueues every unanswered task.
                    slow_flag.touch()
                    time.sleep(0.6)
                return real(self, index, r0, r1, obs)

            monkeypatch.setattr(kernels.Kernels, "run_probe", flaky)
            with WorkerPool(workers=2) as pool:
                crashed = run(pool)
                assert pool.respawns >= 1
            runs = log.read_text().split()
            assert runs.count(str(last_r0)) >= 2
            assert crashed == clean
            assert clean[2] > 0
        finally:
            for side in sides:
                side.close()

    @pytest.mark.skipif(
        "fork" not in get_all_start_methods(),
        reason="workers must inherit the patched probe",
    )
    @pytest.mark.parametrize("crash", [False, True], ids=["clean", "crash"])
    def test_probe_matches_arrive_in_lexsort_order(
        self, crash, tmp_path, monkeypatch
    ):
        """Probe tasks order their own matches, so the parent only
        concatenates: the rows equal the ``lexsort((mj, mi))`` of the
        match set, also when a task re-runs after its worker died."""
        rng = random.Random(33)
        right = build_last_name_pool(300, rng)
        left = [inject_error(s, rng) for s in right] + right[::-1]
        want = JoinPlanner(left, right, k=1, record_matches=True).run(
            "FPDL", generator="pass-join", backend="vectorized"
        )
        scheme = scheme_for("alpha", 2)
        sides = [PreparedSide(left, scheme), PreparedSide(right, scheme)]
        refs = [side.publish() for side in sides]
        if crash:
            real = kernels.Kernels.run_probe
            flag = str(tmp_path / "boom.flag")

            def flaky(self, index, r0, r1, obs):
                if r0 > 0:
                    _kill_once(flag)
                return real(self, index, r0, r1, obs)

            monkeypatch.setattr(kernels.Kernels, "run_probe", flaky)
        try:
            with WorkerPool(workers=2) as pool:
                r = run_hybrid(
                    pool, *refs, "FPDL", PassJoinProbe(PassJoinIndex(right, k=1)),
                    scheme=scheme, k=1, record_matches=True,
                )
                assert pool.respawns >= crash
        finally:
            for side in sides:
                side.close()
        mi, mj = r.match_rows
        order = np.lexsort((mj, mi))
        assert r.match_count == len(mi) > len(left)
        np.testing.assert_array_equal(mi, mi[order])
        np.testing.assert_array_equal(mj, mj[order])
        # The in-process tier finds the same rows.
        assert sorted(r.matches) == sorted(want.matches)

    def test_probe_index_published_once_republished_after_extend(self):
        rng = random.Random(16)
        right = build_last_name_pool(120, rng)
        left = [inject_error(s, rng) for s in right]
        scheme = scheme_for("alpha", 2)
        index = PassJoinIndex(right[:80], k=1)
        index_bytes = sum(a.nbytes for a in index.flat())

        def run(rows):
            sides = [
                PreparedSide(left, scheme), PreparedSide(right[:rows], scheme)
            ]
            refs = [side.publish() for side in sides]
            try:
                c = StatsCollector("probe")
                r = run_hybrid(
                    pool, *refs, "FPDL",
                    PassJoinProbe(index), scheme=scheme, k=1, collector=c,
                    record_matches=True,
                )
                want = run_hybrid(
                    pool, *refs, "FPDL",
                    scheme=scheme, k=1, record_matches=True,
                )
                assert sorted(r.matches) == sorted(want.matches)
                return c.counters["shm_bytes_shared"]
            finally:
                for side in sides:
                    side.close()

        with WorkerPool(workers=2) as pool:
            assert run(80) == index_bytes
            assert run(80) == 0  # same index object: no new publication
            index.extend(right[80:])
            grown = sum(a.nbytes for a in index.flat())
            assert run(120) == grown

    def test_task_exception_raises_with_traceback(self):
        with WorkerPool(workers=2) as pool:
            with pytest.raises(RuntimeError, match="boom on 7"):
                pool.run_tasks([(_boom, 7)])
            # The pool survives a failing task.
            assert pool.run_tasks([(_double, 3)]) == [6]

    def test_close_idempotent(self):
        pool = WorkerPool(workers=2)
        pool.run_tasks([(_double, 1)])
        pool.close()
        assert pool.closed
        assert pool.alive_workers() == 0
        pool.close()

    def test_bytes_pickled_counted(self):
        with WorkerPool(workers=2) as pool:
            pool.run_tasks([(_double, "x" * 1000)])
            assert pool.bytes_pickled >= 1000


class TestHeartbeat:
    def test_heartbeat_reports_lifetime_and_per_worker(self):
        with WorkerPool(workers=2) as pool:
            pool.run_tasks([(_double, i) for i in range(8)])
            hb = pool.heartbeat()
            assert hb["workers"] == 2
            assert hb["alive"] == 2
            assert hb["tasks_dispatched"] == 8
            assert hb["tasks_completed"] == 8
            assert hb["uptime_s"] >= 0.0
            per = hb["per_worker"]
            assert per and sum(w["tasks"] for w in per.values()) == 8
            for w in per.values():
                assert w["alive"] is True
                assert 0.0 <= w["busy_ratio"]
                assert w["age_s"] >= 0.0

    def test_heartbeat_before_any_run(self):
        pool = WorkerPool(workers=2)
        hb = pool.heartbeat()
        assert hb["alive"] == 0
        assert hb["uptime_s"] == 0.0
        assert hb["per_worker"] == {}
        pool.close()

    def test_publish_pool_metrics(self):
        from repro.obs.events import EventLog
        from repro.obs.metrics import MetricsRegistry
        from repro.parallel.shm import publish_pool_metrics

        reg = MetricsRegistry()
        events = EventLog()
        with WorkerPool(workers=2) as pool:
            pool.run_tasks([(_double, i) for i in range(6)])
            hb = publish_pool_metrics(pool, reg, events)
        assert reg.gauge("pool_workers").value == 2
        assert reg.counter("pool_tasks_completed_total").value == 6
        per_worker_tasks = [
            inst.value
            for name, labels, inst in reg.series()
            if name == "pool_worker_tasks"
        ]
        assert sum(per_worker_tasks) == 6
        assert hb["tasks_completed"] == 6
        # No respawn happened, so no respawn event.
        assert not any(e["kind"] == "worker_respawn" for e in events.tail())

    def test_publish_counters_monotone_across_polls(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.parallel.shm import publish_pool_metrics

        reg = MetricsRegistry()
        with WorkerPool(workers=2) as pool:
            pool.run_tasks([(_double, 1)])
            publish_pool_metrics(pool, reg)
            first = reg.counter("pool_tasks_completed_total").value
            pool.run_tasks([(_double, 2), (_double, 3)])
            publish_pool_metrics(pool, reg)
            second = reg.counter("pool_tasks_completed_total").value
        assert (first, second) == (1, 3)

    def test_respawn_event_emitted_once(self, tmp_path):
        from repro.obs.events import EventLog
        from repro.obs.metrics import MetricsRegistry
        from repro.parallel.shm import publish_pool_metrics

        reg = MetricsRegistry()
        events = EventLog()
        flag = str(tmp_path / "boom.flag")
        with WorkerPool(workers=2) as pool:
            pool.run_tasks([(_kill_once, flag), (_double, 1)])
            publish_pool_metrics(pool, reg, events)
            respawn_events = [
                e for e in events.tail() if e["kind"] == "worker_respawn"
            ]
            assert len(respawn_events) == 1
            assert respawn_events[0]["count"] >= 1
            # A second poll without new deaths emits nothing further.
            publish_pool_metrics(pool, reg, events)
            assert (
                sum(1 for e in events.tail() if e["kind"] == "worker_respawn")
                == 1
            )
            assert reg.counter("pool_respawns_total").value >= 1

    def test_stale_worker_gauges_pruned_after_respawn(self, tmp_path):
        from repro.obs.events import EventLog
        from repro.obs.metrics import MetricsRegistry
        from repro.parallel.shm import publish_pool_metrics

        reg = MetricsRegistry()
        events = EventLog()
        flag = str(tmp_path / "prune.flag")
        with WorkerPool(workers=2) as pool:
            pool.run_tasks([(_double, 1), (_double, 2)])
            publish_pool_metrics(pool, reg, events)
            first_pids = set(pool._published_pids)
            pool.run_tasks([(_kill_once, flag)])
            publish_pool_metrics(pool, reg, events)
            second_pids = set(pool._published_pids)
            dead = first_pids - second_pids
            assert dead  # the killed worker's pid left the roster
            snap = reg.snapshot()["metrics"]
            for pid in dead:
                assert not any(f'pid="{pid}"' in name for name in snap)
            for pid in second_pids:
                assert f'pool_worker_alive{{pid="{pid}"}}' in snap
            respawn_events = [
                e for e in events.tail() if e["kind"] == "worker_respawn"
            ]
            assert len(respawn_events) == 1


class TestSharedPool:
    def test_process_wide_reuse(self):
        a = shared_pool(2)
        a.run_tasks([(_double, 1)])
        hits = a.reuse_hits
        b = shared_pool(2)
        assert b is a
        assert a.reuse_hits == hits + 1

    def test_pools_keyed_by_worker_count(self):
        close_shared_pools()
        a, b = shared_pool(2), shared_pool(3)
        assert a is not b
        assert shared_pool(2) is a
        assert sorted(shm._SHARED_POOLS) == [2, 3]
        close_shared_pools()

    def test_closed_pool_replaced(self):
        a = shared_pool(2)
        a.close()
        b = shared_pool(2)
        assert b is not a
        assert b.run_tasks([(_double, 4)]) == [8]


NAMES = ["SMITH", "SMYTH", "", "JONES", "VERYLONGLASTNAME", "JONSE", "SMITH"]


class TestPublication:
    def test_pack_signatures_round_width(self):
        sigs = np.arange(18, dtype=np.uint32).reshape(6, 3)
        packed = pack_signatures(sigs)
        assert packed.dtype == np.uint64
        assert packed.shape == (6, 2)
        # Odd widths are zero-padded, so the unpacked view's first
        # three columns equal the original words.
        back = packed.view(np.uint32).reshape(6, 4)[:, :3]
        assert np.array_equal(back, sigs)

    def test_shared_side_round_trips(self):
        scheme = scheme_for("alpha", 2)
        side = PreparedSide(NAMES, scheme)
        try:
            arrays = side.publish()
            assert arrays.n == len(NAMES)
            assert side.publication.bytes_shared > 0
            codes, lengths = encode_raw(NAMES)
            assert np.array_equal(_resolve_ref(arrays.codes), codes)
            assert np.array_equal(_resolve_ref(arrays.lengths), lengths)
            expect = pack_signatures(signatures_for_scheme(NAMES, scheme))
            assert np.array_equal(_resolve_ref(arrays.sigs), expect)
            assert side.publish() is arrays  # published once
        finally:
            side.close()

    def test_inline_side_matches_shared(self):
        scheme = scheme_for("alpha", 2)
        side = PreparedSide(NAMES, scheme)
        try:
            inline = inline_side(side.side())
            assert np.array_equal(
                _resolve_ref(inline.codes), _resolve_ref(side.publish().codes)
            )
            assert inline.codes[0] == "inline"
        finally:
            side.close()

    def test_shared_datasets_self_join_publishes_vid(self):
        planner = JoinPlanner(NAMES, list(NAMES), scheme="alpha")
        ds = planner.shared_datasets()
        assert ds.left.vid is not None
        vid = _resolve_ref(ds.left.vid)
        # Value identity, not position: the two JON* rows differ,
        # equal strings share an id.
        assert vid[0] != vid[1]
        assert vid[0] == vid[6]
        assert len(set(vid.tolist())) == len(set(NAMES))

    def test_close_releases_segments(self):
        scheme = scheme_for("alpha", 2)
        side = PreparedSide(NAMES, scheme)
        name = side.publish().codes[1]
        side.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_republished_after_growth_before_old_unlinked(self):
        from multiprocessing import shared_memory

        rows = list(NAMES)
        side = PreparedSide(rows, "alpha")
        try:
            first = side.publish()
            rows.append("ABCDEFGHIJKLMNOP")
            grown = side.publish()
            assert grown.n == len(NAMES) + 1
            assert grown.codes[1] != first.codes[1]
            codes = _resolve_ref(grown.codes)
            assert codes.shape == (len(rows), len("ABCDEFGHIJKLMNOP"))
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=first.codes[1])
        finally:
            side.close()

    def test_bytes_credited_once(self):
        pub = Publication()
        try:
            pub.array(np.zeros(10, dtype=np.int64))
            assert pub.credit() == 80
            assert pub.credit() == 0
            pub.array(np.zeros(3, dtype=np.uint8))
            assert pub.credit() == 3
            assert pub.bytes_shared == 83
        finally:
            pub.close()


def teardown_module(module):
    close_shared_pools()
