"""Crash resilience: SIGKILL + resume equivalence, shm/spill cleanup.

These tests drive ``join_stream`` in a subprocess (the only way to
really kill it) with ``REPRO_STREAM_CHUNK_SLEEP_MS`` widening the
window between chunks so the signal reliably lands mid-run.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.stats import StatsCollector
from repro.stream import join_stream

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

DRIVER_SCRIPT = """\
import sys
from repro.io import read_strings
from repro.stream import join_stream

src, roster, spill, ck, backend = sys.argv[1:6]
join_stream(
    src,
    read_strings(roster),
    "FPDL",
    k=1,
    chunk_rows=250,
    spill=spill,
    checkpoint=ck if ck != "-" else None,
    backend=backend,
    workers=2 if backend == "hybrid" else None,
)
print("COMPLETED")
"""

#: a hybrid stream that sends itself SIGTERM from inside the ``shm_open``
#: creating its Nth segment (argv[3]): the handler's ``SystemExit`` is
#: due before the segment is registered anywhere
MID_CREATION_SCRIPT = """\
import os
import signal
import sys
from multiprocessing import shared_memory
from repro.io import read_strings
from repro.stream import join_stream

real, parent, created = shared_memory._posixshmem, os.getpid(), []


class TermMidCreation:
    def __getattr__(self, name):
        return getattr(real, name)

    def shm_open(self, name, flags, mode=0o777):
        fd = real.shm_open(name, flags, mode)
        if os.getpid() == parent and flags & os.O_CREAT:
            created.append(name)
            if len(created) == int(sys.argv[3]):
                os.kill(parent, signal.SIGTERM)
        return fd


shared_memory._posixshmem = TermMidCreation()
join_stream(sys.argv[1], read_strings(sys.argv[2]), "FPDL", k=1,
            chunk_rows=250, backend="hybrid", workers=2)
print("COMPLETED")
"""


#: a checkpointed stream whose spill thread holds chunk 2: its flush
#: touches argv[5] and then waits a second before it writes
WRITER_HELD_SCRIPT = """\
import sys
import time
from pathlib import Path
from repro.io import read_strings
from repro.stream import join_stream
from repro.stream.spill import SpillWriter

real_flush, flushes = SpillWriter.flush, []


def held_flush(self):
    flushes.append(1)
    if len(flushes) == 3:
        Path(sys.argv[5]).touch()
        time.sleep(1.0)
    real_flush(self)


SpillWriter.flush = held_flush
join_stream(sys.argv[1], read_strings(sys.argv[2]), "FPDL", k=1,
            chunk_rows=250, spill=sys.argv[3], checkpoint=sys.argv[4])
print("COMPLETED")
"""


def _spawn(tmp_path, big_file, roster_file, spill, ck, backend, sleep_ms):
    script = tmp_path / "driver.py"
    script.write_text(DRIVER_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_STREAM_CHUNK_SLEEP_MS"] = str(sleep_ms)
    return subprocess.Popen(
        [
            sys.executable,
            str(script),
            str(big_file),
            str(roster_file),
            str(spill),
            str(ck) if ck else "-",
            backend,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def _wait_for(predicate, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _shm_entries():
    root = Path("/dev/shm")
    if not root.exists():
        return None
    return {p.name for p in root.iterdir()}


@pytest.fixture
def roster_file(stream_data, tmp_path):
    roster, _ = stream_data
    path = tmp_path / "roster.txt"
    path.write_text("".join(f"{s}\n" for s in roster))
    return path


class TestKillAndResume:
    def test_sigkill_then_resume_matches_uninterrupted(
        self, stream_data, big_file, roster_file, tmp_path
    ):
        roster, _ = stream_data
        # Ground truth: one uninterrupted streamed run.
        join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=250,
            spill=tmp_path / "full.jsonl",
        )

        spill = tmp_path / "killed.jsonl"
        ck = tmp_path / "ck.json"
        proc = _spawn(
            tmp_path, big_file, roster_file, spill, ck, "vectorized", 200
        )
        try:
            # Wait until at least one checkpoint is durable, then kill
            # hard mid-stream (SIGKILL: no cleanup code runs at all).
            assert _wait_for(ck.exists), "driver never wrote a checkpoint"
            proc.kill()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.kill()
        assert proc.returncode not in (0, None)
        assert ck.exists()

        obs = StatsCollector("resumed")
        resumed = join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=250,
            spill=spill, checkpoint=ck, resume=True, collector=obs,
        )
        assert resumed.completed
        assert resumed.resumed_after is not None
        assert spill.read_bytes() == (tmp_path / "full.jsonl").read_bytes()
        assert obs.conserved
        assert obs.pairs_considered == resumed.rows * len(roster)
        assert not ck.exists()


    def test_sigterm_while_the_spill_thread_holds_a_chunk(
        self, stream_data, big_file, roster_file, tmp_path
    ):
        """The TERM lands while chunk 2 is being spilled: the stream
        finishes that chunk's spill and checkpoint before it exits, and
        the resumed spill is the uninterrupted one."""
        roster, _ = stream_data
        join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=250,
            spill=tmp_path / "full.jsonl",
        )
        spill, ck, held = (
            tmp_path / "held.jsonl", tmp_path / "ck.json", tmp_path / "held"
        )
        script = tmp_path / "writer_held.py"
        script.write_text(WRITER_HELD_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(script), str(big_file), str(roster_file),
             str(spill), str(ck), str(held)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert _wait_for(held.exists), "the spill thread never held"
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.kill()
                proc.communicate()
        assert proc.returncode == 128 + signal.SIGTERM, err
        assert b"COMPLETED" not in out
        import json

        recorded = json.loads(ck.read_text())
        assert recorded["chunk"] == 2
        assert spill.stat().st_size == recorded["spill_bytes"]

        obs = StatsCollector("resumed")
        resumed = join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=250,
            spill=spill, checkpoint=ck, resume=True, collector=obs,
        )
        assert resumed.resumed_after == 2
        assert spill.read_bytes() == (tmp_path / "full.jsonl").read_bytes()
        assert obs.conserved
        assert obs.pairs_considered == resumed.rows * len(roster)
        assert not ck.exists()


class TestInterruptCleanup:
    def test_sigterm_unlinks_shared_segments_and_partial_spill(
        self, big_file, roster_file, tmp_path
    ):
        baseline = _shm_entries()
        if baseline is None:
            pytest.skip("/dev/shm not available on this platform")
        spill = tmp_path / "partial.jsonl"
        proc = _spawn(
            tmp_path, big_file, roster_file, spill, None, "hybrid", 300
        )
        try:
            # Wait for the roster publication (new /dev/shm entries) and
            # the first spilled chunk, so the TERM lands mid-stream.
            assert _wait_for(
                lambda: (_shm_entries() - baseline) and spill.exists()
            ), "driver never published segments"
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.kill()
                proc.communicate()
        assert b"COMPLETED" not in out
        # The TERM handler raises SystemExit: finalizers unlink every
        # segment this run published...
        assert _wait_for(
            lambda: not (_shm_entries() - baseline), timeout=30
        ), f"leaked shm segments: {_shm_entries() - baseline}"
        # ...and with no checkpoint to resume from, the torn spill file
        # is removed rather than left half-written.
        assert not spill.exists()

    # The roster side's first array, then the first PASS-JOIN index
    # array (published by the first chunk's run).
    @pytest.mark.parametrize("nth", [1, 4], ids=["roster", "index"])
    def test_sigterm_inside_segment_creation_leaks_nothing(
        self, nth, big_file, roster_file, tmp_path
    ):
        baseline = _shm_entries()
        if baseline is None:
            pytest.skip("/dev/shm not available on this platform")
        script = tmp_path / "term_mid_creation.py"
        script.write_text(MID_CREATION_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), str(big_file), str(roster_file),
             str(nth)],
            env=env, capture_output=True, timeout=120,
        )
        # The TERM was honoured (the handler's SystemExit), not lost...
        assert proc.returncode == 128 + signal.SIGTERM, proc.stderr
        assert b"COMPLETED" not in proc.stdout
        # ...only after the segment had an owner that unlinked it.
        assert _wait_for(
            lambda: not (_shm_entries() - baseline), timeout=10
        ), f"leaked shm segments: {_shm_entries() - baseline}"

    def test_sigterm_with_checkpoint_rolls_spill_back(
        self, big_file, roster_file, tmp_path
    ):
        spill = tmp_path / "partial.jsonl"
        ck = tmp_path / "ck.json"
        proc = _spawn(
            tmp_path, big_file, roster_file, spill, ck, "vectorized", 300
        )
        try:
            assert _wait_for(ck.exists), "driver never wrote a checkpoint"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.kill()
                proc.communicate()
        assert b"COMPLETED" not in out
        assert ck.exists()
        # The spill holds exactly the checkpointed bytes: no torn chunk.
        import json

        recorded = json.loads(ck.read_text())["spill_bytes"]
        assert spill.stat().st_size == recorded
