"""join_stream: equivalence with in-memory joins, spill, checkpoint/resume."""

import csv
import gzip
import json
import threading
import time

import pytest

from repro.core.passjoin import PassJoinIndex
from repro.core.plan import JoinPlanner
from repro.core.plan import join as mem_join
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import StatsCollector
from repro.stream import (
    join_stream,
    read_spill,
    resolve_chunk_rows,
)
from repro.stream.checkpoint import Checkpoint
from repro.stream.spill import SpillWriter
from tests.parallel.test_shm import (
    assert_pool_dies_with_parent,
    needs_proc_and_shm,
)

#: a parent that keeps the 2-worker pool busy with streamed joins
#: (argv[1] is the file it streams)
_STREAMING_PARENT = """
import sys
from repro.data.datasets import dataset_for_family
from repro.parallel import shm
from repro.stream import join_stream

pool = shm.shared_pool(2)
pool.ensure()
print(*(p.pid for p in pool._procs), flush=True)
pair = dataset_for_family("LN", 3000, seed=1)
with open(sys.argv[1], "w") as fh:
    fh.write("\\n".join(pair.error) + "\\n")
while True:
    join_stream(sys.argv[1], pair.clean, "FPDL", k=1, workers=2,
                chunk_rows=500)
"""


@pytest.fixture(scope="module")
def reference(stream_data):
    """The in-memory planner's match set — ground truth for the stream."""
    roster, big = stream_data
    result = mem_join(big, roster, "FPDL", k=1, record_matches=True)
    return sorted(result.matches)


class TestEquivalence:
    def test_stream_equals_in_memory_join(
        self, stream_data, big_file, reference
    ):
        roster, big = stream_data
        obs = StatsCollector("s")
        res = join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=600, collector=obs
        )
        assert sorted(res.matches) == reference
        assert res.rows == len(big)
        assert res.chunks == -(-len(big) // 600)
        assert res.completed

    def test_funnel_conserved_and_complete(self, stream_data, big_file):
        roster, big = stream_data
        obs = StatsCollector("s")
        join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=600, collector=obs
        )
        assert obs.conserved
        assert obs.pairs_considered == len(big) * len(roster)

    @pytest.mark.parametrize("generator", ["all-pairs", "pass-join"])
    def test_every_generator_agrees(
        self, stream_data, big_file, reference, generator
    ):
        roster, _ = stream_data
        res = join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=900,
            generator=generator,
        )
        assert sorted(res.matches) == reference

    def test_scalar_backend_agrees(self, stream_data, big_file, reference):
        roster, _ = stream_data
        res = join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=1300,
            backend="scalar", generator="pass-join",
        )
        assert sorted(res.matches) == reference

    @pytest.mark.parametrize("method", ["FPDL", "SDX"])
    def test_hybrid_backend_agrees(
        self, stream_data, big_file, reference, method
    ):
        roster, _ = stream_data
        want = reference
        if method != "FPDL":
            want = sorted(join_stream(
                big_file, roster, method, k=1, chunk_rows=900,
                backend="vectorized", generator="all-pairs",
            ).matches)
            assert want
        obs = StatsCollector("h")
        res = join_stream(
            big_file, roster, method, k=1, chunk_rows=900,
            backend="hybrid", workers=2, collector=obs,
        )
        assert sorted(res.matches) == want
        assert obs.conserved
        # The roster's segments cross the boundary once for the stream.
        assert obs.counters.get("shm_bytes_shared", 0) > 0

    def test_roster_encoded_once(self, stream_data, big_file, monkeypatch):
        import repro.parallel.prepared as prepared

        roster, big = stream_data
        encoded = []
        real = prepared.encode_side

        def counting(strings, scheme):
            encoded.append(len(strings))
            return real(strings, scheme)

        monkeypatch.setattr(prepared, "encode_side", counting)
        res = join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=600,
            backend="vectorized", generator="pass-join",
        )
        # One roster encoding for the stream, then each chunk's own rows.
        assert res.chunks == 5
        assert encoded.count(len(roster)) == 1
        assert sum(encoded) == len(roster) + len(big)

    def test_hybrid_passjoin_publishes_index_once(
        self, stream_data, big_file, reference
    ):
        roster, big = stream_data
        index_bytes = sum(a.nbytes for a in PassJoinIndex(roster, k=1).flat())
        shared = {}
        for generator in ("all-pairs", "pass-join"):
            obs = StatsCollector(generator)
            res = join_stream(
                big_file, roster, "FPDL", k=1, chunk_rows=300,
                generator=generator, backend="hybrid", workers=2,
                collector=obs,
            )
            assert sorted(res.matches) == reference
            assert res.chunks == -(-len(big) // 300)
            assert obs.conserved
            shared[generator] = obs.counters["shm_bytes_shared"]
        # The dense stream publishes only the roster; probing in the
        # workers adds the stream's one index once, not once per chunk.
        assert shared["pass-join"] == shared["all-pairs"] + index_bytes

    def test_csv_gzip_source_agrees(self, stream_data, tmp_path, reference):
        roster, big = stream_data
        path = tmp_path / "big.csv.gz"
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name"])
            w.writerows((i, s) for i, s in enumerate(big))
        res = join_stream(
            path, roster, "FPDL", k=1, chunk_rows=700, column="name"
        )
        assert sorted(res.matches) == reference

    def test_unsafe_generator_for_method_rejected(self, stream_data, big_file):
        roster, _ = stream_data
        with pytest.raises(ValueError, match="unsafe"):
            join_stream(
                big_file, roster, "Jaro", k=1, chunk_rows=600,
                generator="pass-join",
            )


class TestSpillAndCheckpoint:
    def test_spill_holds_the_full_match_set(
        self, stream_data, big_file, tmp_path, reference
    ):
        roster, _ = stream_data
        res = join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=600,
            spill=tmp_path / "m.jsonl",
        )
        assert res.matches is None
        assert sorted(read_spill(tmp_path / "m.jsonl")) == reference
        assert res.spill_bytes == (tmp_path / "m.jsonl").stat().st_size

    def test_checkpoint_requires_spill(self, stream_data, big_file, tmp_path):
        roster, _ = stream_data
        with pytest.raises(ValueError, match="requires a spill"):
            join_stream(
                big_file, roster, "FPDL", checkpoint=tmp_path / "ck.json"
            )

    def test_completed_run_removes_checkpoint(
        self, stream_data, big_file, tmp_path
    ):
        roster, _ = stream_data
        join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=600,
            spill=tmp_path / "m.jsonl", checkpoint=tmp_path / "ck.json",
        )
        assert not (tmp_path / "ck.json").exists()

    def test_pause_resume_is_byte_identical(
        self, stream_data, big_file, tmp_path
    ):
        roster, _ = stream_data
        join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=600,
            spill=tmp_path / "full.jsonl",
        )
        partial = join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=600,
            spill=tmp_path / "part.jsonl",
            checkpoint=tmp_path / "ck.json", max_chunks=2,
        )
        assert not partial.completed
        assert (tmp_path / "ck.json").exists()
        obs = StatsCollector("resumed")
        resumed = join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=600,
            spill=tmp_path / "part.jsonl",
            checkpoint=tmp_path / "ck.json", resume=True, collector=obs,
        )
        assert resumed.resumed_after == 1
        assert resumed.completed
        assert (
            (tmp_path / "part.jsonl").read_bytes()
            == (tmp_path / "full.jsonl").read_bytes()
        )
        # Funnel conservation holds across the pause/resume boundary.
        assert obs.conserved
        assert obs.pairs_considered == resumed.rows * len(roster)

    def test_resume_with_changed_parameters_refused(
        self, stream_data, big_file, tmp_path
    ):
        roster, _ = stream_data
        join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=600,
            spill=tmp_path / "m.jsonl",
            checkpoint=tmp_path / "ck.json", max_chunks=1,
        )
        with pytest.raises(ValueError, match="does not match"):
            join_stream(
                big_file, roster, "FPDL", k=2, chunk_rows=600,
                spill=tmp_path / "m.jsonl",
                checkpoint=tmp_path / "ck.json", resume=True,
            )

    @pytest.mark.parametrize(
        "removed", ["fbf-index", "length-bucket", "prefix"]
    )
    def test_resume_pinned_to_removed_generator_refused(
        self, stream_data, big_file, tmp_path, removed
    ):
        """A checkpoint that pins a generator this version no longer
        has is refused before the spill is touched: the torn tail a
        killed chunk left stays, byte for byte."""
        import json

        roster, _ = stream_data
        spill, ck = tmp_path / "m.jsonl", tmp_path / "ck.json"
        join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=600,
            spill=spill, checkpoint=ck, max_chunks=1,
        )
        payload = json.loads(ck.read_text())
        payload["fingerprint"]["generator"] = removed
        ck.write_text(json.dumps(payload))
        with spill.open("ab") as fh:
            fh.write(b'{"torn": ')
        before = spill.read_bytes()
        assert len(before) > payload["spill_bytes"]
        with pytest.raises(ValueError, match=f"'{removed}'.*without resume"):
            join_stream(
                big_file, roster, "FPDL", k=1, chunk_rows=600,
                spill=spill, checkpoint=ck, resume=True,
            )
        assert spill.read_bytes() == before

    def test_resume_without_checkpoint_file_starts_fresh(
        self, stream_data, big_file, tmp_path, reference
    ):
        roster, _ = stream_data
        res = join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=600,
            spill=tmp_path / "m.jsonl",
            checkpoint=tmp_path / "ck.json", resume=True,
        )
        assert res.resumed_after is None
        assert sorted(read_spill(tmp_path / "m.jsonl")) == reference


class TestSpillThread:
    """Chunk i spills and checkpoints on one thread while chunk i+1
    joins.  A failure on either thread leaves ``join_stream`` only after
    that thread has finished, with the spill at the last checkpoint."""

    @pytest.mark.parametrize(
        "where, target",
        [
            ("spill", (SpillWriter, "write_columns")),
            ("checkpoint", (Checkpoint, "save")),
            ("join", (JoinPlanner, "run")),
        ],
        ids=["spill", "checkpoint", "join"],
    )
    def test_failure_rolls_back_to_the_checkpoint(
        self, stream_data, big_file, tmp_path, monkeypatch, where, target
    ):
        roster, _ = stream_data
        spill, ck = tmp_path / "m.jsonl", tmp_path / "ck.json"
        real = getattr(*target)
        threads = []

        def failing(*args, **kwargs):
            threads.append(threading.current_thread().name)
            if len(threads) == 3:
                raise OSError(28, "No space left on device")
            return real(*args, **kwargs)

        monkeypatch.setattr(*target, failing)
        with pytest.raises(OSError, match="No space left"):
            join_stream(
                big_file, roster, "FPDL", k=1, chunk_rows=300,
                spill=spill, checkpoint=ck,
            )
        assert not [
            t for t in threading.enumerate()
            if t.name.startswith("repro-spill")
        ]
        # The spill and the checkpoint run on the spill thread.
        on_main = threads[-1] == threading.main_thread().name
        assert on_main == (where == "join")
        recorded = json.loads(ck.read_text())
        assert recorded["chunk"] == 1
        assert spill.stat().st_size == recorded["spill_bytes"]

        monkeypatch.undo()
        join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=300,
            spill=tmp_path / "full.jsonl",
        )
        obs = StatsCollector("resumed")
        resumed = join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=300,
            spill=spill, checkpoint=ck, resume=True, collector=obs,
        )
        assert spill.read_bytes() == (tmp_path / "full.jsonl").read_bytes()
        assert obs.conserved
        assert obs.pairs_considered == resumed.rows * len(roster)

    def test_checkpoint_funnel_is_its_own_chunk(
        self, stream_data, big_file, tmp_path, monkeypatch
    ):
        """Each checkpoint records the funnel as of its chunk, not the
        live collector the next chunk is already merging into."""
        roster, _ = stream_data
        ck = tmp_path / "ck.json"
        saved = []
        real = Checkpoint.save

        def record(self, obs=None):
            # Slow: the next chunk's join finishes meanwhile.
            time.sleep(0.02)
            real(self, obs)
            saved.append(json.loads(ck.read_text()))

        monkeypatch.setattr(Checkpoint, "save", record)
        join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=300,
            spill=tmp_path / "m.jsonl", checkpoint=ck,
        )
        assert [c["chunk"] for c in saved] == list(range(len(saved)))
        for c in saved:
            assert c["funnel"]["pairs_considered"] == c["rows"] * len(roster)


class TestSizingAndTelemetry:
    def test_memory_budget_derives_chunk_rows(self):
        assert resolve_chunk_rows(4096, None) == 4096
        assert resolve_chunk_rows(4096, 64) == 4096  # explicit wins
        assert resolve_chunk_rows(None, 64) == (64 << 20) // (2 * 16384)
        assert resolve_chunk_rows(None, 0.001) == 1024  # clamped low
        with pytest.raises(ValueError):
            resolve_chunk_rows(0, None)
        with pytest.raises(ValueError):
            resolve_chunk_rows(None, -1)

    def test_metrics_and_events_wired(self, stream_data, big_file, tmp_path):
        roster, big = stream_data
        registry = MetricsRegistry()
        events = EventLog()
        join_stream(
            big_file, roster, "FPDL", k=1, chunk_rows=600,
            spill=tmp_path / "m.jsonl", checkpoint=tmp_path / "ck.json",
            metrics=registry, events=events,
        )
        snap = {
            name: instrument.value if hasattr(instrument, "value") else None
            for name, labels, instrument in registry.series()
        }
        n_chunks = -(-len(big) // 600)
        assert snap["stream_rows_total"] == len(big)
        assert snap["stream_checkpoints_total"] == n_chunks
        assert snap["stream_spill_bytes_total"] > 0
        kinds = [e["kind"] for e in events.tail(100)]
        assert kinds[0] == "stream_start"
        assert kinds[-1] == "stream_finish"
        assert kinds.count("stream_checkpoint") == n_chunks

    def test_empty_roster_rejected(self, big_file):
        with pytest.raises(ValueError, match="non-empty roster"):
            join_stream(big_file, [], "FPDL")


class TestKilledParent:
    @needs_proc_and_shm
    def test_stream_pool_workers_exit_when_parent_killed(self, tmp_path):
        assert_pool_dies_with_parent(
            _STREAMING_PARENT, str(tmp_path / "stream.txt")
        )
