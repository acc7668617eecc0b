"""Crash-resumable checkpoints for streamed joins.

After each completed chunk the driver writes a small JSON checkpoint
(atomically: temp file + ``os.replace``) recording

* a **config fingerprint** — source identity, roster digest, method,
  ``k``, resolved generator and chunk size, spill path/format — so a
  resume with different inputs is refused instead of silently
  producing a franken-result;
* the **stream position** — last completed chunk ordinal, the next
  chunk's source token, and the global row count processed so far;
* the **durable spill size** — the byte count the spill file held when
  this checkpoint was written, which the resume path truncates back to
  (rows past it belong to an unfinished chunk);
* the **merged funnel state** — pairs considered, per-stage
  tested/passed, survivor/verified/match counters — restored onto a
  fresh :class:`~repro.obs.stats.StatsCollector` so conservation holds
  across the kill/resume boundary exactly as it would for one
  uninterrupted run.

The checkpoint is only ever written *after* the spill flush for the
same chunk, so the invariant "spill file ⊇ checkpointed state" holds
at every instant; a crash between flush and checkpoint just replays
one chunk's rows into the truncated file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.stats import StageStat, StatsCollector

__all__ = ["Checkpoint", "funnel_state", "roster_digest", "load_checkpoint"]

#: bump when the on-disk layout changes incompatibly
_VERSION = 1


def roster_digest(strings: list[str]) -> str:
    """Cheap stable digest of the in-memory side.

    Hashes the length plus the first and last 64 strings — enough to
    catch "resumed against a different roster" without re-hashing 1e5
    strings on every checkpoint load.
    """
    h = hashlib.sha1()
    h.update(str(len(strings)).encode())
    for s in strings[:64]:
        h.update(s.encode("utf-8", "replace"))
    h.update(b"\x00")
    for s in strings[-64:]:
        h.update(s.encode("utf-8", "replace"))
    return h.hexdigest()


def funnel_state(obs: StatsCollector) -> dict:
    """A copy of ``obs``' funnel counters, as a checkpoint records them."""
    return {
        "pairs_considered": obs.pairs_considered,
        "survivors": obs.survivors,
        "verified": obs.verified,
        "matched": obs.matched,
        "stages": {
            name: [st.tested, st.passed] for name, st in obs.stages.items()
        },
        "verifier_counters": dict(obs.verifier_counters),
        "counters": dict(obs.counters),
    }


def _restore_funnel(obs: StatsCollector, state: dict) -> None:
    obs.pairs_considered = int(state.get("pairs_considered", 0))
    obs.survivors = int(state.get("survivors", 0))
    obs.verified = int(state.get("verified", 0))
    obs.matched = int(state.get("matched", 0))
    for name, (tested, passed) in state.get("stages", {}).items():
        obs.stages[name] = StageStat(
            name=name, tested=int(tested), passed=int(passed)
        )
    for name, count in state.get("verifier_counters", {}).items():
        obs.verifier_counters[name] = int(count)
    for name, count in state.get("counters", {}).items():
        obs.counters[name] = int(count)


@dataclass
class Checkpoint:
    """One streamed-join run's resumable state."""

    path: Path
    fingerprint: dict
    #: last completed chunk ordinal (-1 before the first chunk lands)
    chunk: int = -1
    #: source token where the *next* chunk starts
    next_token: int = 0
    #: global rows consumed through ``chunk``
    rows: int = 0
    #: durable spill file size at checkpoint time
    spill_bytes: int = 0
    match_count: int = 0
    funnel: dict = field(default_factory=dict)

    def save(self, obs: StatsCollector | None = None) -> None:
        """Atomically persist (temp file + rename, fsynced), with
        ``obs``' funnel, or without it the :attr:`funnel` already held
        (a :func:`funnel_state` taken when the chunk finished)."""
        if obs is not None:
            self.funnel = funnel_state(obs)
        payload = {
            "version": _VERSION,
            "fingerprint": self.fingerprint,
            "chunk": self.chunk,
            "next_token": self.next_token,
            "rows": self.rows,
            "spill_bytes": self.spill_bytes,
            "match_count": self.match_count,
            "funnel": self.funnel,
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    def restore_funnel(self, obs: StatsCollector) -> None:
        """Write the checkpointed funnel back onto a fresh collector."""
        _restore_funnel(obs, self.funnel)

    def validate(self, fingerprint: dict) -> None:
        """Refuse to resume against different inputs or parameters."""
        mismatches = {
            key: (self.fingerprint.get(key), value)
            for key, value in fingerprint.items()
            if self.fingerprint.get(key) != value
        }
        if mismatches:
            detail = "; ".join(
                f"{key}: checkpoint={old!r} run={new!r}"
                for key, (old, new) in sorted(mismatches.items())
            )
            raise ValueError(
                f"{self.path}: checkpoint does not match this run "
                f"({detail}); delete the checkpoint to start over"
            )


def load_checkpoint(path: Path | str) -> Checkpoint | None:
    """Load a checkpoint, or ``None`` if the file doesn't exist."""
    path = Path(path)
    if not path.exists():
        return None
    with path.open("r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("version")
    if version != _VERSION:
        raise ValueError(
            f"{path}: checkpoint version {version} is not supported "
            f"(expected {_VERSION})"
        )
    return Checkpoint(
        path=path,
        fingerprint=payload["fingerprint"],
        chunk=int(payload["chunk"]),
        next_token=int(payload["next_token"]),
        rows=int(payload["rows"]),
        spill_bytes=int(payload["spill_bytes"]),
        match_count=int(payload["match_count"]),
        funnel=payload.get("funnel", {}),
    )
