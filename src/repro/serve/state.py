"""Persistent service state: SQLite snapshot + write-ahead journal.

Durability model (classic checkpoint/WAL):

* every acknowledged event is first appended to the ``journal`` table
  and **committed** — an ack therefore promises the event survives a
  ``SIGKILL``;
* every ``checkpoint_interval`` events the service pickles its live
  detection core (open sessions, keyed stores, entity graph, seeds,
  fusion, verdict and campaign ledgers — not the closed sessions)
  into the ``snapshots`` table and truncates the journal prefix the
  snapshot now covers;
* restore = load latest snapshot, then re-apply the journal tail
  through the restored pipeline.  Because the pipeline is a
  deterministic function of its event prefix and pickling preserves
  floats, dict order and shared references exactly, the restored
  process is *bit-identical* to an uninterrupted run over the same
  acknowledged prefix — the recovery-equivalence test pins this.

Alongside the authoritative blob+journal, checkpoints also write the
queryable derived tables (``verdicts``, ``campaigns``, ``entities``)
so an operator can inspect the last checkpointed detection state with
plain SQL while the server is down.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
from typing import Dict, List, Optional, Tuple

from ..web.logs import LogEntry
from .codec import ENTRY_FIELDS, entry_from_row, entry_to_row

#: Bumped when the on-disk schema or the pickled core's layout changes
#: (2: the pipeline stopped keeping closed sessions; 3: the entity
#: graph stores each edge once in an id-pair map; 4: the entity graph
#: and the graph adapter's seeds pickle as flat lists and arrays).
SCHEMA_VERSION = 4

_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS journal (
    seq INTEGER PRIMARY KEY,
    {", ".join(f"{name} {'REAL' if name == 'time' else 'INTEGER' if name in ('status', 'ip_residential') else 'TEXT'} NOT NULL" for name in ENTRY_FIELDS)}
);
CREATE TABLE IF NOT EXISTS snapshots (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    seq        INTEGER NOT NULL,
    created_at REAL NOT NULL,
    pipeline   BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS verdicts (
    subject_id TEXT PRIMARY KEY,
    detector   TEXT NOT NULL,
    score      REAL NOT NULL,
    is_bot     INTEGER NOT NULL,
    reasons    TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id  TEXT PRIMARY KEY,
    risk         REAL NOT NULL,
    first_seen   REAL NOT NULL,
    last_seen    REAL NOT NULL,
    sessions     INTEGER NOT NULL,
    fingerprints TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entities (
    fingerprint_id TEXT PRIMARY KEY,
    convicted_at   REAL NOT NULL,
    detector       TEXT NOT NULL,
    score          REAL NOT NULL
);
"""


class StateStoreError(Exception):
    """The database is unusable (wrong schema version, corrupt blob)."""


class StateStore:
    """One SQLite database holding a detection service's durable state.

    All writes happen on the event-loop thread; SQLite's default
    serialized mode plus one connection per store keeps this simple.
    ``commit`` batching is the caller's choice: :meth:`append_events`
    commits by default (ingest-path durability), but bulk replay may
    pass ``commit=False`` and :meth:`commit` every N events — the
    throughput/durability dial the benchmark exercises.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        # check_same_thread off: access is already serialized (every
        # caller funnels through the single service/event-loop thread),
        # but the *constructing* thread may differ from the serving one
        # (test harnesses build the server, then run it on a thread).
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.executescript(_SCHEMA)
        existing = self.get_meta("schema_version")
        if existing is None:
            self.set_meta("schema_version", str(SCHEMA_VERSION))
        elif int(existing) != SCHEMA_VERSION:
            raise StateStoreError(
                f"{path}: schema version {existing} "
                f"(this build speaks {SCHEMA_VERSION})"
            )
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- meta -----------------------------------------------------------------

    def get_meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row else None

    def set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    # -- journal --------------------------------------------------------------

    def append_events(
        self,
        first_seq: int,
        entries: Tuple[LogEntry, ...],
        commit: bool = True,
    ) -> None:
        """Append ``entries`` as seq ``first_seq..first_seq+n-1``."""
        self._conn.executemany(
            f"INSERT INTO journal (seq, {', '.join(ENTRY_FIELDS)}) "
            f"VALUES ({', '.join('?' * (len(ENTRY_FIELDS) + 1))})",
            [
                (first_seq + offset,) + entry_to_row(entry)
                for offset, entry in enumerate(entries)
            ],
        )
        if commit:
            self._conn.commit()

    def commit(self) -> None:
        self._conn.commit()

    def journal_tail(self, after_seq: int) -> List[Tuple[int, LogEntry]]:
        """Every journaled ``(seq, entry)`` with ``seq > after_seq``."""
        rows = self._conn.execute(
            f"SELECT seq, {', '.join(ENTRY_FIELDS)} FROM journal "
            "WHERE seq > ? ORDER BY seq",
            (after_seq,),
        ).fetchall()
        return [(row[0], entry_from_row(row[1:])) for row in rows]

    def durable_seq(self) -> int:
        """Highest committed event seq (snapshot floor included)."""
        row = self._conn.execute("SELECT MAX(seq) FROM journal").fetchone()
        if row[0] is not None:
            return int(row[0])
        return self.snapshot_seq()

    def journal_rows(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM journal"
        ).fetchone()[0]

    # -- snapshots ------------------------------------------------------------

    def snapshot_seq(self) -> int:
        """Event seq the latest snapshot covers (0 = no snapshot)."""
        row = self._conn.execute(
            "SELECT seq FROM snapshots ORDER BY id DESC LIMIT 1"
        ).fetchone()
        return int(row[0]) if row else 0

    def write_snapshot(
        self,
        seq: int,
        core: object,
        created_at: float,
        derived: Optional[Dict[str, object]] = None,
    ) -> int:
        """Checkpoint: persist the pickled core at ``seq``, drop the
        journal prefix it covers and any older snapshot, and rewrite
        the derived query tables — one atomic transaction, so a kill
        mid-checkpoint leaves the previous checkpoint intact."""
        blob = pickle.dumps(core, protocol=pickle.HIGHEST_PROTOCOL)
        self._conn.execute(
            "INSERT INTO snapshots (seq, created_at, pipeline) "
            "VALUES (?, ?, ?)",
            (seq, created_at, sqlite3.Binary(blob)),
        )
        self._conn.execute(
            "DELETE FROM snapshots WHERE id NOT IN "
            "(SELECT id FROM snapshots ORDER BY id DESC LIMIT 1)"
        )
        self._conn.execute("DELETE FROM journal WHERE seq <= ?", (seq,))
        if derived is not None:
            self._write_derived(derived)
        self._conn.commit()
        return len(blob)

    def load_snapshot(self) -> Optional[Tuple[int, object]]:
        """Latest ``(seq, unpickled core)``; ``None`` if never
        checkpointed."""
        row = self._conn.execute(
            "SELECT seq, pipeline FROM snapshots ORDER BY id DESC LIMIT 1"
        ).fetchone()
        if row is None:
            return None
        try:
            return int(row[0]), pickle.loads(row[1])
        except Exception as error:  # corrupt blob: fail loudly
            raise StateStoreError(
                f"{self.path}: cannot unpickle snapshot: {error}"
            )

    # -- derived query tables --------------------------------------------------

    def _write_derived(self, derived: Dict[str, object]) -> None:
        self._conn.execute("DELETE FROM verdicts")
        self._conn.executemany(
            "INSERT INTO verdicts VALUES (?, ?, ?, ?, ?)",
            [
                (
                    v["subject_id"], v["detector"], v["score"],
                    int(v["is_bot"]), json.dumps(v["reasons"]),
                )
                for v in derived.get("verdicts", [])
            ],
        )
        self._conn.execute("DELETE FROM campaigns")
        self._conn.executemany(
            "INSERT INTO campaigns VALUES (?, ?, ?, ?, ?, ?)",
            [
                (
                    c["campaign_id"], c["risk"], c["first_seen"],
                    c["last_seen"], c["sessions"],
                    json.dumps(c["fingerprints"]),
                )
                for c in derived.get("campaigns", [])
            ],
        )
        self._conn.execute("DELETE FROM entities")
        self._conn.executemany(
            "INSERT INTO entities VALUES (?, ?, ?, ?)",
            [
                (
                    e["fingerprint_id"], e["convicted_at"],
                    e["detector"], e["score"],
                )
                for e in derived.get("entities", [])
            ],
        )

    def read_derived(self) -> Dict[str, List[Dict[str, object]]]:
        """The checkpointed derived tables, JSON-able."""
        verdicts = [
            {
                "subject_id": row[0], "detector": row[1],
                "score": row[2], "is_bot": bool(row[3]),
                "reasons": json.loads(row[4]),
            }
            for row in self._conn.execute(
                "SELECT * FROM verdicts ORDER BY subject_id"
            )
        ]
        campaigns = [
            {
                "campaign_id": row[0], "risk": row[1],
                "first_seen": row[2], "last_seen": row[3],
                "sessions": row[4], "fingerprints": json.loads(row[5]),
            }
            for row in self._conn.execute(
                "SELECT * FROM campaigns ORDER BY campaign_id"
            )
        ]
        entities = [
            {
                "fingerprint_id": row[0], "convicted_at": row[1],
                "detector": row[2], "score": row[3],
            }
            for row in self._conn.execute(
                "SELECT * FROM entities ORDER BY fingerprint_id"
            )
        ]
        return {
            "verdicts": verdicts,
            "campaigns": campaigns,
            "entities": entities,
        }
