"""Crash-safe sweep journaling: job folders with an append-only log.

The engine's in-memory :class:`~repro.sim.engine.SweepReport` dies with
the process; a ``kill -9`` mid-sweep used to lose every completed cell
that had not reached the cache (and, with ``--no-cache``, everything).
:class:`SweepJournal` gives a sweep the same contract the source paper
gives an atomic region — bounded rework, guaranteed forward progress —
by making every finished cell durable the moment it finishes:

``<job dir>/manifest.json``
    Written atomically (temp file + fsync + rename). Records the
    journal format version, the engine's result ``schema_version``,
    and a ``cells`` map from content-addressed cache key to a
    human-readable spec summary, following the job-folder/run-manifest
    convention of ErdosLab's experiment runner. Re-opening a folder
    validates both versions — replaying records that mean something
    else is worse than re-executing — and merges any new cells in, so
    one folder can journal a multi-call sweep (e.g. the cross-design
    matrix, one engine call per cell).

``<job dir>/journal.jsonl``
    Append-only outcome log: one JSON record per line, fsync'd before
    the engine moves on. ``{"key": K, "status": "done", "result": R}``
    for completed cells, ``{"key": K, "status": "failed", "failure":
    F}`` for quarantined ones. Records are keyed by cache key — not
    list position — so a resumed sweep may reorder, extend, or subset
    the spec list and still replay exactly the cells it shares.

Replay tolerates exactly the corruption a crash can cause: a torn tail
line (the process died mid-``write``) is detected, counted, and
truncated away so later appends start on a clean boundary; an interior
unparseable line (disk corruption, chaos injection) is skipped and
counted, costing one cell's re-execution rather than the resume. The
last record for a key wins, so re-executed cells simply supersede
their earlier entries.
"""

import json
import os

from repro.common.diskio import DiskIO
from repro.common.errors import JournalError, JournalSchemaError

#: Bump when the manifest/record format itself changes shape.
JOURNAL_VERSION = 1

MANIFEST_NAME = "manifest.json"
LOG_NAME = "journal.jsonl"

#: Recognised per-record outcomes.
STATUS_DONE = "done"
STATUS_FAILED = "failed"


def spec_summary(spec):
    """The manifest's human-readable description of one cell."""
    return {
        "workload": spec.workload,
        "seed": spec.seed,
        "ops_per_thread": spec.ops_per_thread,
        "trace": spec.trace,
        "config": spec.config.fingerprint(),
    }


class SweepJournal:
    """One crash-safe job folder (manifest + append-only outcome log).

    The journal is single-writer: one engine process appends at a time
    (concurrent *cache* writers are handled by the cache's own lock;
    concurrent journal writers would interleave records, which is safe
    for replay but means two sweeps racing one folder — don't). All
    filesystem traffic goes through the injectable ``io`` seam so the
    chaos harness can tear and corrupt it.
    """

    def __init__(self, path, io=None):
        self.path = os.fspath(path)
        self.io = io if io is not None else DiskIO()
        self.manifest = None
        self._records = None  # key -> record dict, populated by replay()
        # Replay/recovery counters (what the resume proof reads).
        self.replayed_results = 0
        self.replayed_failures = 0
        self.dropped_tail = 0
        self.skipped_corrupt = 0
        self.recorded = 0

    @property
    def manifest_path(self):
        return os.path.join(self.path, MANIFEST_NAME)

    @property
    def log_path(self):
        return os.path.join(self.path, LOG_NAME)

    def exists(self):
        """True when the folder already holds a manifest (resumable)."""
        return os.path.exists(self.manifest_path)

    # -- manifest ------------------------------------------------------------

    def ensure(self, specs, schema_version):
        """Create the job folder, or validate and extend an existing one.

        ``schema_version`` is the engine's result schema
        (:data:`repro.sim.engine.SCHEMA_VERSION`), pinned into the
        manifest so a resume against incompatible result payloads
        raises :class:`~repro.common.errors.JournalSchemaError` instead
        of silently replaying them.
        """
        cells = {spec.cache_key(): spec_summary(spec) for spec in specs}
        if self.exists():
            manifest = self._load_manifest()
            if manifest.get("journal_version") != JOURNAL_VERSION:
                raise JournalSchemaError(
                    "job folder {} has journal_version {!r}; this build "
                    "writes {} — start a fresh job folder".format(
                        self.path, manifest.get("journal_version"),
                        JOURNAL_VERSION,
                    )
                )
            if manifest.get("schema_version") != schema_version:
                raise JournalSchemaError(
                    "job folder {} holds schema_version {!r} results; "
                    "this build produces {} — its records cannot be "
                    "replayed, start a fresh job folder".format(
                        self.path, manifest.get("schema_version"),
                        schema_version,
                    )
                )
            known = manifest.setdefault("cells", {})
            new = {key: cells[key] for key in cells if key not in known}
            if new:
                known.update(new)
                self._write_manifest(manifest)
            else:
                self.manifest = manifest
        else:
            self._write_manifest({
                "journal_version": JOURNAL_VERSION,
                "schema_version": schema_version,
                "cells": cells,
            })
        return self.manifest

    def _load_manifest(self):
        data = self.io.read_bytes(self.manifest_path)
        try:
            manifest = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise JournalError(
                "job folder {} has an unreadable manifest; it was "
                "written atomically, so this is disk corruption — "
                "start a fresh job folder".format(self.path)
            )
        if not isinstance(manifest, dict):
            raise JournalError(
                "job folder {} manifest is not an object".format(self.path)
            )
        return manifest

    def _write_manifest(self, manifest):
        os.makedirs(self.path, exist_ok=True)
        self.io.write_atomic(
            self.manifest_path,
            json.dumps(manifest, sort_keys=True, indent=1).encode("utf-8"),
        )
        self.manifest = manifest

    # -- replay --------------------------------------------------------------

    def replay(self):
        """key -> outcome record for every recoverable logged cell.

        Parses the log once, repairs a torn tail in place (truncates the
        partial bytes so subsequent appends start on a line boundary),
        and caches the result — later calls (and records appended
        through this instance) update the in-memory map directly.
        """
        if self._records is not None:
            return self._records
        records = {}
        data = self.io.read_bytes(self.log_path)
        body, sep, tail = data.rpartition(b"\n")
        keep_end = len(body) + len(sep)
        if sep:
            for line in body.split(b"\n"):
                record = self._parse_record(line)
                if record is None:
                    self.skipped_corrupt += 1
                else:
                    records[record["key"]] = record
        if tail:
            # No trailing newline: the final write was torn. The bytes
            # may still parse (only the terminator was lost) — keep the
            # record then; drop and truncate otherwise.
            record = self._parse_record(tail)
            if record is not None:
                records[record["key"]] = record
                self._repair_append_newline()
            else:
                self.dropped_tail += 1
                self._repair_truncate(keep_end)
        for record in records.values():
            if record["status"] == STATUS_DONE:
                self.replayed_results += 1
            else:
                self.replayed_failures += 1
        self._records = records
        return records

    @staticmethod
    def _parse_record(line):
        """The validated record on ``line``, or None if unusable."""
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
        if not isinstance(record, dict) or not isinstance(
            record.get("key"), str
        ):
            return None
        status = record.get("status")
        if status == STATUS_DONE and isinstance(record.get("result"), dict):
            return record
        if status == STATUS_FAILED and isinstance(record.get("failure"), dict):
            return record
        return None

    def _repair_truncate(self, keep_end):
        """Drop torn tail bytes so future appends land on a boundary."""
        try:
            with open(self.log_path, "rb+") as handle:
                handle.truncate(keep_end)
        except OSError:
            pass  # read-only media: replay still works, appends may not

    def _repair_append_newline(self):
        """Seal a record that lost only its terminator."""
        try:
            fd = os.open(self.log_path, os.O_WRONLY | os.O_APPEND)
            try:
                os.write(fd, b"\n")
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError:
            pass

    # -- recording -----------------------------------------------------------

    def record_result(self, key, result):
        """Durably log one completed cell's result dict."""
        self._append({"key": key, "status": STATUS_DONE, "result": result})

    def record_failure(self, key, failure):
        """Durably log one quarantined cell's failure dict."""
        self._append({"key": key, "status": STATUS_FAILED, "failure": failure})

    def _append(self, record):
        os.makedirs(self.path, exist_ok=True)
        self.io.append_line(
            self.log_path,
            json.dumps(record, sort_keys=True, separators=(",", ":")),
        )
        if self._records is not None:
            self._records[record["key"]] = record
        self.recorded += 1

    def counters(self):
        """Replay/recovery counters as one JSON-friendly dict."""
        return {
            "replayed_results": self.replayed_results,
            "replayed_failures": self.replayed_failures,
            "recorded": self.recorded,
            "dropped_tail": self.dropped_tail,
            "skipped_corrupt": self.skipped_corrupt,
        }


__all__ = [
    "JOURNAL_VERSION",
    "LOG_NAME",
    "MANIFEST_NAME",
    "SweepJournal",
    "spec_summary",
]
