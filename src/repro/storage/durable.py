"""File-backed durable storage: the live deployment's WAL and snapshots.

The in-memory :class:`~repro.storage.wal.WriteAheadLog` and
:class:`~repro.storage.snapshot.SnapshotStore` give the *simulator* a
persistence discipline without disks.  This module gives the live TCP
backend (:mod:`repro.net`) the real thing: the same record types, the same
compaction contract, but written to genuine fsync'd files so a ``kill -9``
followed by a restart recovers through
:class:`~repro.storage.recovery.RecoveryManager` from bytes that actually
survived the process.

On-disk format, chosen for torn-tail robustness rather than speed.  Both
files are sequences of frames, each ``>II`` (payload length, CRC-32 of
the payload) followed by a pickled payload, read by one parser that stops
at the first short, CRC-mismatching or unpicklable frame:

* ``wal.log`` — one frame per :class:`~repro.storage.wal.WalRecord`.
  Appends flush and (by default) ``fsync`` before returning, so a commit
  acknowledged to the protocol is on disk.  A crash mid-append leaves a
  *torn tail* — a short or CRC-mismatching last frame — which reopen
  detects, drops, and truncates away; everything before it is intact by
  construction.  Compaction rewrites the file atomically (temp file,
  fsync, ``os.replace``).
* ``snapshot.log`` — one frame per accepted snapshot install, holding
  ``(epoch, last_sn, certificate, entries)`` where ``entries`` are only the
  ``(sn, entry, epoch)`` triples above the previous install.  The
  snapshot is the concatenation of the frames' entries, anchored by the
  last frame's certificate, so a checkpoint costs one always-fsync'd
  append of its own entries instead of a rewrite of the whole log prefix.
  Earlier bytes are never rewritten.
  Reading also stops at the first frame whose first sequence number is not
  the number of entries read so far, so a gap can never form.  A crash
  mid-append leaves the previous snapshot intact, and reopen truncates the
  torn tail exactly as it does the WAL's.

Creating either file fsyncs the data directory, so a crash cannot lose
the directory entry of a file whose contents were already fsync'd.

The fsync policy is configurable (``REPRO_FSYNC``): ``"always"`` syncs on
every append (the durability the recovery proof needs), ``"never"`` leaves
flushing to the OS page cache (benchmarking the protocol without paying
the disk; a power loss may then lose acknowledged commits).
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, List, Optional, Tuple

from ..core.types import EpochNr, LogEntry, SeqNr
from .node_storage import NodeStorage
from .snapshot import Snapshot, SnapshotStore
from .wal import WalRecord, WriteAheadLog

#: Frame header of one WAL record or snapshot delta: payload length,
#: CRC-32 of the payload.
_FRAME_HEADER = struct.Struct(">II")

#: Recognised fsync policies (see :func:`fsync_policy`).
FSYNC_ALWAYS = "always"
FSYNC_NEVER = "never"
FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_NEVER)

#: File names inside one node's data directory.
WAL_FILENAME = "wal.log"
SNAPSHOT_FILENAME = "snapshot.log"


def fsync_policy(default: str = FSYNC_ALWAYS) -> str:
    """The fsync policy from the ``REPRO_FSYNC`` env var.

    Unrecognised values fall back to ``default`` — misconfiguration must
    degrade to the *safer* behaviour, never silently disable durability.
    """
    raw = os.environ.get("REPRO_FSYNC", default).strip().lower()
    return raw if raw in FSYNC_POLICIES else default


def _frame(payload: object) -> bytes:
    """Serialise one WAL record or snapshot delta into its on-disk frame."""
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(len(data), zlib.crc32(data)) + data


def _read_frames(path: Path) -> Tuple[List[Tuple[object, int]], int]:
    """Read the intact frames at the head of ``path``.

    Returns ``(frames, size)``: one ``(payload, end)`` pair per intact
    frame in file order, ``end`` being the file offset just past it, and
    the number of bytes read.  Reading stops at the first short frame, CRC
    mismatch or unpicklable payload — all the shapes a crash mid-append
    can leave — so any bytes past the last ``end`` are a torn tail.  Purely
    a reader: the file is not modified, so it is safe to call on a file
    another process is still appending to.
    """
    frames: List[Tuple[object, int]] = []
    if not path.exists():
        return frames, 0
    data = path.read_bytes()
    total = len(data)
    offset = 0
    while offset + _FRAME_HEADER.size <= total:
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > total:
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            frames.append((pickle.loads(payload), end))
        except Exception:
            break
        offset = end
    return frames, total


def read_wal_frames(path: Path) -> Tuple[List[WalRecord], int, bool]:
    """Read every intact WAL record from ``path``.

    Returns ``(records, good_offset, torn)`` where ``good_offset`` is the
    file offset right after the last intact frame and ``torn`` is True when
    trailing bytes had to be ignored (see :func:`_read_frames`).
    """
    frames, size = _read_frames(path)
    good_offset = frames[-1][1] if frames else 0
    return [record for record, _end in frames], good_offset, good_offset < size


def _continues(frame: object, start: int) -> bool:
    """Whether ``frame`` is a snapshot delta covering ``[start, last_sn]``.

    A delta must be a ``(epoch, last_sn, certificate, entries)`` tuple whose
    non-empty ``entries`` carry exactly the sequence numbers ``start``,
    ``start + 1``, ... ``last_sn`` in order.
    """
    if not (isinstance(frame, tuple) and len(frame) == 4):
        return False
    _epoch, last_sn, _certificate, entries = frame
    return (
        isinstance(entries, tuple)
        and len(entries) > 0
        and last_sn == start + len(entries) - 1
        and all(
            isinstance(triple, tuple) and len(triple) == 3 and triple[0] == start + i
            for i, triple in enumerate(entries)
        )
    )


def _read_snapshot_frames(path: Path) -> Tuple[Optional[Snapshot], int, bool]:
    """Rebuild the latest snapshot from the delta frames at ``path``.

    Returns ``(snapshot, good_offset, torn)`` like :func:`read_wal_frames`.
    Besides the frame parser's stops, reading stops at the first delta that
    does not continue the entries read so far, so the rebuilt snapshot
    always covers ``[0, last_sn]`` contiguously.
    """
    frames, size = _read_frames(path)
    entries: List[Tuple[SeqNr, LogEntry, EpochNr]] = []
    head = None
    good_offset = 0
    for frame, end in frames:
        if not _continues(frame, len(entries)):
            break
        head = frame
        entries.extend(frame[3])
        good_offset = end
    snapshot = None
    if head is not None:
        epoch, last_sn, certificate, _delta = head
        snapshot = Snapshot(
            epoch=epoch,
            last_sn=last_sn,
            certificate=certificate,
            entries=tuple(entries),
        )
    return snapshot, good_offset, good_offset < size


def read_snapshot_file(path: Path) -> Optional[Snapshot]:
    """Load the snapshot at ``path``, or None when absent/unreadable.

    An unreadable first frame (a crash during the very first install)
    degrades to "no snapshot": recovery then replays the WAL alone, which
    is always a correct prefix.
    """
    return _read_snapshot_frames(path)[0]


def _truncate(path: Path, offset: int) -> None:
    """Cut a torn tail off ``path`` at ``offset``, durably."""
    with open(path, "r+b") as fh:
        fh.truncate(offset)
        fh.flush()
        os.fsync(fh.fileno())


def _open_append(path: Path) -> BinaryIO:
    """Open ``path`` for appending, fsyncing its directory if this creates it."""
    created = not path.exists()
    fh = open(path, "ab")
    if created:
        _fsync_dir(path.parent)
    return fh


class FileWriteAheadLog(WriteAheadLog):
    """A :class:`WriteAheadLog` persisted to an append-only fsync'd file.

    Reopening a path replays every intact record into memory (so the
    in-memory API is unchanged) and truncates a torn tail left by a crash
    mid-append.  Compaction (:meth:`truncate_below`) rewrites the file
    atomically via a temp file.
    """

    def __init__(self, path: Path, fsync: str = FSYNC_ALWAYS):
        super().__init__()
        self.path = Path(path)
        self._fsync = fsync == FSYNC_ALWAYS
        #: fsync() calls issued (tests pin fsync-on-commit through this).
        self.fsyncs = 0
        #: Whether reopen found (and truncated) a torn tail.
        self.torn_tail_detected = False
        records, good_offset, torn = read_wal_frames(self.path)
        if torn:
            self.torn_tail_detected = True
            _truncate(self.path, good_offset)
        self._records.extend(records)
        self.appended_total = len(records)
        self._fh = _open_append(self.path)

    def _append(self, record: WalRecord) -> None:
        super()._append(record)
        self._fh.write(_frame(record))
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())
            self.fsyncs += 1

    def truncate_below(self, sn_bound: int, epoch_bound: int) -> int:
        dropped = super().truncate_below(sn_bound, epoch_bound)
        if dropped:
            self._rewrite()
        return dropped

    def _rewrite(self) -> None:
        """Atomically rewrite the file with the surviving records."""
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            for record in self._records:
                fh.write(_frame(record))
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        self._fh = open(self.path, "ab")
        _fsync_dir(self.path.parent)

    def close(self) -> None:
        """Flush and close the backing file (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())
            self._fh.close()


class FileSnapshotStore(SnapshotStore):
    """A :class:`SnapshotStore` persisted as an append-only delta log.

    Each accepted install appends and fsyncs one frame holding only the
    entries above the previous snapshot, so the store never rewrites
    earlier bytes and a crash mid-append leaves the previous snapshot
    intact.  Reopening a path loads whatever snapshot the previous process
    made durable and truncates a torn tail.
    """

    def __init__(self, path: Path):
        super().__init__()
        self.path = Path(path)
        snapshot, good_offset, torn = _read_snapshot_frames(self.path)
        if torn:
            _truncate(self.path, good_offset)
        self._latest = snapshot

    def install(self, snapshot: Snapshot) -> bool:
        previous = self._latest
        accepted = super().install(snapshot)
        if accepted:
            # A newer snapshot extends the previous one (see
            # repro.storage.snapshot) and both are contiguous from sn 0, so
            # only the entries from the previous length on are new.
            start = len(previous.entries) if previous is not None else 0
            delta = (
                snapshot.epoch,
                snapshot.last_sn,
                snapshot.certificate,
                snapshot.entries[start:],
            )
            with _open_append(self.path) as fh:
                fh.write(_frame(delta))
                fh.flush()
                os.fsync(fh.fileno())
        return accepted


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a file created or renamed in it is durable
    (best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class DurableNodeStorage(NodeStorage):
    """A :class:`NodeStorage` whose WAL and snapshots live on disk.

    One directory per node (``data_dir/node<N>`` by convention, chosen by
    the caller); constructing it on a directory with prior state reloads
    that state, which is exactly what a restarted
    :mod:`repro.net.host` process does before running recovery.
    """

    def __init__(self, node_id: int, directory: Path, fsync: str = FSYNC_ALWAYS):
        super().__init__(node_id)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal = FileWriteAheadLog(self.directory / WAL_FILENAME, fsync=fsync)
        self.snapshots = FileSnapshotStore(self.directory / SNAPSHOT_FILENAME)

    def has_state(self) -> bool:
        """True when the directory holds anything to recover from."""
        return self.snapshots.latest() is not None or len(self.wal) > 0

    def close(self) -> None:
        """Close the WAL's backing file (snapshots hold no open handle)."""
        self.wal.close()
