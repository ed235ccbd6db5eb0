"""Durability tests for the file-backed storage (repro.storage.durable).

These pin the claims the live backend's recovery proof rests on:

* commits are fsync'd before the append returns (``always`` policy),
* a process reopening the same directory sees exactly what was appended,
* a torn WAL or snapshot tail (crash mid-append) is detected and
  truncated on reopen, with every intact frame before it preserved,
* compaction appends the checkpoint's delta to an append-only snapshot
  log, which never admits a gap, and rewrites the WAL, and a **fresh
  process** reloads the combined state correctly,
* a writer killed with SIGKILL at random moments leaves a contiguous
  snapshot covering every checkpoint it reported, and a durable log that
  is a prefix of what it wrote.
"""

import pickle
import random
import select
import subprocess
import sys
import time
import zlib

import pytest

from repro.core.types import Batch, CheckpointCertificate, Request, RequestId
from repro.storage.durable import (
    FSYNC_ALWAYS,
    FSYNC_NEVER,
    SNAPSHOT_FILENAME,
    WAL_FILENAME,
    DurableNodeStorage,
    FileWriteAheadLog,
    _read_frames,
    fsync_policy,
    read_snapshot_file,
    read_wal_frames,
)


def batch(client: int, timestamp: int) -> Batch:
    return Batch(
        requests=(
            Request(
                rid=RequestId(client=client, timestamp=timestamp), payload=b"x"
            ),
        )
    )


def certificate(epoch: int, last_sn: int) -> CheckpointCertificate:
    return CheckpointCertificate(
        epoch=epoch, last_sn=last_sn, log_root=b"root", signatures=()
    )


def frame(payload: bytes) -> bytes:
    """A well-formed on-disk frame (length, CRC-32) around ``payload``."""
    return (
        len(payload).to_bytes(4, "big")
        + zlib.crc32(payload).to_bytes(4, "big")
        + payload
    )


def durable_state(directory):
    """``(snapshot sns, WAL commit sns)`` as a fresh open of ``directory`` sees them."""
    storage = DurableNodeStorage(0, directory)
    snapshot = storage.latest_snapshot()
    state = (
        [sn for sn, _entry, _epoch in snapshot.entries] if snapshot else [],
        [sn for sn, _entry, _epoch in storage.wal.commits()],
    )
    storage.close()
    return state


# ------------------------------------------------------------------ fsync
def test_fsync_on_every_commit_append(tmp_path):
    wal = FileWriteAheadLog(tmp_path / WAL_FILENAME, fsync=FSYNC_ALWAYS)
    for sn in range(5):
        wal.append_commit(sn, batch(0, sn), epoch=0)
    assert wal.fsyncs == 5
    wal.close()


def test_fsync_never_policy_skips_fsync(tmp_path):
    wal = FileWriteAheadLog(tmp_path / WAL_FILENAME, fsync=FSYNC_NEVER)
    wal.append_commit(0, batch(0, 0), epoch=0)
    assert wal.fsyncs == 0
    wal.close()
    # The bytes are still flushed: a clean close loses nothing.
    records, _offset, torn = read_wal_frames(tmp_path / WAL_FILENAME)
    assert len(records) == 1 and not torn


def test_fsync_policy_env(monkeypatch):
    monkeypatch.delenv("REPRO_FSYNC", raising=False)
    assert fsync_policy() == FSYNC_ALWAYS
    monkeypatch.setenv("REPRO_FSYNC", "never")
    assert fsync_policy() == FSYNC_NEVER
    # Misconfiguration degrades to the safe policy, never silently off.
    monkeypatch.setenv("REPRO_FSYNC", "sometimes")
    assert fsync_policy() == FSYNC_ALWAYS


# ----------------------------------------------------------------- reopen
def test_wal_reopen_round_trip(tmp_path):
    path = tmp_path / WAL_FILENAME
    wal = FileWriteAheadLog(path)
    for sn in range(4):
        wal.append_commit(sn, batch(1, sn), epoch=0)
    wal.append_epoch_start(1)
    wal.append_checkpoint(certificate(0, 3))
    wal.close()

    reopened = FileWriteAheadLog(path)
    assert not reopened.torn_tail_detected
    assert [sn for sn, _entry, _epoch in reopened.commits()] == [0, 1, 2, 3]
    assert len(reopened.checkpoints()) == 1
    # Appends after reopen extend the same file.
    reopened.append_commit(4, batch(1, 4), epoch=1)
    reopened.close()
    third = FileWriteAheadLog(path)
    assert [sn for sn, _entry, _epoch in third.commits()] == [0, 1, 2, 3, 4]
    third.close()


@pytest.mark.parametrize("chop", [1, 3, 7])
def test_torn_tail_truncated_on_reopen(tmp_path, chop):
    path = tmp_path / WAL_FILENAME
    wal = FileWriteAheadLog(path)
    for sn in range(6):
        wal.append_commit(sn, batch(2, sn), epoch=0)
    wal.close()

    # Simulate a crash mid-append: chop bytes off the last frame.
    data = path.read_bytes()
    path.write_bytes(data[:-chop])

    reopened = FileWriteAheadLog(path)
    assert reopened.torn_tail_detected
    assert [sn for sn, _entry, _epoch in reopened.commits()] == [0, 1, 2, 3, 4]
    reopened.close()
    # The truncation is durable: a further reopen sees a clean file.
    third = FileWriteAheadLog(path)
    assert not third.torn_tail_detected
    assert len(third.commits()) == 5
    third.close()


@pytest.mark.parametrize(
    "filename, survivors",
    [
        # What survives the loss of the file's last frame: commit 8 for
        # the WAL, the delta [4, 7] for the snapshot.
        (WAL_FILENAME, (list(range(8)), [])),
        (SNAPSHOT_FILENAME, (list(range(4)), [8])),
    ],
    ids=["wal", "snapshot"],
)
def test_torn_tail_at_every_offset_truncated_on_reopen(tmp_path, filename, survivors):
    directory = tmp_path / "node0"
    storage = DurableNodeStorage(0, directory)
    for sn in range(9):
        storage.record_commit(sn, batch(2, sn), epoch=sn // 4)
        if sn % 4 == 3:
            storage.record_stable_checkpoint(certificate(sn // 4, sn))
    snapshot = storage.latest_snapshot()
    storage.close()

    path = directory / filename
    data = path.read_bytes()
    frames, _size = _read_frames(path)
    last_start = frames[-2][1]
    # Simulate a crash at every point inside the last frame's append.
    for cut in range(last_start + 1, len(data)):
        path.write_bytes(data[:cut])
        assert durable_state(directory) == survivors
        # The truncation is durable: the file ends at the last intact frame.
        assert path.stat().st_size == last_start

    # The reopen that truncates a torn tail then appends cleanly after it.
    path.write_bytes(data[:-1])
    reopened = DurableNodeStorage(0, directory)
    if filename == WAL_FILENAME:
        assert reopened.wal.torn_tail_detected
        reopened.record_commit(8, batch(2, 8), epoch=2)
    else:
        assert reopened.snapshots.install(snapshot)
    reopened.close()
    assert path.read_bytes() == data
    assert durable_state(directory) == (list(range(8)), [8])


def test_corrupted_payload_detected_by_crc(tmp_path):
    path = tmp_path / WAL_FILENAME
    wal = FileWriteAheadLog(path)
    wal.append_commit(0, batch(3, 0), epoch=0)
    wal.append_commit(1, batch(3, 1), epoch=0)
    wal.close()

    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # flip a byte inside the last frame's payload
    path.write_bytes(bytes(data))

    records, _offset, torn = read_wal_frames(path)
    assert torn and len(records) == 1


def test_unpicklable_tail_is_torn(tmp_path):
    path = tmp_path / WAL_FILENAME
    wal = FileWriteAheadLog(path)
    wal.append_commit(0, batch(4, 0), epoch=0)
    wal.close()
    # A frame whose CRC is fine but whose payload is not a WalRecord pickle.
    with open(path, "ab") as fh:
        fh.write(frame(b"not a pickle"))
    records, _offset, torn = read_wal_frames(path)
    assert torn and len(records) == 1


# ------------------------------------------------------- compaction + reload
def _fill_storage(storage: DurableNodeStorage) -> None:
    for sn in range(8):
        storage.record_commit(sn, batch(5, sn), epoch=0)
    storage.record_stable_checkpoint(certificate(0, 5))
    for sn in range(8, 10):
        storage.record_commit(sn, batch(5, sn), epoch=1)


def test_compaction_snapshot_plus_wal_reload(tmp_path):
    storage = DurableNodeStorage(0, tmp_path / "node0")
    _fill_storage(storage)
    assert storage.compactions == 1
    assert storage.latest_snapshot().last_sn == 5
    assert storage.durable_entry_count() == 10
    storage.close()

    reloaded = DurableNodeStorage(0, tmp_path / "node0")
    assert reloaded.has_state()
    assert reloaded.latest_snapshot().last_sn == 5
    assert reloaded.durable_entry_count() == 10
    # The WAL holds exactly the post-compaction tail.
    assert [sn for sn, _e, _ep in reloaded.wal.commits()] == [6, 7, 8, 9]
    reloaded.close()


def test_half_written_snapshot_degrades_to_wal_only(tmp_path):
    directory = tmp_path / "node0"
    storage = DurableNodeStorage(0, directory)
    for sn in range(3):
        storage.record_commit(sn, batch(6, sn), epoch=0)
    storage.close()
    # A garbage snapshot file (crash before atomic replace existed) must
    # not poison recovery: it reads as "no snapshot".
    (directory / SNAPSHOT_FILENAME).write_bytes(b"\x80garbage")
    reloaded = DurableNodeStorage(0, directory)
    assert reloaded.latest_snapshot() is None
    assert reloaded.durable_entry_count() == 3
    reloaded.close()


@pytest.mark.parametrize("first_sn", [2, 3, 5])
def test_snapshot_delta_that_does_not_continue_is_refused(tmp_path, first_sn):
    directory = tmp_path / "node0"
    storage = DurableNodeStorage(0, directory)
    for sn in range(4):
        storage.record_commit(sn, batch(9, sn), epoch=0)
    storage.record_stable_checkpoint(certificate(0, 3))
    storage.close()
    path = directory / SNAPSHOT_FILENAME
    intact = path.stat().st_size
    # A well-framed delta for [first_sn, first_sn + 3] on a snapshot whose
    # last_sn is 3: it overlaps (2, 3) or leaves a gap (5), never continues.
    entries = tuple((sn, batch(9, sn), 1) for sn in range(first_sn, first_sn + 4))
    delta = (1, first_sn + 3, certificate(1, first_sn + 3), entries)
    with open(path, "ab") as fh:
        fh.write(frame(pickle.dumps(delta)))

    assert read_snapshot_file(path).last_sn == 3
    assert durable_state(directory) == (list(range(4)), [])
    assert path.stat().st_size == intact


def test_each_install_appends_one_delta_frame(tmp_path):
    storage = DurableNodeStorage(0, tmp_path / "node0")
    path = tmp_path / "node0" / SNAPSHOT_FILENAME
    before = b""
    for epoch in range(4):
        sns = list(range(8 * epoch, 8 * epoch + 8))
        for sn in sns:
            storage.record_commit(sn, batch(10, sn), epoch=epoch)
        storage.record_stable_checkpoint(certificate(epoch, sns[-1]))
        after = path.read_bytes()
        # Earlier bytes are never rewritten; the growth is exactly one
        # frame, holding this epoch's entries and not the prefix below.
        assert after.startswith(before)
        growth = after[len(before):]
        assert len(growth) == 8 + int.from_bytes(growth[:4], "big")
        _epoch, last_sn, _certificate, entries = pickle.loads(growth[8:])
        assert last_sn == sns[-1]
        assert [sn for sn, _entry, _epoch in entries] == sns
        before = after
    storage.close()


def test_fresh_process_reloads_snapshot_and_wal(tmp_path):
    storage = DurableNodeStorage(0, tmp_path / "node0")
    _fill_storage(storage)
    expected = storage.durable_entry_count()
    storage.close()

    script = (
        "from repro.storage.durable import DurableNodeStorage\n"
        f"s = DurableNodeStorage(0, {str(tmp_path / 'node0')!r})\n"
        "print(s.has_state(), s.durable_entry_count(), "
        "s.latest_snapshot().last_sn)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["True", str(expected), "5"]


def test_pickled_frames_round_trip_exact_records(tmp_path):
    path = tmp_path / WAL_FILENAME
    wal = FileWriteAheadLog(path)
    entry = batch(7, 0)
    wal.append_commit(0, entry, epoch=2)
    wal.close()
    records, _offset, _torn = read_wal_frames(path)
    assert records[0].sn == 0
    assert records[0].epoch == 2
    assert pickle.dumps(records[0].entry) == pickle.dumps(entry)


# ---------------------------------------------------------------- kill -9
#: Commits and checkpoints forever on the directory in argv[1], continuing
#: from whatever survived; prints each checkpoint's last_sn once it is
#: installed.  Entry ``sn`` is always the same one-request batch.
_WRITER = """
import sys
from repro.core.types import Batch, CheckpointCertificate, Request, RequestId
from repro.storage.durable import DurableNodeStorage

EPOCH = 8
storage = DurableNodeStorage(0, sys.argv[1])
snapshot = storage.latest_snapshot()
durable = [sn for sn, _entry, _epoch in storage.wal.commits()]
sn = max(durable + [snapshot.last_sn if snapshot else -1]) + 1
print("ready", flush=True)
while True:
    rid = RequestId(client=11, timestamp=sn)
    entry = Batch(requests=(Request(rid=rid, payload=b"x" * 64),))
    storage.record_commit(sn, entry, epoch=sn // EPOCH)
    if sn % EPOCH == EPOCH - 1:
        storage.record_stable_checkpoint(CheckpointCertificate(
            epoch=sn // EPOCH, last_sn=sn, log_root=b"root", signatures=()))
        print(sn, flush=True)
    sn += 1
"""


def test_kill_9_keeps_contiguous_snapshot_and_log_prefix(tmp_path):
    rng = random.Random(20261017)
    directory = tmp_path / "node0"
    reported = -1
    for _round in range(6):
        writer = subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(directory)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert select.select([writer.stdout], [], [], 10)[0], "writer hung"
            assert writer.stdout.readline() == "ready\n"
            time.sleep(rng.uniform(0.05, 0.4))
        finally:
            writer.kill()  # SIGKILL: no cleanup, no flush, no close
            out, _err = writer.communicate(timeout=10)
        reported = max([reported] + [int(line) for line in out.split()])

        storage = DurableNodeStorage(0, directory)
        snapshot = storage.latest_snapshot()
        assert snapshot is not None
        assert [sn for sn, _e, _ep in snapshot.entries] == list(
            range(snapshot.last_sn + 1)
        )
        assert snapshot.last_sn >= reported
        entries = {sn: entry for sn, entry, _ep in snapshot.entries}
        entries.update({sn: entry for sn, entry, _ep in storage.wal.commits()})
        assert sorted(entries) == list(range(len(entries)))
        assert all(
            entry.requests[0].rid == RequestId(client=11, timestamp=sn)
            for sn, entry in entries.items()
        )
        storage.close()
    assert reported >= 0
