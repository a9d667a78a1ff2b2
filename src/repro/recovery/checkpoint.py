"""Checkpoint storage: atomic, CRC-checked, monotonically numbered images.

A checkpoint file holds one pickled state document (the nested
``snapshot_state()`` dicts assembled by the recovery manager).  Durability
protocol, in order:

1. serialize into ``checkpoint-NNNNNN.ckpt.tmp`` in the same directory;
2. flush + fsync the temporary file;
3. ``os.replace`` it onto the final name (atomic on POSIX);
4. fsync the directory so the rename itself is durable.

A crash at any point leaves either the previous set of checkpoints intact
or the new one fully present — never a half-written file under a final
name.  Loading walks the numbered files newest-first and *falls back* past
any file whose magic, CRC, or unpickling fails, or that the caller's check
refuses; the skipped files are reported so callers can raise the alarm
(bus/fault events) without losing the ability to recover.

On-disk format: the 8-byte magic ``RPCKPT01`` + ``u32 crc32(payload)`` +
``u32 length`` + payload (pickled state document).
"""

from __future__ import annotations

import os
import pickle
import re
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..core.errors import RecoveryError

__all__ = ["CheckpointInfo", "CheckpointStore", "CHECKPOINT_MAGIC"]

CHECKPOINT_MAGIC = b"RPCKPT01"
_HEADER = struct.Struct("<II")  # crc32, length
_NAME_RE = re.compile(r"^checkpoint-(\d{6})\.ckpt$")


@dataclass(slots=True, frozen=True)
class CheckpointInfo:
    """What :meth:`CheckpointStore.save` reports about one written image."""

    number: int
    path: Path
    bytes_written: int
    duration: float


def fsync_dir(directory: Path) -> None:
    """Fsync ``directory`` so a rename inside it is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class CheckpointStore:
    """Directory of numbered checkpoint files with corruption fallback.

    Args:
        directory: Where the ``checkpoint-NNNNNN.ckpt`` files live; created
            on first use.
        keep: How many most-recent checkpoints to retain (older ones are
            pruned after a successful save).  At least 2, so a corrupted
            latest always has a fallback.
    """

    #: The default ``keep``, for shard checkpoints and a sharded facade's
    #: images of its own tallies alike.
    KEEP = 4

    def __init__(self, directory: str | os.PathLike, *,
                 keep: int = KEEP) -> None:
        self.directory = Path(directory)
        self.keep = max(2, int(keep))

    # ------------------------------------------------------------------ #
    # Introspection

    def numbers(self) -> list[int]:
        """Existing checkpoint numbers, ascending."""
        if not self.directory.is_dir():
            return []
        found = []
        for entry in self.directory.iterdir():
            m = _NAME_RE.match(entry.name)
            if m:
                found.append(int(m.group(1)))
        return sorted(found)

    def path_for(self, number: int) -> Path:
        return self.directory / f"checkpoint-{number:06d}.ckpt"

    # ------------------------------------------------------------------ #
    # Writing

    def save(self, state: Any) -> CheckpointInfo:
        """Durably write ``state`` as the next-numbered checkpoint."""
        started = time.perf_counter()
        existing = self.numbers()
        if not existing:  # the directory may not exist yet
            self.directory.mkdir(parents=True, exist_ok=True)
        number = (existing[-1] + 1) if existing else 1
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        blob = CHECKPOINT_MAGIC + _HEADER.pack(zlib.crc32(payload),
                                               len(payload)) + payload
        final = self.path_for(number)
        tmp = final.with_suffix(".ckpt.tmp")
        with open(tmp, "wb") as fp:
            fp.write(blob)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, final)
        fsync_dir(self.directory)
        self._prune(number, existing)
        return CheckpointInfo(number=number, path=final,
                              bytes_written=len(blob),
                              duration=time.perf_counter() - started)

    def _prune(self, latest: int, existing: list[int]) -> None:
        """Unlink the ``existing`` images (the listing taken before
        ``latest`` was written) that fall out of the newest :attr:`keep`."""
        for number in existing:
            if number <= latest - self.keep:
                try:
                    self.path_for(number).unlink()
                except OSError:  # pragma: no cover - best effort
                    pass

    # ------------------------------------------------------------------ #
    # Reading

    def load(self, number: int) -> Any:
        """Load and validate one checkpoint; raises on any damage."""
        path = self.path_for(number)
        data = path.read_bytes()
        if not data.startswith(CHECKPOINT_MAGIC):
            raise RecoveryError(f"{path}: bad checkpoint magic",
                                path=str(path))
        header_end = len(CHECKPOINT_MAGIC) + _HEADER.size
        if len(data) < header_end:
            raise RecoveryError(f"{path}: truncated checkpoint header",
                                path=str(path))
        crc, length = _HEADER.unpack_from(data, len(CHECKPOINT_MAGIC))
        payload = data[header_end:header_end + length]
        if len(payload) != length:
            raise RecoveryError(f"{path}: truncated checkpoint payload",
                                path=str(path))
        if zlib.crc32(payload) != crc:
            raise RecoveryError(f"{path}: checkpoint CRC mismatch",
                                path=str(path))
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise RecoveryError(f"{path}: checkpoint unpickling failed "
                                f"({exc})", path=str(path)) from exc

    def load_latest(self, refuse: Callable[[Any], str | None] | None = None,
                    *, required: bool = True
                    ) -> tuple[int, Any, list[tuple[int, str]]]:
        """The one restore ladder: ``(number, state, skipped)`` for the
        newest checkpoint that loads and that ``refuse`` gives no reason
        against (a raise there refuses them all), ``skipped`` listing
        ``(number, reason)`` per newer one.  With none usable, raises
        :class:`RecoveryError` — or returns ``(0, None, skipped)`` unless
        ``required``."""
        skipped: list[tuple[int, str]] = []
        for number in reversed(self.numbers()):
            try:
                state = self.load(number)
            except (RecoveryError, OSError) as exc:
                skipped.append((number, str(exc)))
                continue
            reason = None if refuse is None else refuse(state)
            if reason is None:
                return number, state, skipped
            skipped.append((number, reason))
        if required:
            raise RecoveryError(f"no valid checkpoint in {self.directory} "
                                f"({len(skipped)} corrupted)", skipped=skipped)
        return 0, None, skipped
