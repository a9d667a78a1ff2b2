"""Checkpoint storage: atomic, CRC-checked, monotonically numbered images.

A checkpoint file holds one pickled state document (the nested
``snapshot_state()`` dicts assembled by the recovery manager).  Writing is
two steps, which a caller may run at different times: :meth:`encode`
fixes the bytes (pickle, CRC, header), so the document may change after
it; :meth:`write` makes them the next-numbered image.  Durability
protocol of a write, in order:

1. write the bytes into ``checkpoint-NNNNNN.ckpt.tmp`` in the same
   directory;
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

    The store lists its directory once, at its first write, and from then
    on numbers its images from what it wrote and pruned itself: a write
    lists nothing.  Reading (:meth:`load_latest`) lists the directory on
    every call.

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
        #: The image numbers on disk, ascending, as this store last knew
        #: them: None until its first write lists the directory.
        self._written: list[int] | None = None

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
        return self.write(self.encode(state))

    @staticmethod
    def encode(state: Any) -> bytes:
        """``state`` as the bytes of one checkpoint file: magic, CRC,
        length and the pickled document, which may change after this."""
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        return CHECKPOINT_MAGIC + _HEADER.pack(zlib.crc32(payload),
                                               len(payload)) + payload

    def write(self, blob: bytes) -> CheckpointInfo:
        """Durably write ``blob`` (from :meth:`encode`) as the
        next-numbered checkpoint, then prune what falls out of the newest
        :attr:`keep`."""
        started = time.perf_counter()
        written = self._written
        if written is None:
            written = self._written = self.numbers()
            if not written:  # the directory may not exist yet
                self.directory.mkdir(parents=True, exist_ok=True)
        number = (written[-1] + 1) if written else 1
        final = self.path_for(number)
        tmp = final.with_suffix(".ckpt.tmp")
        with open(tmp, "wb") as fp:
            fp.write(blob)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, final)
        fsync_dir(self.directory)
        written.append(number)
        self._prune(number)
        return CheckpointInfo(number=number, path=final,
                              bytes_written=len(blob),
                              duration=time.perf_counter() - started)

    def _prune(self, latest: int) -> None:
        """Unlink the images this store knows of that fall out of the
        newest :attr:`keep` (one removed by someone else is passed over)."""
        written = self._written
        while written[0] <= latest - self.keep:
            try:
                self.path_for(written.pop(0)).unlink()
            except OSError:
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
