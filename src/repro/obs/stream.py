"""The one append-only JSONL record stream behind a trace directory.

A trace directory holds three record files — the run journal, the
telemetry series and the sim-loop profiles — and they all follow the
same life cycle: a writer appends one JSON object per line and flushes
eagerly; pool workers never share a file, each appends to its own
partial next to the coordinator's file; the coordinator merges the
partials in a deterministic order after each batch; and a reader
tolerates the torn tail of a file that is still being written. This
module implements that life cycle once. What the three files differ in
is data, carried by a :class:`StreamSpec`; the specs themselves live
with the code that knows the record shapes (:mod:`repro.obs.journal`,
:mod:`repro.obs.telemetry`, :mod:`repro.obs.profile`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ObservabilityError


def _dump(record: Dict[str, Any]) -> str:
    """The on-disk form of one record (key-sorted, newline-terminated)."""
    return json.dumps(record, sort_keys=True) + "\n"


@dataclass(frozen=True)
class StreamSpec:
    """Everything one record stream's files differ from another's in."""

    #: what error messages call the stream ("journal", "telemetry", ...)
    kind: str
    #: the coordinator's file inside a trace directory
    filename: str
    #: glob of the per-worker partials awaiting merge; a worker's own
    #: partial is the glob with its id in place of the ``*``
    worker_glob: str
    #: fields every record must carry
    required: Tuple[str, ...]
    #: ``(position within its file, record) -> sort key`` — the order
    #: partials merge in and, for canonical streams, the closed file's
    sort_key: Callable[[int, Dict[str, Any]], Any]
    #: whether the coordinator rewrites the closed file in ``sort_key``
    #: order, making it independent of ``jobs=`` and completion order
    canonical: bool

    def path(self, target: Union[str, Path]) -> Path:
        """Resolve a stream argument: a ``.jsonl`` file or a trace dir."""
        path = Path(target)
        if path.is_dir():
            return path / self.filename
        return path

    def worker_path(self, trace_dir: Union[str, Path], worker: int) -> Path:
        """Where worker ``worker`` appends its partial of this stream."""
        return Path(trace_dir) / self.worker_glob.replace("*", str(worker))

    def read(self, target: Union[str, Path]) -> List[Dict[str, Any]]:
        """Parse a stream file (or trace directory) into record dicts.

        Safe to call while a sweep is still writing: the writer appends
        each record plus its newline in a single buffered write, so a
        final line with no terminating newline is a write in progress —
        it is skipped, not an error. A *terminated* line that fails to
        parse still raises :class:`ObservabilityError` with its
        location, because that means corruption rather than tailing.
        """
        resolved = self.path(target)
        if not resolved.exists():
            raise ObservabilityError(f"no {self.kind} at {resolved}")
        with resolved.open("r", encoding="utf-8") as handle:
            raw_lines = handle.readlines()
        records: List[Dict[str, Any]] = []
        for lineno, raw in enumerate(raw_lines, start=1):
            if lineno == len(raw_lines) and not raw.endswith("\n"):
                # Torn tail: a concurrent writer has not committed this
                # record yet (even if the fragment happens to parse, its
                # trailing fields could still be mid-write). Skip it.
                break
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ObservabilityError(
                    f"{resolved}:{lineno}: bad {self.kind} line: {exc}"
                ) from exc
            if not isinstance(record, dict) or not all(
                name in record for name in self.required
            ):
                raise ObservabilityError(
                    f"{resolved}:{lineno}: {self.kind} record lacks one of "
                    f"{', '.join(self.required)}"
                )
            records.append(record)
        return records

    def _ordered(
        self, files: List[List[Dict[str, Any]]]
    ) -> List[Dict[str, Any]]:
        # Stable: records with equal keys keep their (file, line) order.
        keyed = [
            (self.sort_key(position, record), record)
            for records in files
            for position, record in enumerate(records)
        ]
        keyed.sort(key=lambda pair: pair[0])
        return [record for _key, record in keyed]

    def merge_workers(
        self,
        trace_dir: Union[str, Path],
        into: Optional["StreamWriter"] = None,
        remove_partials: bool = True,
    ) -> List[Dict[str, Any]]:
        """Merge the per-worker partials into deterministic order.

        Reads every partial under ``trace_dir`` (in file-name order),
        sorts the records by :attr:`sort_key`, appends them to ``into``
        (when given), deletes the partials, and returns the merged
        records. Called by the coordinator after each batch — also on
        the error path, so a failed sweep keeps the runs that completed.
        """
        partials = sorted(Path(trace_dir).glob(self.worker_glob))
        merged = self._ordered([self.read(partial) for partial in partials])
        if into is not None:
            for record in merged:
                into.write_record(record)
        if remove_partials:
            for partial in partials:
                partial.unlink()
        return merged

    def canonicalize(self, target: Union[str, Path]) -> int:
        """Rewrite a stream file in :attr:`sort_key` order.

        Serial runs append records in run-completion order while pooled
        runs append merge-sorted batches; sorting the closed file makes
        the two byte-identical, so traces diff cleanly whatever
        ``jobs=`` was. Returns the number of records; a missing file is
        a no-op (zero).
        """
        resolved = self.path(target)
        if not resolved.exists():
            return 0
        records = self._ordered([self.read(resolved)])
        resolved.write_text("".join(map(_dump, records)), encoding="utf-8")
        return len(records)


class StreamWriter:
    """Append-only JSONL writer, one record per line, flushed eagerly.

    Eager flushing means a crashed worker still leaves every completed
    record on disk — exactly the runs you want to see when a sweep dies.
    Subclasses bind :attr:`spec` and add their record constructors.
    """

    spec: StreamSpec

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file: Optional[IO[str]] = self.path.open("a", encoding="utf-8")

    def write_record(self, record: Dict[str, Any]) -> None:
        """Append an already-built record verbatim."""
        if self._file is None:
            raise ObservabilityError(
                f"{self.spec.kind} file {self.path} is closed"
            )
        self._file.write(_dump(record))
        self._file.flush()

    def merge_workers(self, trace_dir: Union[str, Path]) -> List[Dict[str, Any]]:
        """Fold this stream's worker partials under ``trace_dir`` in."""
        return self.spec.merge_workers(trace_dir, into=self)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
