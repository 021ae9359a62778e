"""Line-at-a-time reference reader for location files.

One ``json.loads`` per line: the straightforward reader that the
chunked :func:`repro.trace.store.iter_location_file` replaced.  It is
kept here as the oracle the differential test in
``test_chunked_reader.py`` runs generated files against, so its errors
and salvaged prefixes define the contract: an undecodable line raises
(strict) or ends the stream (lenient) after the events before it; a
decodable record that is malformed (undefined region or kind, missing
field, non-numeric timestamp, non-integer ``mid``) raises in both
modes; a missing header or footer, or a footer count that disagrees,
raises once a strict stream is exhausted.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from repro.scorep.tracing import TraceEvent
from repro.trace.store import _CODE_KIND, FORMAT_VERSION, TraceStoreError


def iter_location_lines(
    path: str | Path, *, strict: bool = True
) -> Iterator[TraceEvent]:
    path = Path(path)
    if not path.exists():
        raise TraceStoreError(f"missing location file {path}")
    regions: dict[int, str] = {}
    count = 0
    footer_count: int | None = None
    saw_header = False
    with open(path, errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                if strict:
                    raise TraceStoreError(
                        f"{path}:{lineno}: undecodable line ({exc})"
                    ) from exc
                break
            try:
                tag = record[0]
                if tag == "H":
                    if record[1] != FORMAT_VERSION:
                        raise TraceStoreError(
                            f"{path}: unsupported format version {record[1]}"
                        )
                    saw_header = True
                    continue
                if tag == "D":
                    regions[record[1]] = record[2]
                    continue
                if tag == "F":
                    footer_count = record[1]
                    continue
                mid = record[3] if len(record) > 3 else None
                if type(record[2]) not in (int, float):
                    raise TypeError(f"timestamp {record[2]!r}")
                if mid is not None and type(mid) is not int:
                    raise TypeError(f"mid {mid!r}")
                event = TraceEvent(_CODE_KIND[tag], regions[record[1]], record[2], mid)
            except (KeyError, IndexError, TypeError) as exc:
                raise TraceStoreError(
                    f"{path}:{lineno}: malformed record {record!r} "
                    "(undefined region or kind, or a missing or mistyped field)"
                ) from exc
            count += 1
            yield event
    if strict:
        if not saw_header:
            raise TraceStoreError(f"{path}: missing header line")
        if footer_count is None:
            raise TraceStoreError(
                f"{path}: missing footer (truncated write?) after "
                f"{count} event(s)"
            )
        if footer_count != count:
            raise TraceStoreError(
                f"{path}: footer declares {footer_count} event(s) "
                f"but {count} were read"
            )
