"""Differential test: the chunked location reader against the
line-at-a-time oracle in ``line_reader.py``.

Generated location files mix well-formed records with blank lines,
undecodable lines, two JSON values on one line, records split across
lines, malformed shapes, bracketed region names, CRLF endings, wrong or
missing footers and truncated tails.  The chunk size is shrunk to a
few bytes so bad lines straddle chunk boundaries.  In both ``strict``
modes the two readers must yield the same events and then end the same
way: cleanly, or with the same exception type and message.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import store
from repro.trace.store import iter_location_file
from tests.trace.line_reader import iter_location_lines

#: region names, some needing JSON escapes or carrying brackets
names = st.sampled_from(
    ["main", "solve", "operator[]", 'say "hi"', "back\\slash", "line\nbreak", "région", "]\n,["]
)

#: lines that are not one well-formed record
junk = st.sampled_from(
    [
        "",
        "   ",
        "[0, 0",
        "1.5]",
        "{",
        "garbage",
        "[0, 0, 1.0] [1, 0, 2.0]",
        "[0, 0, 1.0], [1, 0, 2.0]",
        "[5], [6]",
        "[3], 4",
        "[[1]",
        "[2]]",
        "[1",
        "  [1, 0, 2.5]  ",
        "5",
        "null",
        '"s"',
        '{"a": 1}',
        "[]",
        '["H"]',
        '["H", 2, 0]',
        '["D", 0]',
        '["D", [1], "x"]',
        '["F"]',
        "[0, 0]",
        "[0, [1], 1.0]",
        "[[0], 0, 1.0]",
        "[7, 0, 1.0]",
        "[0, 9, 1.0]",
        '[0, 0, "x"]',
        "[0, 0, true]",
        "[0, 0, null]",
        '[0, 0, 1.0, "m"]',
        "[0, 0, 1.0, 2.0]",
        "\ufeff[0, 0, 1.0]",
    ]
)

stamps = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
)


@st.composite
def location_files(draw):
    """Text of one location file, damaged in up to a few places."""
    regions = draw(st.lists(names, min_size=1, max_size=3))
    lines = [json.dumps(["H", 1, 0])]
    lines += [json.dumps(["D", i, name]) for i, name in enumerate(regions)]
    n_events = draw(st.integers(min_value=0, max_value=20))
    for _ in range(n_events):
        record = [
            draw(st.integers(min_value=0, max_value=2)),
            draw(st.integers(min_value=0, max_value=len(regions) - 1)),
            draw(stamps),
        ]
        if draw(st.booleans()):
            record.append(draw(st.integers(min_value=0, max_value=5)))
        lines.append(json.dumps(record))
    footer = draw(st.sampled_from(["right", "wrong", "missing"]))
    if footer != "missing":
        lines.append(json.dumps(["F", n_events + (footer == "wrong")]))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(junk))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    if draw(st.booleans()):
        text = text[: draw(st.integers(min_value=0, max_value=len(text)))]
    return text


def outcome(reader, path, strict):
    """Events read before the reader stopped, and how it stopped."""
    events = []
    try:
        for event in reader(path, strict=strict):
            events.append(event)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return repr(events), type(exc), str(exc)
    return repr(events), None, None


def assert_same(text, chunk_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rank-00000.evt"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        for strict in (True, False):
            expected = outcome(iter_location_lines, path, strict)
            with mock.patch.object(store, "_CHUNK_BYTES", chunk_bytes):
                assert outcome(iter_location_file, path, strict) == expected


@settings(max_examples=300, deadline=None)
@given(text=location_files(), chunk_bytes=st.integers(min_value=1, max_value=120))
def test_chunked_reader_matches_line_reader(text, chunk_bytes):
    assert_same(text, chunk_bytes)


@pytest.mark.parametrize(
    "body",
    [
        # a record spanning two lines, balanced by two records on one
        ["[5], [6]", "[0, 0", "1.5]"],
        ["[3], 4", "[1", "[2]]"],
        ["[1], [2]", "[[1]", "[2]]"],
        # a bracketed region name forces the per-line path
        ['["D", 1, "operator[]"]', "[0, 1, 2.0]", "[1, 1, 3.0]"],
        # an undecodable line after good ones: the prefix survives
        ["[0, 0, 2.0]", "[1, 0, 3.0]", "[0, 0, 4.0", "[1, 0, 5.0]"],
        # a malformed record after good ones
        ["[0, 0, 2.0]", "[0, [1], 1.0]"],
        # a corrupt byte outside any string, and runaway nesting
        ["[0, 0, 2.0]", "[1, 0, \udcff3.0]"],
        ["[0, 0, 2.0]", "[" * 100_000],
    ],
)
@pytest.mark.parametrize("chunk_bytes", [1, 24, 1 << 16])
def test_adversarial_chunks_match_line_reader(body, chunk_bytes):
    lines = ['["H", 1, 0]', '["D", 0, "main"]', *body, '["F", 2]']
    assert_same("\n".join(lines) + "\n", chunk_bytes)
