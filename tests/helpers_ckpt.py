"""Read a checkpoint file as lines and write edited lines back, for tests
that edit one.

A checkpoint holds text lines: the header, its five payload lines and one
`tensor <name> <dims...>` line per tensor. After each tensor line come that
tensor's raw `<f8` bytes and a newline; the bytes may hold newlines of
their own, so the file cannot be split on them. Here, as in the loader's
error messages, each block counts as one line: a text line is a `str`, a
block is `bytes`, and writing puts one newline after each.
"""

from __future__ import annotations

import math
from pathlib import Path

# the header and the meta, config model, config train, metrics and answers lines
N_HEAD_LINES = 6


def read_checkpoint(path) -> tuple:
    """(the head's text lines, a (tensor line, raw block) record per tensor)
    of the well-formed checkpoint at path."""
    data = Path(path).read_bytes()
    pos = 0

    def text_line() -> str:
        nonlocal pos
        end = data.index(b"\n", pos)
        line, pos = data[pos:end].decode(), end + 1
        return line

    head = [text_line() for _ in range(N_HEAD_LINES)]
    records = []
    for _ in range(int(head[0].split()[2])):
        line = text_line()
        size = 8 * math.prod(int(d) for d in line.split()[2:])
        records.append((line, data[pos:pos + size]))
        assert data[pos + size:pos + size + 1] == b"\n", line
        pos += size + 1
    assert pos == len(data)
    return head, records


def checkpoint_lines(path) -> list:
    """Every line of the checkpoint at path in order, each block as one."""
    head, records = read_checkpoint(path)
    return head + [line for record in records for line in record]


def line_index(lines: list, prefix: str) -> int:
    """The index of the first text line that starts with prefix."""
    return next(i for i, line in enumerate(lines)
                if isinstance(line, str) and line.startswith(prefix))


def write_lines(path, lines) -> None:
    """Write each line, text or block, followed by a newline."""
    Path(path).write_bytes(b"".join(
        (line.encode() if isinstance(line, str) else line) + b"\n" for line in lines))
