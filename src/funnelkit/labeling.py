"""Fork/Merge vertex labelings, and the integer rule of every text format."""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterable, Iterator, Optional


# ASCII digits only, so int() never sees "1_0", "+0" or non-ASCII digits.
# The sign is let through, so that callers give negative ids their own message.
_INT = re.compile(r"-?[0-9]+")


def ascii_int(text: str) -> int:
    """``int(text)`` for text matching ``-?[0-9]+``; ValueError otherwise."""
    if not _INT.fullmatch(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


class PartialLabeling(Exception):
    """An operation needed a total labeling but some vertex is unassigned."""


class Label(Enum):
    FORK = "F"
    MERGE = "M"

    def __repr__(self) -> str:  # keeps solver traces and test output short
        return self.value


class Labeling:
    """Per-vertex assignment to Fork, Merge or unassigned (``None``).

    The text form has one ``<vertex-id> <F|M>`` line per assigned vertex.
    """

    __slots__ = ("_labels",)

    def __init__(self, labels: Iterable[Optional[Label]]):
        self._labels = list(labels)

    @classmethod
    def unassigned(cls, vertex_count: int) -> "Labeling":
        return cls([None] * vertex_count)

    @classmethod
    def from_text(cls, text: str, vertex_count: int) -> "Labeling":
        lab = cls.unassigned(vertex_count)
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {line_no}: expected '<vertex> <F|M>'")
            try:
                vertex, label = ascii_int(parts[0]), Label(parts[1])
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
            if not 0 <= vertex < vertex_count:
                raise ValueError(f"line {line_no}: vertex {vertex} out of range")
            if lab[vertex] is not None:
                raise ValueError(f"line {line_no}: vertex {vertex} assigned twice")
            lab[vertex] = label
        return lab

    def to_text(self) -> str:
        lines = [
            f"{v} {lab.value}" for v, lab in enumerate(self._labels) if lab is not None
        ]
        return "\n".join(lines)

    def copy(self) -> "Labeling":
        return Labeling(self._labels)

    def is_total(self) -> bool:
        return all(lab is not None for lab in self._labels)

    def require_total(self) -> None:
        for v, lab in enumerate(self._labels):
            if lab is None:
                raise PartialLabeling(f"vertex {v} is unassigned")

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, v: int) -> Optional[Label]:
        return self._labels[v]

    def __setitem__(self, v: int, lab: Optional[Label]) -> None:
        self._labels[v] = lab

    def __iter__(self) -> Iterator[Optional[Label]]:
        return iter(self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        return self._labels == other._labels

    def __repr__(self) -> str:
        byte = "".join("." if lab is None else lab.value for lab in self._labels)
        return f"Labeling({byte!r})"
