"""Folders: named, ordered lists of elements inside a briefcase.

Per the paper (section 3.1), each briefcase is an associative array of
folders, and each folder contains *an ordered list of elements*.  The
original TACOMA C API indexes folders 1-based (``fRemove(folder, 1)``
removes the first element — see the Figure 4 agent); this implementation
offers a Pythonic 0-based sequence API plus the queue-style operations
agents actually use (``push``/``pop_first``).

Each folder keeps a private mutation counter, ``_version``, bumped by
every mutating operation.  Its one reader is the runtime aliasing
sanitizer (:mod:`repro.analysis.sanitizer`).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional

from repro.core.element import Element
from repro.core.errors import BriefcaseError


class Folder:
    """An ordered list of :class:`Element` values with a name.

    Every mutation bumps ``_version``, the counter the aliasing
    sanitizer reads to tell whether a folder changed between two
    observations.  It carries no other meaning.
    """

    __slots__ = ("name", "_elements", "_version")

    def __init__(self, name: str,
                 elements: Iterable[Any] = ()) -> None:
        if not isinstance(name, str) or not name:
            raise BriefcaseError("folder name must be a non-empty string")
        self.name = name
        self._elements: List[Element] = [Element.of(e) for e in elements]
        self._version = 0

    # -- mutation ---------------------------------------------------------------

    def push(self, value: Any) -> Element:
        """Append a value (encoded with :meth:`Element.of`) to the end."""
        element = Element.of(value)
        self._elements.append(element)
        self._version += 1
        return element

    def push_all(self, values: Iterable[Any]) -> None:
        for value in values:
            self.push(value)

    def insert(self, index: int, value: Any) -> Element:
        element = Element.of(value)
        self._elements.insert(index, element)
        self._version += 1
        return element

    def pop_first(self) -> Optional[Element]:
        """Remove and return the first element, or None when empty.

        This mirrors the hello-world agent's ``fRemove(..., 1)`` idiom:
        a None result is the itinerary-exhausted signal.
        """
        if not self._elements:
            return None
        self._version += 1
        return self._elements.pop(0)

    def pop_last(self) -> Optional[Element]:
        if not self._elements:
            return None
        self._version += 1
        return self._elements.pop()

    def remove_at(self, index: int) -> Element:
        try:
            element = self._elements.pop(index)
        except IndexError as exc:
            raise BriefcaseError(
                f"folder {self.name!r} has no element at index {index}"
            ) from exc
        self._version += 1
        return element

    def clear(self) -> None:
        self._elements.clear()
        self._version += 1

    def replace(self, values: Iterable[Any]) -> None:
        """Replace the entire contents with freshly-encoded values."""
        self._elements = [Element.of(v) for v in values]
        self._version += 1

    # -- access -------------------------------------------------------------------

    def first(self) -> Optional[Element]:
        return self._elements[0] if self._elements else None

    def last(self) -> Optional[Element]:
        return self._elements[-1] if self._elements else None

    def texts(self) -> List[str]:
        """All elements decoded as UTF-8 text."""
        return [e.as_text() for e in self._elements]

    def byte_size(self) -> int:
        """Total payload bytes held by this folder."""
        return sum(len(e) for e in self._elements)

    def copy(self) -> "Folder":
        """A snapshot copy (elements are immutable, so sharing is safe)."""
        folder = Folder(self.name)
        folder._elements = list(self._elements)
        return folder

    # -- sequence protocol -----------------------------------------------------------

    def __getitem__(self, index: int) -> Element:
        try:
            return self._elements[index]
        except IndexError as exc:
            raise BriefcaseError(
                f"folder {self.name!r} has no element at index {index}"
            ) from exc

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __bool__(self) -> bool:
        return bool(self._elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Folder):
            return NotImplemented
        return self.name == other.name and self._elements == other._elements

    def __repr__(self) -> str:
        return (f"<Folder {self.name!r}: {len(self._elements)} elements, "
                f"{self.byte_size()} bytes>")
