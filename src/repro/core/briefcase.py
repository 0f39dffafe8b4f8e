"""Briefcases: the transportable state of a mobile agent.

Per the paper (section 3.1): *"the transportable state of a mobile agent
(code, arguments, results), is collected in a briefcase.  A briefcase is
then a consistent snapshot of the executing agent as it is transported
between hosts."*  A briefcase is an associative array of
:class:`~repro.core.folder.Folder` objects, and it is both the unit of
transport between hosts and the unit of exchange between communicating
agents.

Two properties the paper calls out are preserved here:

- Agents can **drop state** no longer needed (:meth:`Briefcase.drop`),
  minimising the bytes moved on the next hop.
- A briefcase is a **consistent snapshot**: :meth:`Briefcase.snapshot`
  yields an independent copy, and the codec serialises deterministically.

A briefcase holds nothing but its folders: the codec derives the wire
image and its size from them on every call.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.core.element import Element
from repro.core.errors import BriefcaseError, FolderNotFoundError
from repro.core.folder import Folder


class Briefcase:
    """An associative array of folders."""

    __slots__ = ("_folders",)

    def __init__(self, folders: Optional[Dict[str, Iterable[Any]]]
                 = None) -> None:
        self._folders: Dict[str, Folder] = {}
        if folders:
            for name, values in folders.items():
                self.folder(name).push_all(values)

    # -- folder management --------------------------------------------------------

    def folder(self, name: str) -> Folder:
        """The folder called ``name``, created empty if absent."""
        try:
            return self._folders[name]
        except KeyError:
            folder = Folder(name)
            self._folders[name] = folder
            return folder

    def get(self, name: str) -> Folder:
        """The folder called ``name``; raises if absent."""
        try:
            return self._folders[name]
        except KeyError:
            raise FolderNotFoundError(name) from None

    def has(self, name: str) -> bool:
        return name in self._folders

    def drop(self, name: str) -> bool:
        """Remove a folder entirely ("drop state").  Returns True if present.

        This is the paper's bandwidth-saving move: shed folders before
        calling ``go`` so they are not shipped on the next hop.
        """
        return self._folders.pop(name, None) is not None

    def drop_all_except(self, keep: Iterable[str]) -> List[str]:
        """Drop every folder not named in ``keep``; returns dropped names."""
        keep_set = set(keep)
        dropped = [name for name in self._folders if name not in keep_set]
        for name in dropped:
            del self._folders[name]
        return dropped

    def names(self) -> List[str]:
        return list(self._folders)

    # -- scalar convenience ---------------------------------------------------------

    def put(self, folder_name: str, value: Any) -> None:
        """Replace folder contents with a single value (set-a-variable idiom)."""
        self.folder(folder_name).replace([value])

    def get_first(self, folder_name: str) -> Optional[Element]:
        """The first element of a folder, or None if folder absent/empty."""
        folder = self._folders.get(folder_name)
        return folder.first() if folder else None

    def get_text(self, folder_name: str, default: Optional[str] = None
                 ) -> Optional[str]:
        element = self.get_first(folder_name)
        return element.as_text() if element is not None else default

    def get_json(self, folder_name: str, default: Any = None) -> Any:
        element = self.get_first(folder_name)
        return element.as_json() if element is not None else default

    def append(self, folder_name: str, value: Any) -> None:
        self.folder(folder_name).push(value)

    # -- whole-briefcase operations ----------------------------------------------------

    def snapshot(self) -> "Briefcase":
        """An independent copy (the transport unit is always a snapshot)."""
        copy = Briefcase()
        for name, folder in self._folders.items():
            copy._folders[name] = folder.copy()
        return copy

    def merge(self, other: "Briefcase", append: bool = True) -> None:
        """Fold another briefcase's folders into this one.

        With ``append=True`` (default) elements are appended to existing
        folders; with ``append=False`` same-named folders are replaced.
        """
        for name, folder in other._folders.items():
            if append and name in self._folders:
                self._folders[name].push_all(folder)
            else:
                self._folders[name] = folder.copy()

    def payload_bytes(self) -> int:
        """Total element bytes across all folders (excludes framing)."""
        return sum(folder.byte_size() for folder in self._folders.values())

    def to_dict(self) -> Dict[str, List[bytes]]:
        """A plain-dict view, mostly for tests and debugging."""
        return {name: [e.data for e in folder]
                for name, folder in self._folders.items()}

    @classmethod
    def from_dict(cls, mapping: Dict[str, Iterable[Any]]) -> "Briefcase":
        return cls(dict(mapping))

    # -- protocol -------------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._folders

    def __iter__(self) -> Iterator[Folder]:
        return iter(self._folders.values())

    def __len__(self) -> int:
        return len(self._folders)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Briefcase):
            return NotImplemented
        return self._folders == other._folders

    def __repr__(self) -> str:
        return (f"<Briefcase {len(self._folders)} folders, "
                f"{self.payload_bytes()} payload bytes: "
                f"{sorted(self._folders)}>")
