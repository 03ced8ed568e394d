"""VM maps and map entries (Figure 2's ``vm_map`` / ``vm_map_entry``).

A map entry is an address range with a protection, an inheritance mode
(private-COW vs shared) and a backing VM object.  The map keeps entries
sorted by start page and provides first-fit placement for ``mmap``.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional

from ...errors import InvalidArgument, SegmentationFault
from .vmobject import VMObject

PROT_READ = 0x1
PROT_WRITE = 0x2
PROT_EXEC = 0x4

#: Inheritance modes (mirroring VM_INHERIT_*).
INHERIT_COPY = "copy"      # private: COW on fork
INHERIT_SHARE = "share"    # shared memory: both sides see writes
INHERIT_NONE = "none"      # not mapped in the child


class VMMapEntry:
    """One mapped address range, backed by a single VM object."""

    def __init__(self, start_page: int, npages: int, protection: int,
                 vmobject: VMObject, offset_pages: int = 0,
                 inheritance: str = INHERIT_COPY, name: str = "") -> None:
        if npages <= 0:
            raise InvalidArgument("entry must span at least one page")
        self.start_page = start_page
        self.npages = npages
        self.protection = protection
        self.vmobject = vmobject
        self.offset_pages = offset_pages
        self.inheritance = inheritance
        self.name = name
        #: Lazy-COW flag: first write fault must shadow the object.
        self.needs_copy = False
        #: Excluded from Aurora checkpoints via sls_mctl (§3).
        self.sls_excluded = False
        vmobject.ref()

    @property
    def end_page(self) -> int:
        """First page past the entry."""
        return self.start_page + self.npages

    def contains(self, va_page: int) -> bool:
        """True when the virtual page falls inside this entry."""
        return self.start_page <= va_page < self.end_page

    def pindex_of(self, va_page: int) -> int:
        """Object page index corresponding to ``va_page``."""
        if not self.contains(va_page):
            raise SegmentationFault(f"page {va_page} outside entry {self}")
        return va_page - self.start_page + self.offset_pages

    def set_object(self, new_object: VMObject) -> None:
        """Repoint the entry to a different object (takes a new ref)."""
        new_object.ref()
        old = self.vmobject
        self.vmobject = new_object
        old.unref()

    def release(self) -> None:
        """Drop the entry's object reference (unmap)."""
        self.vmobject.unref()

    def writable(self) -> bool:
        """True when PROT_WRITE is set."""
        return bool(self.protection & PROT_WRITE)

    def __repr__(self) -> str:
        prot = "".join(c for c, f in (("r", PROT_READ), ("w", PROT_WRITE),
                                      ("x", PROT_EXEC)) if self.protection & f)
        return (f"VMMapEntry([{self.start_page:#x}+{self.npages}p] {prot} "
                f"{self.inheritance} obj={self.vmobject.kid} {self.name!r})")


class VMMap:
    """Sorted list of map entries with first-fit address allocation."""

    #: Lowest user page (leave page 0 unmapped, as real systems do).
    MIN_PAGE = 0x1000

    def __init__(self) -> None:
        self.entries: List[VMMapEntry] = []
        #: Sorted start pages, kept in lockstep with ``entries`` so the
        #: fault path's per-page lookups do not rebuild the list.
        self._starts: List[int] = []

    def insert(self, entry: VMMapEntry) -> None:
        """Add an entry, rejecting overlaps."""
        index = bisect.bisect_left(self._starts, entry.start_page)
        prev_entry = self.entries[index - 1] if index > 0 else None
        next_entry = self.entries[index] if index < len(self.entries) else None
        if prev_entry is not None and prev_entry.end_page > entry.start_page:
            raise InvalidArgument(f"overlap with {prev_entry}")
        if next_entry is not None and entry.end_page > next_entry.start_page:
            raise InvalidArgument(f"overlap with {next_entry}")
        self.entries.insert(index, entry)
        self._starts.insert(index, entry.start_page)

    def remove(self, entry: VMMapEntry) -> None:
        """Remove an entry and drop its object reference."""
        index = self.entries.index(entry)
        del self.entries[index]
        del self._starts[index]
        entry.release()

    def find_space(self, npages: int) -> int:
        """First-fit gap of at least ``npages``; returns its start page."""
        cursor = self.MIN_PAGE
        for entry in self.entries:
            if entry.start_page - cursor >= npages:
                return cursor
            cursor = max(cursor, entry.end_page)
        return cursor

    def lookup(self, va_page: int) -> Optional[VMMapEntry]:
        """The entry covering a virtual page, or None."""
        index = bisect.bisect_right(self._starts, va_page) - 1
        if index >= 0:
            entry = self.entries[index]
            if entry.contains(va_page):
                return entry
        return None

    def __iter__(self) -> Iterator[VMMapEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)
