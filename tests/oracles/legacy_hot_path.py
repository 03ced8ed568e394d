"""The per-page hot path the columnar product replaced.

The product keeps one implementation of each hot path: the bitmap
:class:`~repro.kernel.vm.pmap.Pmap`, the bulk newest-wins
:func:`~repro.core.shadowing.merged_chain_pages`, the slab
:meth:`~repro.kernel.vm.vmobject.VMObject.collapse_into_parent`, and a
serializer that takes the clean-skip decision before it builds a file
or vnode record.  This module holds the straightforward per-page
originals of each:

* :class:`LegacyPmap` — a ``Dict[int, PTE]`` page table;
* :func:`merged_chain_pages` — a top-down ``setdefault`` merge;
* :func:`collapse_into_parent` — a page-at-a-time reversed collapse;
* :class:`WalkingSerializer` — a serializer that builds every file's
  state and tracing span before deciding to skip it, and never skips
  a clean vnode.

:func:`installed` swaps them in for the product's implementations.
``tests/test_columnar_equivalence.py`` drives both sides with the same
inputs, and ``benchmarks/bench_simscale.py`` measures its baseline
with them installed.

Simulated cost.  The pmap, merge and collapse specs charge exactly the
simulated time the product charges: the cost model bills per page
dirtied, PTE downgraded and page moved, never per data-structure
operation.  The walk does not.  It re-writes the record (and, off the
Aurora FS, the data) of every clean vnode, charging
``costs.CKPT_VNODE`` and the IO for each.  Measured with
``bench_simscale.run_config`` (16k pages, 64 fds, 10 ticks), all four
combinations of product or per-page pmap and merge/collapse charge
3,929,317 sim-ns with the walk off and 5,593,281 with it on.  So the
simscale baseline's larger simulated time (56.3 M vs 39.9 M sim-ns at
64k pages) comes from the walk's clean-vnode records, not from the
per-page data structures.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterable, Iterator, List, Tuple

import repro.core.pipeline as pipeline_mod
import repro.core.shadowing as shadowing_mod
import repro.kernel.vm.vmspace as vmspace_mod
from repro.core import costs, telemetry
from repro.core.serialize import CheckpointSerializer
from repro.errors import InvalidArgument, SegmentationFault
from repro.hw.memory import Page
from repro.kernel.fs.file import OpenFile
from repro.kernel.vm.vmobject import VMObject
from repro.objstore.oid import CLASS_FILE


class PTE:
    """One translation: writable + dirty bits."""
    __slots__ = ("writable", "dirty")

    def __init__(self, writable: bool) -> None:
        self.writable = writable
        self.dirty = False


class LegacyPmap:
    """The original dict-of-:class:`PTE` pmap."""

    def __init__(self) -> None:
        self._ptes: Dict[int, PTE] = {}
        self.fault_count = 0
        self.wp_downgrades = 0

    def enter(self, va_page: int, writable: bool) -> None:
        """Install a translation (overwrites any existing one)."""
        self._ptes[va_page] = PTE(writable)

    def enter_range(self, start_page: int, npages: int, writable: bool,
                    dirty: bool = False) -> None:
        """Per-page equivalent of the bitmap bulk install."""
        for va_page in range(start_page, start_page + npages):
            pte = PTE(writable)
            pte.dirty = dirty
            self._ptes[va_page] = pte

    def remove(self, va_page: int) -> None:
        """Invalidate one translation."""
        self._ptes.pop(va_page, None)

    def remove_range(self, start_page: int, npages: int) -> None:
        """Invalidate a contiguous range of translations."""
        for va_page in range(start_page, start_page + npages):
            self._ptes.pop(va_page, None)

    def is_mapped(self, va_page: int) -> bool:
        """True when a translation exists for the page."""
        return va_page in self._ptes

    def is_writable(self, va_page: int) -> bool:
        """True when the page is mapped writable."""
        pte = self._ptes.get(va_page)
        return pte is not None and pte.writable

    def mark_dirty(self, va_page: int) -> None:
        """Set the dirty bit (a store hit the page)."""
        pte = self._ptes.get(va_page)
        if pte is None:
            raise SegmentationFault(
                f"mark_dirty on unmapped page {va_page:#x}: no PTE "
                f"installed (enter() the translation first)")
        pte.dirty = True

    def write_protect_range(self, start_page: int, npages: int) -> int:
        """Downgrade writable PTEs in a range to read-only."""
        downgraded = 0
        if npages <= 0:
            return 0
        # Iterate whichever side is smaller: the range or the PTE set.
        if npages <= len(self._ptes):
            candidates: Iterable[int] = range(start_page, start_page + npages)
        else:
            candidates = [va for va in self._ptes
                          if start_page <= va < start_page + npages]
        for va_page in candidates:
            pte = self._ptes.get(va_page)
            if pte is not None and pte.writable:
                pte.writable = False
                pte.dirty = False
                downgraded += 1
        self.wp_downgrades += downgraded
        return downgraded

    def resident_pages(self) -> int:
        """Number of installed translations."""
        return len(self._ptes)

    def dirty_pages(self) -> List[int]:
        """Virtual pages whose dirty bit is set (ascending)."""
        return sorted(va for va, pte in self._ptes.items() if pte.dirty)

    def collect_dirty(self, start_page: int,
                      npages: int) -> Iterator[Tuple[int, int]]:
        """Per-page scan producing the same runs as the bitmap pmap."""
        run_start = -1
        run_len = 0
        for va_page in range(start_page, start_page + npages):
            pte = self._ptes.get(va_page)
            if pte is not None and pte.dirty:
                if run_len and run_start + run_len == va_page:
                    run_len += 1
                else:
                    if run_len:
                        yield run_start, run_len
                    run_start, run_len = va_page, 1
        if run_len:
            yield run_start, run_len

    def clear(self) -> None:
        """Drop every translation (address space teardown)."""
        self._ptes.clear()


def merged_chain_pages(top: VMObject) -> Dict[int, Page]:
    """The original top-down per-page ``setdefault`` merge."""
    pages: Dict[int, Page] = {}
    for obj in top.chain():
        if obj is not top and obj.sls_oid not in (None, top.sls_oid):
            break
        if obj.backing_offset != 0:
            raise InvalidArgument("system shadowing assumes offset-0 chains")
        for pindex, page in obj.pages.items():
            pages.setdefault(pindex, page)
    return pages


def collapse_into_parent(self: VMObject) -> Tuple[VMObject, int]:
    """The original page-at-a-time reversed collapse (a
    :class:`VMObject` method while :func:`installed` is active)."""
    parent = self.backing
    if parent is None:
        raise InvalidArgument("no backing object to collapse into")
    if self.backing_offset != 0:
        raise InvalidArgument("system shadows always use offset 0")
    parent.ref()
    was_frozen = parent.frozen
    parent.frozen = False
    moved = 0
    for pindex, page in list(self.pages.items()):
        stale = parent.pages.get(pindex)
        if stale is not None:
            parent.remove_page(pindex)
        parent.insert_page(pindex, page)
        self.remove_page(pindex)
        moved += 1
    parent.frozen = was_frozen
    pageout = getattr(self.kernel, "pageout", None)
    if pageout is not None:
        pageout.migrate_object(self.kid, parent.kid)
    self._detach_backing()
    return parent, moved


class WalkingSerializer(CheckpointSerializer):
    """The serializer before the clean-skip fast path: every file
    builds its state dict and tracing span before the skip decision,
    and every vnode record is re-written, clean or not."""

    def serialize_file(self, file: OpenFile) -> int:
        with telemetry.registry().span(self.kernel.clock, "serialize.file",
                                       group=self.group.group_id):
            state = {
                "ftype": file.ftype,
                "flags": file.flags,
                "offset": file.offset,
                "sls_nosync": file.sls_nosync,
                "fobj_oid": self.serialize_fobj(file.fobj, file.ftype),
            }
            return self._put_once(file, "file", state)

    def serialize_vnode(self, vnode: Any) -> int:
        oid = self._oid(vnode, CLASS_FILE)
        if oid in self._done:
            return oid
        self._done.add(oid)
        with telemetry.registry().span(self.kernel.clock, "serialize.vnode",
                                       group=self.group.group_id):
            self.kernel.clock.advance(costs.CKPT_VNODE)
            state = {
                "inode": vnode.inode,
                "fs_type": vnode.fs.fs_type,
                "vtype": vnode.vtype,
                "size": vnode.size,
                "link_count": vnode.link_count,
            }
            self.txn.put_object(oid, "vnode", state)
            self.records_written += 1
            if vnode.fs.fs_type != "slsfs" and vnode.vmobject is not None:
                self.txn.put_pages(oid, dict(vnode.vmobject.pages))
        return oid


@contextlib.contextmanager
def installed(walk: bool) -> Iterator[None]:
    """Run the product on the per-page specs for the duration.

    Installs :class:`LegacyPmap` for address spaces created inside the
    block, the ``setdefault`` merge and the page-at-a-time collapse;
    with ``walk``, checkpoints also serialize through
    :class:`WalkingSerializer`.  Everything is restored on exit.
    """
    patches: List[Tuple[Any, str, Any]] = [
        (vmspace_mod, "Pmap", LegacyPmap),
        (shadowing_mod, "merged_chain_pages", merged_chain_pages),
        (VMObject, "collapse_into_parent", collapse_into_parent),
    ]
    if walk:
        patches.append((pipeline_mod, "CheckpointSerializer",
                        WalkingSerializer))
    saved = [(owner, name, getattr(owner, name))
             for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
