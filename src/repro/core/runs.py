"""Contiguous-run slab utilities for the checkpoint hot path.

The columnar refactor moves page sets through the checkpoint pipeline
as *runs* — ``(start_index, count)`` pairs over sorted page indexes —
instead of page-at-a-time dict traffic.  Shadow flush items expose
their dirty sets as runs, and the object store coalesces adjacent page
extents into single staged writes, so per-checkpoint staging cost
tracks the run count (a handful for sequential writers) rather than
the page count.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Tuple


def build_runs(indexes: Iterable[int]) -> List[Tuple[int, int]]:
    """Coalesce page indexes into sorted ``(start, count)`` runs."""
    ordered = sorted(indexes)
    runs: List[Tuple[int, int]] = []
    for index in ordered:
        if runs and runs[-1][0] + runs[-1][1] == index:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((index, 1))
    return runs


def page_runs(pages: Mapping[int, object]) -> List[Tuple[int, int]]:
    """Runs of a page-dict's indexes (newest-wins merged dirty set)."""
    return build_runs(pages.keys())


def build_arith_runs(indexes: Iterable[int]) -> List[List[int]]:
    """Coalesce indexes into ``[start, count, step]`` arithmetic runs.

    A generalization of :func:`build_runs` for sequences with a
    constant stride — OID allocations interleave classes, so a live
    set's per-class OIDs step by a small constant rather than by 1.
    The second element of a run pins its step (as in the synthetic
    page-run encoding); the greedy choice can split an optimal run but
    never changes what the runs expand back to.
    """
    runs: List[List[int]] = []
    for value in sorted(indexes):
        if runs:
            start, count, step = runs[-1]
            if count == 1:
                runs[-1] = [start, 2, value - start]
                continue
            if value == start + step * count:
                runs[-1][1] += 1
                continue
        runs.append([value, 1, 0])
    return runs


def expand_arith_runs(runs: Iterable[List[int]]) -> List[int]:
    """Flatten ``[start, count, step]`` runs back to indexes."""
    out: List[int] = []
    for start, count, step in runs:
        out.extend(start + step * i for i in range(count))
    return out
