"""Workload generators driving the evaluation applications:
FileBench personalities (Fig. 3) and the Prefix_dist RocksDB mix
(Fig. 6).  Memcached's Mutilate-style load modes (Figs. 4–5) live on
:class:`~repro.apps.memcached.MemcachedServer` itself."""

from .filebench import FileBench
from .prefix_dist import PrefixDistWorkload

__all__ = ["FileBench", "PrefixDistWorkload"]
