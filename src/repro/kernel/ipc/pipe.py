"""Pipes: a bounded in-kernel byte buffer with two descriptors.

Both descriptors reference the *same* pipe object — checkpointing a
pipe once captures the buffer and both endpoints' liveness, which is
why Table 4's pipe row is one of the cheapest objects (1.7 µs).
"""

from __future__ import annotations

from ...errors import BrokenPipe, WouldBlock
from ...units import KiB
from ..kobject import KObject

PIPE_BUFFER_SIZE = 64 * KiB


class Pipe(KObject):
    """One pipe; ``read_open``/``write_open`` track endpoint liveness."""

    obj_type = "pipe"

    def __init__(self, kernel, capacity: int = PIPE_BUFFER_SIZE):
        super().__init__(kernel)
        self.capacity = capacity
        self.buffer = bytearray()
        self.read_open = True
        self.write_open = True

    def write(self, data: bytes) -> int:
        """Append up to the free space; EPIPE with no readers."""
        if not self.read_open:
            raise BrokenPipe("pipe has no readers")
        space = self.capacity - len(self.buffer)
        if space <= 0:
            raise WouldBlock("pipe buffer full")
        accepted = data[:space]
        self.buffer += accepted
        self.mark_dirty()
        return len(accepted)

    def read(self, nbytes: int) -> bytes:
        """Take up to ``nbytes``; empty bytes = EOF after writer close."""
        if not self.buffer:
            if not self.write_open:
                return b""  # EOF
            raise WouldBlock("pipe empty")
        out = bytes(self.buffer[:nbytes])
        del self.buffer[:nbytes]
        self.mark_dirty()
        return out

    def close_read(self) -> None:
        """Drop the read end (writers will see EPIPE)."""
        self.read_open = False
        self.mark_dirty()

    def close_write(self) -> None:
        """Drop the write end (readers will see EOF)."""
        self.write_open = False
        self.mark_dirty()

    def __repr__(self) -> str:
        return (f"Pipe(kid={self.kid}, {len(self.buffer)}/{self.capacity}B, "
                f"r={'o' if self.read_open else 'c'}"
                f"w={'o' if self.write_open else 'c'})")
