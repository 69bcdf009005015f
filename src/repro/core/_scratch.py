"""Per-thread work buffers that the receive chain's kernels reuse across calls.

A large numpy temporary freed at the end of a call goes back to the
operating system, so the next call faults its pages in again.  The
onset, FB and pipeline kernels instead write their temporaries into a
:class:`Scratch` they own: one flat buffer per name, grown on demand
and never shrunk, so a call no larger than an earlier one on the same
thread allocates nothing.  Being thread-local, one detector, estimator
or pipeline can serve several threads at once.
"""

from __future__ import annotations

import math
import threading

import numpy as np


class Scratch(threading.local):
    """Named, reusable buffers, one set per thread.

    A name must always be asked for with the same dtype.  The contents
    of a returned array are undefined: the caller writes every element
    it reads.  Pickling or copying gives an empty scratch.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def __reduce__(self):
        """Pickle (and copy) as a fresh, empty scratch."""
        return type(self), ()

    def array(self, name: str, shape: tuple[int, ...], dtype: type = float) -> np.ndarray:
        """A C-contiguous ``shape`` view of the buffer called ``name``."""
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)
