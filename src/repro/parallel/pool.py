"""Persistent process pools with warm imports, shared across sweep runs.

The original executor cold-spawned a ``multiprocessing`` pool inside
every ``run()`` call: each worker re-imported numpy/scipy and the whole
``repro`` stack before touching its first task, and the pool died with
the call -- on short sweeps the spawn cost dominated the measurement.
:class:`WorkerPool` fixes both halves:

* the underlying pool is created lazily on first dispatch and then
  **survives across runs** until :meth:`close` (or process exit), so
  repeated sweeps pay the spawn/import cost once;
* workers run a warm-import initializer, front-loading the heavy
  module imports into pool creation instead of the first task.

Module-level :func:`default_pool` hands out one shared pool per worker
count so independent sweep calls transparently reuse workers;
:func:`shutdown_default_pools` (also an ``atexit`` hook) tears them
down.
"""

from __future__ import annotations

import atexit
import multiprocessing
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ConfigurationError

#: Modules imported by every worker at pool creation, so the first task
#: does not pay the numpy/repro import cost.  scipy is not among them:
#: the default receive chain (AIC onset, dechirp FB) runs on numpy alone,
#: and the tasks that need scipy import it when they first run.
_WARM_MODULES: tuple[str, ...] = (
    "numpy",
    "repro.experiments.common",
    "repro.sim.runtime",
    "repro.pipeline.batch",
)

#: Workers are spawned, never forked: a fresh interpreter inherits no
#: parent state (rng, caches, threads), which keeps results identical
#: across platforms and start-method defaults.
_START_METHOD = "spawn"


def _warm_worker() -> None:
    """Pool initializer: import the heavy modules once per worker."""
    import importlib

    for name in _WARM_MODULES:
        importlib.import_module(name)


class WorkerPool:
    """A lazily started, reusable pool of spawned worker processes.

    The pool is a context manager (``with WorkerPool(4) as pool: ...``)
    but unlike ``multiprocessing.Pool`` it is *not* consumed by a single
    dispatch: every :meth:`imap_unordered` call reuses the same warm
    workers, and :meth:`close` returns the object to its lazy state so
    it can be warmed again.
    """

    def __init__(self, n_workers: int) -> None:
        """Configure (but do not yet start) a pool.

        Args:
            n_workers: Worker count, >= 1.

        Raises:
            ConfigurationError: On a non-positive worker count.
        """
        if n_workers < 1:
            raise ConfigurationError(f"need >= 1 worker, got {n_workers}")
        self.n_workers = int(n_workers)
        self._pool: Any = None

    @property
    def is_warm(self) -> bool:
        """Whether the underlying pool is currently started."""
        return self._pool is not None

    def warm(self) -> "WorkerPool":
        """Start the workers now (otherwise the first dispatch does).

        Returns:
            The pool itself, for chaining.
        """
        self._ensure()
        return self

    def _ensure(self) -> Any:
        """Create the underlying pool on first use."""
        if self._pool is None:
            ctx = multiprocessing.get_context(_START_METHOD)
            self._pool = ctx.Pool(processes=self.n_workers, initializer=_warm_worker)
        return self._pool

    def imap_unordered(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> Iterator[Any]:
        """Dispatch tasks to the (work-stealing) pool, yielding results.

        Results arrive in completion order -- callers that need
        determinism must carry ordering keys in the tasks themselves.

        Args:
            fn: Module-level (picklable) callable.
            tasks: Task payloads, one per call to ``fn``.

        Returns:
            An iterator over ``fn(task)`` results in completion order.
        """
        return self._ensure().imap_unordered(fn, tasks, 1)

    def close(self) -> None:
        """Gracefully stop the workers and return to the lazy state."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def terminate(self) -> None:
        """Hard-stop the workers (used by the atexit teardown)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        """Context-manager entry: warm the pool."""
        return self.warm()

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: gracefully stop the workers."""
        self.close()


_default_pools: dict[int, WorkerPool] = {}


def default_pool(n_workers: int) -> WorkerPool:
    """The module-level shared pool for one worker count.

    Sweep executors resolve here when no explicit pool is passed, so
    back-to-back runs at the same worker count transparently reuse warm
    workers instead of respawning.

    Args:
        n_workers: Worker count, >= 1.

    Returns:
        The shared (possibly not yet started) :class:`WorkerPool`.
    """
    key = int(n_workers)
    pool = _default_pools.get(key)
    if pool is None:
        pool = WorkerPool(key)
        _default_pools[key] = pool
    return pool


def shutdown_default_pools() -> None:
    """Terminate and forget every module-level shared pool."""
    while _default_pools:
        _, pool = _default_pools.popitem()
        pool.terminate()


atexit.register(shutdown_default_pools)
