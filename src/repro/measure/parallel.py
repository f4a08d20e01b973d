"""Process-parallel measurement: one worker pool for every device's sweeps.

A campaign sweeps *many* kernels over one configuration list, each
kernel's sweep is independent, and the simulator's noise is counter-based
(keyed by device × kernel × clocks, never by call order) — so distributing
sweeps over a ``multiprocessing`` pool is **bit-identical** to the serial
loop, not merely statistically equivalent.

:class:`DevicePool` is the campaign scheduler's engine room: ONE process
pool serves sweep tasks for *every* device of a campaign.  Tasks are
tagged with a device name; each worker builds the backend for a device the
first time it sees a task for it and caches it, so a worker that
alternates between devices pays construction once per device, not per
task.  Tasks can also extract each kernel's static features, with the
feature recipe the task names, moving the clkernel frontend — the
dominant per-kernel cost of dataset assembly — off the parent's critical
path.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import os
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from ..features.vector import StaticFeatures
from ..obs import MetricsRegistry, use_registry
from ..workloads import KernelSpec
from .backend import MeasurementBackend, as_backend
from .simulator import SimulatorBackend

if TYPE_CHECKING:
    from ..obs import MetricsSnapshot
    from ..core.dataset import KernelMeasurements


#: The worker process's device→backend cache and its factory (set once by
#: the pool initializer).
_DEVICE_FACTORY: Callable[[str], MeasurementBackend] | None = None
_DEVICE_BACKENDS: dict[str, MeasurementBackend] = {}


def backend_for_device(device_name: str) -> MeasurementBackend:
    """The default per-device factory: a vectorized simulator backend."""
    from ..gpusim.device import resolve_device

    return SimulatorBackend(resolve_device(device_name))


def _init_device_worker(factory: Callable[[str], MeasurementBackend]) -> None:
    global _DEVICE_FACTORY
    _DEVICE_FACTORY = factory
    _DEVICE_BACKENDS.clear()


def _cached_device_backend(
    device_name: str,
    cache: dict[str, MeasurementBackend],
    factory: Callable[[str], MeasurementBackend],
) -> MeasurementBackend:
    backend = cache.get(device_name)
    if backend is None:
        backend = as_backend(factory(device_name))
        cache[device_name] = backend
    return backend


#: One pool task: (device name, spec, configs, feature recipe to extract
#: static features with, or None to extract none).
DeviceSweepTask = tuple[str, KernelSpec, Sequence[tuple[float, float]], str | None]
#: Its result: (measurements, features or None, worker-side seconds).
DeviceSweepResult = tuple["KernelMeasurements", StaticFeatures | None, float]


def _run_sweep_task(
    task: DeviceSweepTask,
    cache: dict[str, MeasurementBackend],
    factory: Callable[[str], MeasurementBackend],
) -> DeviceSweepResult:
    device_name, spec, configs, feature_recipe = task
    start = time.perf_counter()
    backend = _cached_device_backend(device_name, cache, factory)
    measurements = backend.measure(spec, configs)
    static = None if feature_recipe is None else spec.static_features(feature_recipe)
    return measurements, static, time.perf_counter() - start


def _device_sweep_task(
    task: DeviceSweepTask,
) -> "tuple[DeviceSweepResult, MetricsSnapshot]":
    assert _DEVICE_FACTORY is not None, "device pool initializer did not run"
    delta = MetricsRegistry()
    with use_registry(delta):
        result = _run_sweep_task(task, _DEVICE_BACKENDS, _DEVICE_FACTORY)
    return result, delta.snapshot()


def _observed_call(fn: Callable[..., Any], *args: Any) -> "tuple[Any, MetricsSnapshot]":
    """Run ``fn`` under a private delta registry; ship the delta home."""
    delta = MetricsRegistry()
    with use_registry(delta):
        value = fn(*args)
    return value, delta.snapshot()


class _ImmediateResult:
    """`AsyncResult`-shaped wrapper for work done synchronously."""

    def __init__(self, value: Any) -> None:
        self._value = value

    def get(self, timeout: float | None = None) -> Any:
        return self._value


class _MergingResult:
    """`AsyncResult` adapter: merges the task's metric delta on ``get``."""

    def __init__(
        self, async_result: Any, registry: MetricsRegistry
    ) -> None:
        self._async_result = async_result
        self._registry = registry
        self._merged = False

    def get(self, timeout: float | None = None) -> Any:
        value, snapshot = self._async_result.get(timeout)
        if not self._merged:
            self._merged = True
            self._registry.merge(snapshot)
        return value


class DevicePool:
    """A shared worker pool serving sweep tasks across many devices.

    Parameters
    ----------
    backend_factory:
        Picklable ``factory(device_name) -> backend`` each worker uses to
        build (and cache) the backend for a device the first time a task
        names it.  Defaults to :func:`backend_for_device`.
    workers:
        Pool size; defaults to the machine's CPU count.  ``workers=1``
        never forks: tasks run inline in the parent, in order — the
        bit-identity reference for the fan-out (which holds anyway,
        because every backend is deterministic per (device, kernel,
        configuration) and :meth:`imap_sweeps` preserves submission
        order).
    mp_context:
        ``multiprocessing`` start method; None uses the platform default.
    registry:
        The :class:`~repro.obs.MetricsRegistry` worker-side metric deltas
        merge into (in submission order, so totals are deterministic).
        Defaults to a fresh private registry, exposed as :attr:`metrics`.

    This is not itself a measurement backend — it is the scheduler's
    executor, and it also accepts
    arbitrary picklable function calls via :meth:`apply_async` so CPU-bound
    follow-up stages (a campaign leg's model training) can ride the same
    workers while sweeps of other legs continue.
    """

    def __init__(
        self,
        backend_factory: Callable[[str], MeasurementBackend] = backend_for_device,
        workers: int | None = None,
        mp_context: str | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.backend_factory = backend_factory
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self._mp_context = mp_context
        self._pool: multiprocessing.pool.Pool | None = None
        #: Parent-side backend cache for the inline (workers=1) path.
        self._local_backends: dict[str, MeasurementBackend] = {}
        #: Where worker-side metric deltas land (merged in task order).
        self.metrics = registry if registry is not None else MetricsRegistry()

    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        if self._pool is None:
            ctx = multiprocessing.get_context(self._mp_context)
            self._pool = ctx.Pool(
                processes=self.workers,
                initializer=_init_device_worker,
                initargs=(self.backend_factory,),
            )
        return self._pool

    def imap_sweeps(
        self, tasks: Iterable[DeviceSweepTask]
    ) -> Iterator[DeviceSweepResult]:
        """Run sweep tasks on the pool, yielding results in task order."""
        tasks = list(tasks)
        if self.workers == 1 or len(tasks) <= 1:
            for task in tasks:
                # Scoped per task, not across yields: the consumer's frame
                # must never see the pool's registry as the default.
                with use_registry(self.metrics):
                    result = _run_sweep_task(
                        task, self._local_backends, self.backend_factory
                    )
                yield result
            return
        pool = self._ensure_pool()
        for result, snapshot in pool.imap(_device_sweep_task, tasks, chunksize=1):
            # Merged as yielded — i.e. in submission order — so the pooled
            # totals equal the serial (workers=1) totals bit for bit.
            self.metrics.merge(snapshot)
            yield result

    def apply_async(self, fn: Callable[..., Any], *args: Any):
        """Submit one picklable call; returns an ``AsyncResult``-alike.

        With a live pool the call queues behind in-flight sweep tasks and
        runs on whichever worker frees up; without one (``workers=1``) it
        runs synchronously here.  Either way, metrics the call records end
        up in :attr:`metrics` (pool-side deltas merge when the caller
        ``get``\\ s the result).
        """
        if self.workers == 1:
            with use_registry(self.metrics):
                return _ImmediateResult(fn(*args))
        async_result = self._ensure_pool().apply_async(_observed_call, (fn, *args))
        return _MergingResult(async_result, self.metrics)

    def close(self) -> None:
        """Tear the worker pool down (later submissions recreate it)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "DevicePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            self.close()
        except Exception:
            pass

