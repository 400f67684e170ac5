"""Async micro-batching prediction server over the compiled kernel.

Three moving parts:

* :class:`BatchServer` — the in-process engine: an asyncio queue in
  front of a batcher that flushes on **max batch size or max delay**
  (whichever first), a thread pool executing the compiled flat-array
  kernel, and per-request latency / per-batch throughput counters
  (:class:`ServingStats`, ``describe()`` in the run-stats house style).
* :func:`serve` — a framed-TCP network front end (the same
  length-prefixed CRC-guarded frames as the TCP engine's wire
  protocol), exposed as the ``python -m repro serve`` CLI.
* Hot-swap: each batch resolves the registry's *current* model once and
  holds a lease on it for the batch's duration — a swap lands between
  batches, atomically; no request ever observes a torn model, and the
  superseded version drains as its in-flight batches finish.
"""

from __future__ import annotations

import asyncio
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..runtime.framing import FrameAssembler, FrameError, encode_frame
from .registry import ModelRegistry, ServableModel

__all__ = ["BatchServer", "Prediction", "ServerConfig", "ServerStoppedError",
           "ServingStats", "serve"]


class ServerStoppedError(RuntimeError):
    """The server stopped before this request could be scheduled.

    Raised into the futures of requests still queued when
    :meth:`BatchServer.stop` drains the queue — without it those
    ``await predict(...)`` calls would block forever."""


@dataclass(frozen=True)
class ServerConfig:
    """Micro-batching knobs.

    Attributes
    ----------
    max_batch:
        Flush the pending queue once this many *records* are waiting.
    max_delay:
        Flush at most this many seconds after the first record of a
        batch arrived (the latency a lone request pays to give
        stragglers a chance to share its batch).
    workers:
        Kernel thread-pool width: batches execute concurrently on up to
        this many threads (numpy releases the GIL in the gathers).
    refresh_current:
        Re-resolve the registry's on-disk ``CURRENT`` pointer before
        each batch (one ``stat`` when nothing changed), so hot-swaps by
        *other processes* are picked up; in-process ``activate()`` is
        visible regardless.
    """

    max_batch: int = 256
    max_delay: float = 0.002
    workers: int = 1
    refresh_current: bool = True

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class Prediction:
    """One request's answer: labels (+ probabilities), and exactly which
    model version produced them."""

    labels: np.ndarray
    proba: np.ndarray | None
    version: int
    digest: str
    latency: float          # seconds, enqueue → resolution


class ServingStats:
    """Serving counters: request latency and batch throughput.

    Latencies and batch timings are kept in bounded deques (newest
    65 536), so a long-lived server's stats stay O(1) in memory while
    quantiles reflect recent traffic.
    """

    WINDOW = 65_536

    def __init__(self):
        self.n_requests = 0
        self.n_records = 0
        self.n_batches = 0
        self.n_swaps = 0
        self.n_errors = 0
        self._latencies: deque[float] = deque(maxlen=self.WINDOW)
        self._batches: deque[tuple[int, float]] = deque(maxlen=self.WINDOW)

    def add_request(self, n_records: int, latency: float) -> None:
        self.n_requests += 1
        self.n_records += n_records
        self._latencies.append(latency)

    def add_batch(self, n_records: int, seconds: float) -> None:
        self.n_batches += 1
        self._batches.append((n_records, seconds))

    def latency_quantile(self, q: float) -> float:
        """Request latency quantile in seconds (NaN with no traffic)."""
        if not self._latencies:
            return float("nan")
        return float(np.quantile(np.fromiter(self._latencies, dtype=float),
                                 q))

    def mean_batch_size(self) -> float:
        if not self._batches:
            return float("nan")
        return float(np.mean([n for n, _ in self._batches]))

    def records_per_second(self) -> float:
        """Kernel throughput (records/sec) over the bounded window of
        recorded batches — the newest :data:`WINDOW` (65 536) batches,
        i.e. recent traffic, not a lifetime total."""
        total_records = sum(n for n, _ in self._batches)
        total_seconds = sum(s for _, s in self._batches)
        if total_seconds <= 0:
            return float("nan")
        return total_records / total_seconds

    def snapshot(self) -> dict:
        """Machine-readable counters (the benchmark artifact rows)."""
        return {
            "n_requests": self.n_requests,
            "n_records": self.n_records,
            "n_batches": self.n_batches,
            "n_swaps": self.n_swaps,
            "n_errors": self.n_errors,
            "mean_batch_size": self.mean_batch_size(),
            "records_per_second": self.records_per_second(),
            "latency_p50_ms": self.latency_quantile(0.50) * 1e3,
            "latency_p99_ms": self.latency_quantile(0.99) * 1e3,
        }

    def describe(self) -> str:
        """Multi-line human-readable summary (run-stats house style)."""
        lines = [
            f"serving: requests={self.n_requests} records={self.n_records} "
            f"batches={self.n_batches} swaps={self.n_swaps} "
            f"errors={self.n_errors}",
            f"  batch size : mean {self.mean_batch_size():.1f} "
            f"records/batch",
            f"  latency    : p50 {self.latency_quantile(0.5) * 1e3:.3f} ms, "
            f"p99 {self.latency_quantile(0.99) * 1e3:.3f} ms",
            f"  throughput : {self.records_per_second():,.0f} records/s "
            f"(kernel batches)",
        ]
        return "\n".join(lines)


class _Request:
    __slots__ = ("rows", "proba", "future", "t_enqueue")

    def __init__(self, rows: np.ndarray, proba: bool,
                 future: asyncio.Future):
        self.rows = rows
        self.proba = proba
        self.future = future
        self.t_enqueue = perf_counter()


_STOP = object()


class BatchServer:
    """Micro-batching prediction engine (see module docstring).

    ``source`` is a :class:`ModelRegistry` (hot-swappable) or a fixed
    :class:`ServableModel`.
    """

    def __init__(self, source: ModelRegistry | ServableModel,
                 config: ServerConfig | None = None):
        if not isinstance(source, (ModelRegistry, ServableModel)):
            raise TypeError(
                f"source must be a ModelRegistry or ServableModel, "
                f"got {type(source).__name__}"
            )
        self._source = source
        self.config = config or ServerConfig()
        self.stats = ServingStats()
        self._queue: asyncio.Queue | None = None
        self._batcher: asyncio.Task | None = None
        self._inflight: set[asyncio.Task] = set()
        self._pool: ThreadPoolExecutor | None = None

    @property
    def running(self) -> bool:
        return self._batcher is not None

    async def start(self) -> None:
        if self.running:
            raise RuntimeError("server already started")
        self._queue = asyncio.Queue()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="serve-kernel",
        )
        self._batcher = asyncio.ensure_future(self._run_batcher())

    async def stop(self) -> None:
        """Drain in-flight batches, then shut the pool down.

        Requests still queued when the batcher exits — enqueued behind
        the stop sentinel, or left behind when the batcher saw the
        sentinel mid-accumulation — fail with
        :class:`ServerStoppedError` instead of hanging forever.
        """
        if not self.running:
            return
        queue = self._queue
        await queue.put(_STOP)
        await self._batcher
        self._batcher = None
        while not queue.empty():
            item = queue.get_nowait()
            if item is _STOP or item.future.done():
                continue
            self.stats.n_errors += 1
            item.future.set_exception(ServerStoppedError(
                "server stopped before this request was scheduled"))
        if self._inflight:
            await asyncio.gather(*self._inflight, return_exceptions=True)
        self._pool.shutdown(wait=True)
        self._pool = None
        self._queue = None

    async def predict(self, rows, proba: bool = False) -> Prediction:
        """Enqueue one request (``rows``: one record or an (n, width)
        batch) and await its prediction."""
        if not self.running:
            raise RuntimeError("server is not started")
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2:
            raise ValueError(
                f"rows must be one record or a 2-D batch, "
                f"got shape {rows.shape}"
            )
        # Validate the column width and values here, against the model
        # the batch would answer from, so a malformed request fails alone
        # instead of poisoning every co-batched request at the vstack.
        source = self._source
        try:
            model = source if isinstance(source, ServableModel) \
                else source.current()
        except Exception:
            model = None    # unresolvable registry: the batch surfaces it
        if model is not None:
            expected = len(model.compiled.schema)
            if rows.shape[1] != expected:
                raise ValueError(
                    f"expected {expected} attribute columns, "
                    f"got {rows.shape[1]}"
                )
        # NaN has no place in the split order (training refuses it too);
        # ±inf is an ordinary value
        nan_cols = np.flatnonzero(np.isnan(rows).any(axis=0))
        if len(nan_cols):
            col = int(nan_cols[0])
            name = f" ({model.compiled.schema[col].name!r})" \
                if model is not None else ""
            raise ValueError(f"NaN in attribute column {col}{name}")
        future = asyncio.get_running_loop().create_future()
        await self._queue.put(_Request(rows, proba, future))
        return await future

    # -- internals -----------------------------------------------------------

    def _current_model(self) -> ServableModel:
        if isinstance(self._source, ServableModel):
            return self._source
        if self.config.refresh_current and self._source.refresh():
            self.stats.n_swaps += 1
        return self._source.current()

    async def _run_batcher(self) -> None:
        queue = self._queue
        loop = asyncio.get_running_loop()
        carry: _Request | None = None
        while True:
            if carry is not None:
                first, carry = carry, None
            else:
                first = await queue.get()
                if first is _STOP:
                    return
            batch = [first]
            n = len(first.rows)
            deadline = loop.time() + self.config.max_delay
            stopping = False
            while n < self.config.max_batch:
                timeout = deadline - loop.time()
                if timeout <= 0:
                    break
                try:
                    item = await asyncio.wait_for(queue.get(), timeout)
                except asyncio.TimeoutError:
                    break
                if item is _STOP:
                    stopping = True
                    break
                if n + len(item.rows) > self.config.max_batch:
                    # Admitting this request would overshoot the record
                    # budget: flush what we have and carry it into the
                    # next batch (a lone oversized request still runs,
                    # alone, because the accumulation loop never starts
                    # for it).
                    carry = item
                    break
                batch.append(item)
                n += len(item.rows)
            task = asyncio.ensure_future(self._run_batch(batch))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
            if stopping:
                return

    async def _run_batch(self, batch: list[_Request]) -> None:
        loop = asyncio.get_running_loop()
        try:
            # One model resolution per batch, held under a lease: the
            # whole batch answers from exactly one version even if a
            # hot-swap lands mid-flight, and a superseded version
            # cannot be retired while this batch still routes on it.
            model = self._current_model().acquire()
        except Exception as exc:
            self.stats.n_errors += len(batch)
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(exc)
            return
        try:
            rows = np.vstack([req.rows for req in batch]) \
                if len(batch) > 1 else batch[0].rows
            want_proba = any(req.proba for req in batch)
            t0 = perf_counter()
            leaves = await loop.run_in_executor(
                self._pool, model.compiled.apply, rows)
            kernel_seconds = perf_counter() - t0
            labels = model.compiled.leaf_label[leaves]
            proba = model.compiled.leaf_proba[leaves] if want_proba else None
            self.stats.add_batch(len(rows), kernel_seconds)
            offset = 0
            t_done = perf_counter()
            for req in batch:
                k = len(req.rows)
                latency = t_done - req.t_enqueue
                self.stats.add_request(k, latency)
                if not req.future.done():
                    req.future.set_result(Prediction(
                        labels=labels[offset:offset + k],
                        proba=proba[offset:offset + k]
                        if req.proba and proba is not None else None,
                        version=model.version,
                        digest=model.digest,
                        latency=latency,
                    ))
                offset += k
        except Exception as exc:
            self.stats.n_errors += len(batch)
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(exc)
        finally:
            model.release()


# ----------------------------------------------------------------------
# framed-TCP network front end
# ----------------------------------------------------------------------


async def _handle_connection(server: BatchServer, stop: asyncio.Event,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    assembler = FrameAssembler()

    async def reply(obj) -> None:
        writer.write(encode_frame(obj))
        await writer.drain()

    try:
        while True:
            data = await reader.read(65_536)
            if not data:
                return
            try:
                frames = assembler.feed(data)
            except FrameError:
                return                      # corrupted peer: drop it
            for request, _nbytes in frames:
                try:
                    op = request.get("op") if isinstance(request, dict) \
                        else None
                    if op == "ping":
                        await reply({"ok": True, "op": "ping"})
                    elif op == "stats":
                        await reply({"ok": True,
                                     "stats": server.stats.snapshot(),
                                     "describe": server.stats.describe()})
                    elif op == "predict":
                        rows = np.asarray(request["rows"], dtype=np.float64)
                        result = await server.predict(
                            rows, proba=bool(request.get("proba", False)))
                        payload = {
                            "ok": True,
                            "labels": result.labels,
                            "version": result.version,
                            "digest": result.digest,
                        }
                        if result.proba is not None:
                            payload["proba"] = result.proba
                        await reply(payload)
                    elif op == "shutdown":
                        await reply({"ok": True, "op": "shutdown"})
                        stop.set()
                        return
                    else:
                        await reply({
                            "ok": False, "error": "BadRequest",
                            "message": f"unknown op {op!r}",
                        })
                except Exception as exc:
                    await reply({
                        "ok": False,
                        "error": type(exc).__name__,
                        "message": str(exc),
                    })
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve(registry: ModelRegistry | ServableModel,
                host: str = "127.0.0.1", port: int = 0,
                config: ServerConfig | None = None,
                port_file: str | os.PathLike | None = None,
                ready: asyncio.Event | None = None,
                announce=None) -> ServingStats:
    """Serve predictions over framed TCP until a ``shutdown`` op arrives.

    ``port=0`` binds an ephemeral port; the bound address is announced
    through ``announce(host, port)`` (default: print) and, when
    ``port_file`` is given, written there atomically — the
    script-friendly way to discover the port.  Returns the final
    serving stats.
    """
    batch_server = BatchServer(registry, config)
    await batch_server.start()
    stop = asyncio.Event()
    tcp_server = await asyncio.start_server(
        lambda r, w: _handle_connection(batch_server, stop, r, w),
        host, port,
    )
    bound_port = tcp_server.sockets[0].getsockname()[1]
    if announce is None:
        print(f"serving on {host}:{bound_port}", flush=True)
    else:
        announce(host, bound_port)
    if port_file is not None:
        from ..runtime.checkpoint import _atomic_write

        _atomic_write(os.fspath(port_file),
                      str(bound_port).encode("utf-8"))
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        tcp_server.close()
        await tcp_server.wait_closed()
        await batch_server.stop()
    return batch_server.stats
