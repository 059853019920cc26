"""Real hardware parallelism: parameter-server shards as OS processes.

Everything else in :mod:`repro.kunpeng` simulates the KunPeng cluster inside
one Python process, which is perfect for semantics but says nothing about
wall-clock time.  This module is the *process backend*: each parameter-server
shard runs in its own ``multiprocessing`` worker, and every hosted parameter
block lives in a ``multiprocessing.shared_memory`` segment that both the
driver and the owning shard process map as a numpy array.

The division of labour mirrors a real PS deployment:

* **writes** (``push``/``accumulate``/``reset``/model averaging) are enqueued
  on the owning shard's FIFO command pipe and applied *by the shard process*
  — concurrently across shards, and overlapping with whatever the driver
  computes next (the next minibatch's gradients, the next worker's
  histograms),
* **reads** (``pull``) are served *driver-side* straight from the shared
  block — zero copy over the wire — after a **fence**: the driver waits for
  the shard's acknowledgement that every previously enqueued write has been
  applied.  Because each shard applies its commands strictly in issue order,
  a fenced read observes exactly the state the inline backend would produce,
  so the two backends are bit-for-bit equivalent.

:class:`SharedBlockManager` owns the allocate/attach/unlink lifecycle of the
shared segments.  It unlinks everything it allocated on ``close()``, on
context-manager exit *and* from an ``atexit`` hook, so segments are reclaimed
even when a shard process dies mid-round (shard death surfaces as a
:class:`~repro.exceptions.ParameterServerError` on the next fence, never as
an orphaned ``/dev/shm`` file).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import re
import secrets
from types import TracebackType
from typing import Dict, List, Optional, Tuple

import numpy as np
from multiprocessing import shared_memory
from multiprocessing.connection import Connection
from multiprocessing.context import BaseContext
from numpy.typing import DTypeLike

from repro.exceptions import ParameterServerError
from repro.kunpeng.server import replica_mean, sgd_update, zero_fill
from repro.logging_utils import get_logger

logger = get_logger("kunpeng.parallel")

#: Shard-process command opcodes (element 0 of every pipe message).
_HOST = "host"
_DROP = "drop"
_PUSH = "push"
_RESET = "reset"
_AVERAGE = "average"
_FENCE = "fence"
_STOP = "stop"


def _sanitize_key(key: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", key)


class SharedBlockManager:
    """Owns named shared-memory numpy blocks: allocate, attach, unlink.

    One manager instance is the *owner* of every segment it allocates: only
    the owning process (guarded by pid) unlinks, and unlinking is guaranteed
    by ``close()``, by context-manager exit and by an ``atexit`` hook — so a
    crashed or killed attacher can never leave orphaned ``/dev/shm``
    segments behind.
    """

    def __init__(self, prefix: Optional[str] = None) -> None:
        #: Namespace of every segment this manager creates (unique per
        #: instance so concurrent clusters never collide).
        self.prefix = prefix or f"repro{os.getpid():x}x{secrets.token_hex(3)}"
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._views: Dict[str, np.ndarray] = {}
        self._owner_pid = os.getpid()
        self._closed = False
        atexit.register(self.close)

    # ------------------------------------------------------------------
    def segment_name(self, key: str) -> str:
        """The OS-level segment name backing block ``key``."""
        return f"{self.prefix}_{_sanitize_key(key)}"

    def allocate(
        self, key: str, shape: Tuple[int, ...], dtype: DTypeLike = np.float64
    ) -> np.ndarray:
        """Create a shared segment for ``key`` and return its numpy view."""
        if self._closed:
            raise ParameterServerError("SharedBlockManager is closed")
        if key in self._segments:
            raise ParameterServerError(f"shared block {key!r} already allocated")
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
        segment = shared_memory.SharedMemory(
            name=self.segment_name(key), create=True, size=nbytes
        )
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
        self._segments[key] = segment
        self._views[key] = view
        return view

    @staticmethod
    def attach(
        segment_name: str, shape: Tuple[int, ...], dtype: DTypeLike = np.float64
    ) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
        """Map an existing segment (owned elsewhere) as a numpy view.

        Shard workers are forked, so they share the driver's resource
        tracker; their attach-register is a set-level no-op there and the
        owner's unlink performs the single deregistration.
        """
        segment = shared_memory.SharedMemory(name=segment_name)
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
        return segment, view

    def view(self, key: str) -> np.ndarray:
        """The owner's numpy view of block ``key``."""
        try:
            return self._views[key]
        except KeyError as exc:
            raise ParameterServerError(f"unknown shared block {key!r}") from exc

    def keys(self) -> List[str]:
        """Keys of every block currently allocated by this manager."""
        return list(self._segments)

    # ------------------------------------------------------------------
    def release(self, key: str) -> None:
        """Unlink the segment behind block ``key`` (owner process only)."""
        self.view(key)  # rejects an unknown key
        del self._views[key]
        segment = self._segments.pop(key)
        try:
            segment.close()
        except BufferError:  # a live numpy view still maps the buffer;
            pass  # unlink below still reclaims the segment at process exit
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass

    def close(self) -> None:
        """Unlink every owned segment (idempotent, owner-process only)."""
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        atexit.unregister(self.close)
        for key in list(self._segments):
            self.release(key)

    def __enter__(self) -> "SharedBlockManager":
        """Enter a ``with`` block that unlinks all segments on exit."""
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        """Release every owned segment when the ``with`` block ends."""
        self.close()


# ---------------------------------------------------------------------------
# Shard worker process
# ---------------------------------------------------------------------------


def _shard_worker_main(conn: Connection) -> None:
    """Command loop of one shard process.

    Commands arrive on a FIFO pipe and are applied in issue order, which is
    what makes the process backend bit-exact with the inline one.  A failed
    command poisons the shard: further mutations are skipped and the latched
    error is reported on the next fence/stop, keeping the one-reply-per-fence
    protocol deterministic.
    """
    blocks: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray, int]] = {}
    error: Optional[str] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        op = message[0]
        if op == _FENCE or op == _STOP:
            try:
                conn.send(("ok", None) if error is None else ("error", error))
            except (BrokenPipeError, OSError):
                break
            if op == _STOP:
                break
            continue
        if error is not None:
            continue
        try:
            if op == _HOST:
                _, key, segment_name, shape, dtype_str, row_start = message
                segment, view = SharedBlockManager.attach(segment_name, shape, dtype_str)
                blocks[key] = (segment, view, int(row_start))
            elif op == _DROP:
                _unmap(blocks, message[1])
            elif op == _PUSH:
                _, key, rows, gradients, learning_rate = message
                _, view, row_start = blocks[key]
                sgd_update(view, rows - row_start, gradients, learning_rate)
            elif op == _RESET:
                zero_fill(blocks[message[1]][1])
            elif op == _AVERAGE:
                _, key, stacked = message
                _, view, _ = blocks[key]
                view[:] = replica_mean(stacked)
            else:
                raise ParameterServerError(f"unknown shard opcode {op!r}")
        except Exception as exc:  # latched and surfaced on the next fence
            error = f"{type(exc).__name__}: {exc}"
    for key in list(blocks):
        _unmap(blocks, key)
    conn.close()


def _unmap(
    blocks: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray, int]], key: str
) -> None:
    """Close a shard process's mapping of attached block ``key``."""
    segment, view, _ = blocks.pop(key)
    del view
    try:
        segment.close()
    except BufferError:  # pragma: no cover - view lifetime race
        pass


class _ShardHandle:
    """Driver-side endpoint of one shard process: pipe, liveness, fencing."""

    def __init__(self, shard_index: int, context: BaseContext) -> None:
        self.shard_index = shard_index
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_shard_worker_main,
            args=(child_conn,),
            daemon=True,
            name=f"ps-shard-{shard_index}",
        )
        self.process.start()
        child_conn.close()
        #: Writes enqueued since the last acknowledged fence.
        self.dirty = False

    def send(self, message: tuple, *, mutates: bool = True) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise ParameterServerError(
                f"shard process {self.shard_index} is not accepting commands ({exc})"
            ) from exc
        if mutates:
            self.dirty = True

    def fence(self) -> None:
        """Wait until every enqueued write has been applied by the shard."""
        if not self.dirty:
            return
        self.send((_FENCE,), mutates=False)
        try:
            status, detail = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise ParameterServerError(
                f"shard process {self.shard_index} died mid-round ({exc})"
            ) from exc
        self.dirty = False
        if status != "ok":
            raise ParameterServerError(
                f"shard process {self.shard_index} failed: {detail}"
            )

    def stop(self, timeout: float = 5.0) -> None:
        if self.process.is_alive():
            try:
                self.conn.send((_STOP,))
            except (BrokenPipeError, OSError):
                pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - unresponsive shard
            self.process.kill()
            self.process.join(1.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class ProcessShardRuntime:
    """Hosts parameter-server shards in real OS processes over shared memory.

    The runtime owns one :class:`_ShardHandle` per shard (started lazily on
    first hosting), one :class:`SharedBlockManager` for every hosted block,
    and the fence bookkeeping that keeps driver-side reads exact.  It is the
    engine behind ``KunPengCluster(backend="process")``; training drivers
    never talk to it directly.
    """

    def __init__(self, num_shards: int, *, start_method: Optional[str] = None) -> None:
        if num_shards < 1:
            raise ParameterServerError("process runtime needs at least one shard")
        self.num_shards = num_shards
        self._context = multiprocessing.get_context(start_method)
        self.blocks = SharedBlockManager()
        self._handles: List[Optional[_ShardHandle]] = [None] * num_shards
        self._row_starts: Dict[Tuple[str, int], int] = {}
        self._stopped = False
        atexit.register(self.stop)

    # ------------------------------------------------------------------
    @staticmethod
    def _key(name: str, shard_index: int) -> str:
        return f"{name}@{shard_index}"

    def _handle(self, shard_index: int) -> _ShardHandle:
        if self._stopped:
            raise ParameterServerError("process runtime already stopped")
        handle = self._handles[shard_index]
        if handle is None:
            handle = _ShardHandle(shard_index, self._context)
            self._handles[shard_index] = handle
        return handle

    # ------------------------------------------------------------------
    def host(
        self, shard_index: int, name: str, row_start: int, values: np.ndarray
    ) -> None:
        """Place a row-range shard of parameter ``name`` on ``shard_index``.

        The block is allocated in shared memory, initialised driver-side, and
        the shard process attaches to it by segment name.
        """
        key = self._key(name, shard_index)
        view = self.blocks.allocate(key, values.shape, values.dtype)
        view[:] = values
        self._row_starts[(name, shard_index)] = int(row_start)
        self._handle(shard_index).send(
            (
                _HOST,
                key,
                self.blocks.segment_name(key),
                values.shape,
                values.dtype.str,
                int(row_start),
            )
        )

    def drop(self, shard_index: int, name: str) -> None:
        """Retire a hosted block: the shard unmaps it, then the driver unlinks it.

        Segment names are reused per ``(parameter, shard)`` and a shard
        attaches *by name*, so the unlink waits (one fence per refit per
        shard) until the shard has worked through its queue up to and
        including this ``_DROP``: a shard still behind on the block's own
        ``_HOST`` would otherwise map the next generation's segment.
        """
        key = self._key(name, shard_index)
        handle = self._handle(shard_index)
        del self._row_starts[(name, shard_index)]
        try:
            handle.send((_DROP, key))
            handle.fence()
        finally:  # a dead shard maps nothing; the segment is still reclaimed
            self.blocks.release(key)

    def push(
        self,
        shard_index: int,
        name: str,
        rows: np.ndarray,
        gradients: np.ndarray,
        *,
        learning_rate: float = 1.0,
    ) -> None:
        """Enqueue ``values[rows] -= learning_rate * gradients`` on the shard.

        Returns immediately; the shard applies the update concurrently with
        whatever the driver does next (the pipelining that real hardware
        parallelism buys).  ``rows`` are global row indices.
        """
        self._handle(shard_index).send(
            (_PUSH, self._key(name, shard_index), rows, gradients, float(learning_rate))
        )

    def reset(self, shard_index: int, name: str) -> None:
        """Enqueue a shard-local zero-fill of the block (no bulk traffic)."""
        self._handle(shard_index).send((_RESET, self._key(name, shard_index)))

    def average(self, shard_index: int, name: str, stacked: np.ndarray) -> None:
        """Enqueue model averaging: the block becomes ``stacked.mean(axis=0)``."""
        self._handle(shard_index).send(
            (_AVERAGE, self._key(name, shard_index), stacked)
        )

    def fence(self, shard_index: int) -> None:
        """Block until shard ``shard_index`` has applied its enqueued writes."""
        handle = self._handles[shard_index]
        if handle is not None:
            handle.fence()

    def read(
        self, shard_index: int, name: str, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Fenced driver-side read of (a row subset of) a hosted block.

        ``rows`` are global indices; ``None`` copies the whole shard.  The
        read happens on the driver's own mapping of the shared segment, so no
        data crosses the pipe — only the fence acknowledgement does.
        """
        self.fence(shard_index)
        view = self.blocks.view(self._key(name, shard_index))
        if rows is None:
            return view.copy()
        return view[rows - self._row_starts[(name, shard_index)]]

    # ------------------------------------------------------------------
    def alive_shards(self) -> List[int]:
        """Indices of started shard processes that are currently alive."""
        return [
            index
            for index, handle in enumerate(self._handles)
            if handle is not None and handle.process.is_alive()
        ]

    def kill_shard(self, shard_index: int) -> None:
        """SIGKILL a shard process (failure-injection/test helper).

        Subsequent operations against the dead shard raise
        :class:`~repro.exceptions.ParameterServerError`; the shared segments
        stay owned by the driver and are reclaimed by :meth:`stop`.
        """
        handle = self._handles[shard_index]
        if handle is not None and handle.process.is_alive():
            handle.process.kill()
            handle.process.join(5.0)

    def stop(self) -> None:
        """Stop every shard process and unlink all shared segments (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        atexit.unregister(self.stop)
        for handle in self._handles:
            if handle is not None:
                handle.stop()
        self._handles = [None] * self.num_shards
        self._row_starts.clear()
        self.blocks.close()

    def __enter__(self) -> "ProcessShardRuntime":
        """Enter a ``with`` block that stops the shard fleet on exit."""
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        """Stop every shard and unlink shared memory when the block ends."""
        self.stop()
