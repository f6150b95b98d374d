"""Async micro-batching HTTP front end for the serving engine.

Two pieces, stdlib only:

* :class:`MicroBatcher` — a **bounded** admission queue plus one worker
  thread.  Concurrent single-user requests are coalesced into blocked
  :meth:`~repro.serve.ranker.BatchRanker.topk` calls: the worker blocks
  on the first request, then drains whatever else arrived within a
  ``max_delay_ms`` window (up to ``max_batch``), groups compatible
  requests (same ``k`` and mode), and answers each group with one
  batched matmul instead of per-request GEMV calls.  Batching changes
  *when* rows are computed, never *what*: each user's row of a blocked
  ``topk`` is bit-identical to their single-user call on the same
  snapshot.
* :class:`ServingDaemon` — a ``ThreadingHTTPServer`` exposing JSON
  endpoints (``/topk``, ``/cold``, ``/ingest``, ``/swap``, ``/stats``,
  ``/healthz``) on top of a :class:`repro.serve.snapshot.SnapshotManager`.
  Every ranked response carries the snapshot version it was computed on,
  so clients can observe hot-swaps but never a torn mix of versions.

Overload and shutdown are explicit states, not accidents
(``docs/RELIABILITY.md``):

* when the admission queue is full, :meth:`MicroBatcher.submit` raises
  :class:`LoadShedError` and the HTTP layer answers **503** with a
  ``Retry-After`` header — the backlog is bounded by construction;
* with a per-request ``deadline_ms``, a request that waited in the
  queue past its deadline is answered **504**
  (:class:`DeadlineExceededError`) instead of being computed late for
  nobody;
* :meth:`ServingDaemon.shutdown` drains first: new work is rejected
  (503, and ``/healthz`` reports ``draining``), in-flight batches
  finish inside a grace period, then the server closes;
* every error response is structured JSON
  (``{"error": ..., "snapshot_version": ...}``) — the stdlib HTML error
  page is overridden away;
* POST bodies are validated before they are read: a ``Content-Length``
  that is not ASCII digits only is answered **400**, one above
  :data:`MAX_BODY_BYTES` **413**, and the connection is closed;
* a ``k`` outside ``[1, MAX_K]`` on ``/topk`` or ``/cold`` is answered
  **400**;
* a POST body that is not a JSON object, ``/ingest`` features that are
  not finite 2-D ``float32`` rows matching the store, and a ``/swap``
  ``mmap`` that is not a JSON boolean or a path that is not a store
  are answered **400** (a missing store **404**), and nothing is
  published; injected faults and other server errors stay **500**;
* ``/swap`` loads only stores under the daemon's ``swap_root`` (a
  deployment setting): the requested path is resolved, symlinks
  followed, and anything outside the root — or any path at all when no
  root is configured — is answered **403**.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import numpy as np

from ..reliability import fire
from .snapshot import SnapshotManager

#: largest POST body the daemon reads; a longer declared body is
#: answered 413 unread (ingest payloads are a few feature rows)
MAX_BODY_BYTES = 16 * 1024 * 1024

#: largest ``k`` a ranked query may ask for; larger (or non-positive)
#: values are answered 400 instead of an empty or catalog-sized list
MAX_K = 1000


class LoadShedError(RuntimeError):
    """The admission queue is full (or draining); retry later.

    Mapped to HTTP 503 + ``Retry-After`` by the daemon. ``reason`` is
    ``"queue_full"`` or ``"draining"``.
    """

    def __init__(self, message: str, reason: str = "queue_full",
                 retry_after_s: float = 1.0):
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s


class DeadlineExceededError(TimeoutError):
    """The request's deadline passed before it was served (HTTP 504)."""


@dataclass
class _Request:
    """One admitted single-user ranking request."""

    user: int
    k: int
    mode: str                     # "all" or "cold"
    deadline: float | None = None  # monotonic time; None = no deadline
    future: Future = field(default_factory=Future)

    def expired(self) -> bool:
        return self.deadline is not None and \
            time.monotonic() > self.deadline


class MicroBatcher:
    """Coalesces concurrent single-user topk requests into blocked calls.

    Parameters
    ----------
    manager:
        The snapshot manager queries are answered from.  Each drained
        batch is served off one ``manager.current`` read, so every
        request in a batch sees the same snapshot version.
    max_batch:
        Upper bound on requests coalesced into one blocked call.
    max_delay_ms:
        How long the worker waits for stragglers after the first
        request of a batch arrives.  The default is 0: under closed-loop
        load batches form from the backlog that accumulates while the
        previous batch computes, so any positive window only adds
        latency; a positive bound helps only when arrivals are sporadic
        and a caller wants bigger batches at a latency price.
    max_queue:
        Admission-queue bound.  A submit against a full queue raises
        :class:`LoadShedError` immediately — overload degrades into
        explicit 503s, never into an unbounded backlog.
    deadline_ms:
        Per-request deadline.  A request still queued when its deadline
        passes is failed with :class:`DeadlineExceededError` rather than
        computed late (``None`` disables deadlines).
    """

    def __init__(self, manager: SnapshotManager, *, max_batch: int = 64,
                 max_delay_ms: float = 0.0, max_queue: int = 1024,
                 deadline_ms: float | None = None):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")
        if max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive (or None)")
        self.manager = manager
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms)
        self.max_queue = int(max_queue)
        self.deadline_ms = deadline_ms
        self._queue: queue.Queue = queue.Queue(maxsize=self.max_queue)
        self._stats_lock = threading.Lock()
        self.requests = 0
        self.batches = 0
        self.batched_requests = 0
        self.max_observed_batch = 0
        self.shed = 0
        self.expired = 0
        self._outstanding = 0
        self._draining = threading.Event()
        self._worker = threading.Thread(target=self._run,
                                        name="repro-microbatch",
                                        daemon=True)
        self._stop = threading.Event()
        self._worker.start()

    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def submit(self, user: int, k: int, mode: str = "all") -> Future:
        """Enqueue one request; the future resolves to a response dict.

        Raises :class:`LoadShedError` when the admission queue is full
        or the batcher is draining — never blocks the caller on a
        backlog.
        """
        if mode not in ("all", "cold"):
            raise ValueError(f"unknown mode {mode!r}")
        if self._draining.is_set():
            with self._stats_lock:
                self.shed += 1
            raise LoadShedError("shutting down: not admitting requests",
                               reason="draining")
        deadline = None
        if self.deadline_ms is not None:
            deadline = time.monotonic() + self.deadline_ms / 1000.0
        request = _Request(user=int(user), k=int(k), mode=mode,
                           deadline=deadline)
        with self._stats_lock:
            self._outstanding += 1
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            with self._stats_lock:
                self._outstanding -= 1
                self.shed += 1
            raise LoadShedError(
                f"admission queue full ({self.max_queue} pending)",
                reason="queue_full") from None
        return request.future

    def drain(self, grace_s: float = 5.0) -> bool:
        """Stop admitting new requests and wait (up to ``grace_s``) for
        the queued + in-flight ones to finish; True when fully drained."""
        self._draining.set()
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            with self._stats_lock:
                if self._outstanding == 0:
                    return True
            time.sleep(0.005)
        with self._stats_lock:
            return self._outstanding == 0

    def stop(self) -> None:
        self._draining.set()
        self._stop.set()
        self._queue.put(None)       # wake the worker
        self._worker.join(timeout=5)

    def stats(self) -> dict:
        with self._stats_lock:
            return {
                "requests": self.requests,
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "max_batch_observed": self.max_observed_batch,
                "mean_batch_size": (self.batched_requests / self.batches
                                    if self.batches else 0.0),
                "shed": self.shed,
                "expired": self.expired,
                "queue_depth": self._queue.qsize(),
                "outstanding": self._outstanding,
                "draining": self._draining.is_set(),
            }

    # ------------------------------------------------------------------
    def _resolve(self, request: _Request, payload: dict | None = None,
                 exc: BaseException | None = None) -> None:
        """Settle one request's future exactly once (drain() watches the
        outstanding count this maintains)."""
        if request.future.done():
            return
        if exc is not None:
            request.future.set_exception(exc)
        else:
            request.future.set_result(payload)
        with self._stats_lock:
            self._outstanding -= 1

    def _drain_batch(self) -> list:
        """Block for the first request, then collect stragglers until
        the delay window closes or the batch is full."""
        first = self._queue.get()
        if first is None:
            return []
        batch = [first]
        deadline = time.monotonic() + self.max_delay_ms / 1000.0
        while len(batch) < self.max_batch:
            remaining = deadline - time.monotonic()
            try:
                if remaining > 0:
                    item = self._queue.get(timeout=remaining)
                else:
                    # Window closed: still absorb any backlog that is
                    # already queued, without waiting further.
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is None:
                break
            batch.append(item)
        return batch

    def _run(self) -> None:
        while not self._stop.is_set():
            batch = self._drain_batch()
            if not batch:
                continue
            try:
                self._serve_batch(batch)
            except BaseException as exc:  # propagate to the waiters
                for request in batch:
                    self._resolve(request, exc=exc)

    def _serve_batch(self, batch: list) -> None:
        # Requests whose deadline passed while queued are failed, not
        # computed: under overload the work a shed deadline saves is
        # what lets the survivors meet theirs.
        live = []
        for request in batch:
            if request.expired():
                with self._stats_lock:
                    self.expired += 1
                self._resolve(request, exc=DeadlineExceededError(
                    f"deadline of {self.deadline_ms}ms passed while "
                    "queued"))
            else:
                live.append(request)
        if not live:
            return
        # Injection seam: a scripted fault here fails (or delays) the
        # whole batch computation — the chaos suite drives it to prove
        # clients see clean errors, never torn responses.
        fire("daemon.batch")
        snapshot = self.manager.current
        groups: dict = {}
        for request in live:
            groups.setdefault((request.k, request.mode),
                              []).append(request)
        with self._stats_lock:
            self.requests += len(live)
            self.batches += len(groups)
            self.batched_requests += len(live)
            self.max_observed_batch = max(self.max_observed_batch,
                                          len(live))
        for (k, mode), requests in groups.items():
            users = np.array([r.user for r in requests], dtype=np.int64)
            candidates = (snapshot.store.cold_items() if mode == "cold"
                          else None)
            try:
                result = snapshot.ranker.topk(users, k,
                                              candidates=candidates)
            except BaseException as exc:
                for request in requests:
                    self._resolve(request, exc=exc)
                continue
            for row, request in enumerate(requests):
                self._resolve(request, payload={
                    "user": request.user,
                    "k": k,
                    "mode": mode,
                    "snapshot_version": snapshot.version,
                    "items": result.items[row].tolist(),
                    "scores": result.scores[row].tolist(),
                })


class _Handler(BaseHTTPRequestHandler):
    """JSON endpoint dispatch; the daemon instance rides on the server."""

    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle on, the second
    # waits for the client's delayed ACK (~40 ms per keep-alive request).
    disable_nagle_algorithm = True

    # quiet: pytest/CI logs should not fill with per-request lines
    def log_message(self, format, *args):  # noqa: A002
        pass

    @property
    def daemon(self) -> "ServingDaemon":
        return self.server.serving_daemon  # type: ignore[attr-defined]

    def _reply(self, payload: dict, status: int = 200,
               headers: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, message: str, status: int = 400,
               headers: dict | None = None) -> None:
        self._reply({"error": message,
                     "snapshot_version": self.daemon.manager.version},
                    status=status, headers=headers)

    def send_error(self, code, message=None, explain=None):  # noqa: A002
        """Structured JSON even for errors the stdlib machinery raises
        itself (bad request line, unsupported method): no HTML pages."""
        try:
            self._error(message or self.responses.get(
                code, ("error",))[0], status=code)
        except OSError:
            pass  # client already gone

    def _dispatch(self, handler, *args) -> None:
        """Run one endpoint handler, mapping degradation states to their
        HTTP codes (503 shed / 504 deadline / 500 fallback)."""
        try:
            handler(*args)
        except LoadShedError as exc:
            self._error(str(exc), status=503, headers={
                "Retry-After": str(max(int(exc.retry_after_s), 1))})
        except (DeadlineExceededError, FutureTimeoutError) as exc:
            self._error(str(exc) or "request deadline exceeded",
                        status=504)
        except Exception as exc:
            self._error(str(exc), status=500)

    def do_GET(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        if parsed.path in ("/topk", "/cold"):
            self._dispatch(self._handle_topk, query,
                           parsed.path == "/cold")
        elif parsed.path == "/stats":
            self._dispatch(lambda: self._reply(self.daemon.stats()))
        elif parsed.path == "/healthz":
            self._dispatch(self._handle_healthz)
        else:
            self._error(f"unknown endpoint {parsed.path}", status=404)

    def _body_length(self) -> int | None:
        """The declared body length, or ``None`` once the request was
        answered 400 (not ASCII digits only, as HTTP's ``1*DIGIT``) or
        413 (above :data:`MAX_BODY_BYTES`). A rejected body stays unread,
        so the connection closes instead of parsing it as the next
        request."""
        declared = self.headers.get("Content-Length", "0")
        close = {"Connection": "close"}
        if not (declared.isascii() and declared.isdigit()):
            self._error("Content-Length must be a non-negative integer, "
                        f"not {declared!r}", headers=close)
            return None
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self._error(f"request body of {length} bytes exceeds the "
                        f"{MAX_BODY_BYTES}-byte limit", status=413,
                        headers=close)
            return None
        return length

    def do_POST(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        length = self._body_length()
        if length is None:
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except json.JSONDecodeError:
            return self._error("request body is not valid JSON")
        if not isinstance(payload, dict):
            return self._error("request body must be a JSON object")
        if parsed.path == "/ingest":
            self._dispatch(self._handle_ingest, payload)
        elif parsed.path == "/swap":
            self._dispatch(self._handle_swap, payload)
        else:
            self._error(f"unknown endpoint {parsed.path}", status=404)

    # ------------------------------------------------------------------
    def _handle_healthz(self) -> None:
        if self.daemon.draining:
            return self._reply(
                {"status": "draining",
                 "snapshot_version": self.daemon.manager.version},
                status=503, headers={"Retry-After": "1"})
        self._reply({"status": "ok",
                     "snapshot_version": self.daemon.manager.version})

    def _handle_topk(self, query: dict, cold: bool) -> None:
        if "user" not in query:
            return self._error("missing required parameter 'user'")
        try:
            user = int(query["user"][0])
            k = int(query.get("k", ["20"])[0])
        except ValueError:
            return self._error("'user' and 'k' must be integers")
        if not 1 <= k <= MAX_K:
            return self._error(f"k {k} out of range [1, {MAX_K}]")
        snapshot = self.daemon.manager.current
        if not 0 <= user < snapshot.store.num_users:
            return self._error(f"user {user} out of range "
                               f"[0, {snapshot.store.num_users})")
        batcher = self.daemon.batcher
        future = batcher.submit(user, k, mode="cold" if cold else "all")
        timeout = 30.0
        if batcher.deadline_ms is not None:
            # The worker enforces the deadline; the extra second covers
            # scheduling slop before the failure is propagated.
            timeout = batcher.deadline_ms / 1000.0 + 1.0
        self._reply(future.result(timeout=timeout))

    def _handle_ingest(self, payload: dict) -> None:
        if self.daemon.draining:
            raise LoadShedError("shutting down: not admitting requests",
                               reason="draining")
        features = payload.get("features")
        if not isinstance(features, dict) or not features:
            return self._error(
                "body must be {'features': {modality: [[...], ...]}}")
        try:
            arrays = {modality: np.asarray(values, dtype=np.float32)
                      for modality, values in features.items()}
        except (TypeError, ValueError, OverflowError) as exc:
            return self._error(f"features must be numeric rows ({exc})")
        try:
            new_ids, snapshot = self.daemon.manager.ingest(arrays)
        except ValueError as exc:  # ingest_items' checks; nothing published
            return self._error(str(exc))
        self._reply({"ingested_items": new_ids.tolist(),
                     "num_items": snapshot.store.num_items,
                     "snapshot_version": snapshot.version})

    def _handle_swap(self, payload: dict) -> None:
        if self.daemon.draining:
            raise LoadShedError("shutting down: not admitting requests",
                               reason="draining")
        path = payload.get("path")
        mmap = payload.get("mmap", False)
        if not path or not isinstance(path, str) or \
                not isinstance(mmap, bool):
            return self._error("body must be {'path': str, 'mmap': bool}")
        target = self.daemon.swap_target(path)
        if target is None:
            return self._error(f"swap path {path!r} is outside the "
                               "configured store root", status=403)
        try:
            snapshot = self.daemon.manager.swap_from_path(target, mmap=mmap)
        except FileNotFoundError:
            return self._error(f"no store at {path!r}", status=404)
        except ValueError as exc:  # CorruptStoreError, v1 with mmap
            return self._error(str(exc))
        self._reply({"snapshot_version": snapshot.version,
                     "source": snapshot.source,
                     "num_items": snapshot.store.num_items})


class ServingDaemon:
    """Threaded HTTP server wrapping a snapshot manager + micro-batcher.

    ``port=0`` binds an ephemeral port (the bound port is on
    :attr:`port` after :meth:`start`), which is what the tests and the
    CI smoke use. :meth:`shutdown` is graceful by default: drain, then
    close (``shutdown_grace_s`` bounds the wait). ``swap_root`` is the
    directory ``POST /swap`` may load stores from; ``None`` disables
    ``/swap``.
    """

    def __init__(self, manager: SnapshotManager, *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_batch: int = 64, max_delay_ms: float = 0.0,
                 max_queue: int = 1024,
                 deadline_ms: float | None = None,
                 shutdown_grace_s: float = 5.0,
                 swap_root: str | Path | None = None):
        self.manager = manager
        self.swap_root = (None if swap_root is None
                          else Path(swap_root).resolve())
        self.batcher = MicroBatcher(
            manager, max_batch=max_batch, max_delay_ms=max_delay_ms,
            max_queue=max_queue, deadline_ms=deadline_ms)
        self.shutdown_grace_s = float(shutdown_grace_s)
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.serving_daemon = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self.batcher.draining

    def swap_target(self, path: str) -> Path | None:
        """The store path ``POST /swap`` may load for ``path``: resolved
        with symlinks followed, or ``None`` unless it lies under
        :attr:`swap_root`."""
        if self.swap_root is None:
            return None
        resolved = Path(path).resolve()
        if not resolved.is_relative_to(self.swap_root):
            return None
        return resolved

    def stats(self) -> dict:
        return {"snapshot_version": self.manager.version,
                "store": self.manager.current.store.describe(),
                "batcher": self.batcher.stats()}

    def start(self) -> "ServingDaemon":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-daemon", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant used by ``repro serve --daemon``."""
        self._server.serve_forever()

    def shutdown(self, grace_s: float | None = None) -> None:
        """Graceful stop: reject new work (503 / ``draining`` health),
        let in-flight batches finish within the grace period, then close
        the listener and the worker."""
        grace = self.shutdown_grace_s if grace_s is None else grace_s
        self.batcher.drain(grace_s=grace)
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.batcher.stop()

    def __enter__(self) -> "ServingDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
