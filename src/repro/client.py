"""Blocking client for the TCP tuning service.

:class:`TuningClient` speaks the JSON-lines protocol of
:class:`repro.service.SessionRegistry` over one TCP connection: one request
line out, one response line back, strictly in order.  A client object is
safe to share between threads (an internal lock pairs each request with its
response), but the intended pattern is one client per evaluation harness,
each bound to its own named session::

    with TuningClient(port=7730, session="gpu") as client:
        client.start(benchmark="hpvm_bfs", tuner="BaCO", budget=20, seed=0)
        history = client.drive(benchmark.evaluator)

:meth:`TuningClient.drive` mirrors :func:`repro.core.session.drive`: ask a
batch, evaluate locally, tell the results back in suggestion-id order —
which is exactly what makes a TCP-driven trace bit-identical to the same
seed driven in-process.

Errors: every transport method returns the decoded response dict;
:meth:`request` additionally raises :class:`ServiceError` when the server
answers ``ok: false``, carrying the full response in ``.response``.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from typing import Any, Callable, Mapping

from .core.result import ObjectiveResult, configuration_from_json
from .service import _reject_constant, wire_decode

__all__ = ["ServiceError", "TuningClient"]


class ServiceError(RuntimeError):
    """The server answered ``ok: false``; the response dict is attached."""

    def __init__(self, response: Mapping[str, Any]) -> None:
        super().__init__(str(response.get("error", "request failed")))
        self.response = dict(response)


def _decode_response(raw: bytes) -> dict[str, Any]:
    """One response line as the dict it encodes: ``wire_decode(json.loads(raw))``.

    Only a line holding a ``"$float"`` token can hold a marker, so any other
    is returned as parsed, without the decoding walk.
    """
    try:
        # the server is strict (allow_nan=False), so a bare NaN/Infinity
        # token can only mean a corrupt or non-conforming peer
        response = json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:
        raise ConnectionError(f"malformed server response: {raw!r}") from exc
    if not isinstance(response, dict):
        raise ConnectionError(f"malformed server response: {raw!r}")
    return wire_decode(response) if b'"$float"' in raw else response


class TuningClient:
    """A line-framed blocking connection to a :class:`TuningServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7730,
        *,
        session: str | None = None,
        timeout: float | None = 60.0,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        self._broken = False
        #: default ``session`` name attached to every request (None: server default)
        self.session = session

    # ------------------------------------------------------------------
    def call(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one request, return the decoded response (no ok-check)."""
        request: dict[str, Any] = {"op": op, **fields}
        if self.session is not None:
            request.setdefault("session", self.session)
        payload = json.dumps(request, allow_nan=False).encode("utf-8")
        with self._lock:
            if self._broken:
                raise ConnectionError(
                    "connection is desynchronized after an earlier "
                    "timeout/transport error — open a new TuningClient"
                )
            try:
                self._file.write(payload + b"\n")
                self._file.flush()
                raw = self._file.readline()
            except OSError as exc:  # includes socket.timeout
                # a request may be in flight with its response unread: any
                # further call would read the *previous* op's response, so
                # poison the connection instead of silently desyncing
                self._broken = True
                raise ConnectionError(
                    f"transport error mid-request ({exc}); the connection "
                    "can no longer pair requests with responses"
                ) from exc
        if not raw:
            raise ConnectionError("server closed the connection")
        return _decode_response(raw)

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """Like :meth:`call` but raises :class:`ServiceError` on ``ok: false``."""
        response = self.call(op, **fields)
        if not response.get("ok"):
            raise ServiceError(response)
        return response

    # ------------------------------------------------------------------
    # op conveniences
    # ------------------------------------------------------------------

    def start(self, benchmark: str, budget: int, **fields: Any) -> dict[str, Any]:
        return self.request("start", benchmark=benchmark, budget=budget, **fields)

    def ask(self, n: int = 1) -> dict[str, Any]:
        return self.request("ask", n=n)

    def tell(
        self,
        suggestion_id: int,
        value: float | None = None,
        *,
        feasible: bool = True,
        elapsed: float = 0.0,
    ) -> dict[str, Any]:
        fields: dict[str, Any] = {"id": suggestion_id, "feasible": feasible,
                                  "elapsed": elapsed}
        # non-finite floats have no strict-JSON representation, but they must
        # still reach the server: as strings float() round-trips them exactly,
        # so an infeasible -inf/nan is recorded verbatim and a feasible inf
        # draws the server's pointed non-finite-value error instead of a
        # misleading missing-value one
        if value is not None:
            fields["value"] = value if math.isfinite(value) else repr(value)
        return self.request("tell", **fields)

    def status(self) -> dict[str, Any]:
        return self.request("status")

    def snapshot(self, path: str | None = None) -> dict[str, Any]:
        return self.request("snapshot", **({} if path is None else {"path": path}))

    def restore(self, *, path: str | None = None,
                payload: Mapping[str, Any] | None = None, **fields: Any) -> dict[str, Any]:
        extra: dict[str, Any] = dict(fields)
        if path is not None:
            extra["path"] = path
        if payload is not None:
            extra["payload"] = payload
        return self.request("restore", **extra)

    def close_session(self) -> dict[str, Any]:
        return self.request("close")

    def sessions(self) -> dict[str, Any]:
        return self.request("sessions")

    def shutdown(self) -> dict[str, Any]:
        return self.request("shutdown")

    # ------------------------------------------------------------------
    def drive(
        self,
        evaluator: Callable[[Mapping[str, Any]], ObjectiveResult],
        batch_size: int = 1,
    ) -> float | None:
        """Drive the bound session to completion; returns the best value.

        Asks ``batch_size`` suggestions at a time, evaluates them locally,
        and tells results back in suggestion-id order — the same contract as
        :func:`repro.core.session.drive`, so the server-side trace is
        bit-identical to an in-process run with the same batch size.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        best: float | None = None
        while True:
            asked = self.request("ask", n=batch_size)
            suggestions = asked["suggestions"]
            if not suggestions:
                if asked["done"]:
                    return best
                raise RuntimeError(
                    "server returned no suggestions but the session is not "
                    "done — another client holds in-flight suggestions"
                )
            outcomes = []
            for entry in suggestions:
                configuration = configuration_from_json(entry["configuration"])
                started = time.perf_counter()
                result = evaluator(configuration)
                outcomes.append(
                    (int(entry["id"]), result, time.perf_counter() - started)
                )
            for suggestion_id, result, elapsed in sorted(outcomes, key=lambda o: o[0]):
                told = self.tell(
                    suggestion_id,
                    result.value,
                    feasible=result.feasible,
                    elapsed=elapsed,
                )
                best = told["best_value"]

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "TuningClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
