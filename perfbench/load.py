"""HTTP load from one process over at most ``WORKERS`` keep-alive connections.

Two shapes drive ``POST /predict-batch?format=text``:

* :func:`open_loop` sends burst ``i`` when it falls due at ``t0 + i/rate``,
  whether or not earlier bursts have finished.  Latency is timed from the
  due time, so a stall also charges the requests queued behind it, and the
  generator's own lateness (sent minus due) is recorded.
* :func:`closed_loop` keeps every connection busy: each sends its next
  burst as soon as the previous one is answered.

Request bodies are serialized before either loop starts.
"""

from __future__ import annotations

import http.client
import threading
import time

PATH = "/predict-batch?format=text"
HEADERS = {"Content-Type": "application/json"}


class Sample:
    __slots__ = ("index", "due", "sent", "done", "status", "body", "error")

    def __init__(self, index: int, due: float) -> None:
        self.index = index
        self.due = due
        self.sent = 0.0
        self.done = 0.0
        self.status = 0
        self.body = b""
        self.error = ""


def _send(conn_box: list, host: str, port: int, payload: bytes, sample: Sample) -> None:
    sample.sent = time.perf_counter()
    try:
        conn = conn_box[0]
        conn.request("POST", PATH, body=payload, headers=HEADERS)
        response = conn.getresponse()
        sample.body = response.read()
        sample.status = response.status
    except (OSError, http.client.HTTPException) as exc:
        sample.error = repr(exc)
        conn_box[0].close()
        conn_box[0] = http.client.HTTPConnection(host, port, timeout=60)
    sample.done = time.perf_counter()


def send_once(host: str, port: int, index: int, payload: bytes) -> Sample:
    """One burst on its own connection (warm-up, outside any loop)."""
    box = [http.client.HTTPConnection(host, port, timeout=60)]
    sample = Sample(index, time.perf_counter())
    _send(box, host, port, payload, sample)
    box[0].close()
    return sample


def _run_threads(host: str, port: int, conns: int, body) -> None:
    threads = []
    boxes = [[http.client.HTTPConnection(host, port, timeout=60)] for _ in range(conns)]
    for box in boxes:
        threads.append(threading.Thread(target=body, args=(box,), daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    for box in boxes:
        box[0].close()


def open_loop(host: str, port: int, payloads: list[bytes], rate: float, conns: int,
              first: int, count: int) -> list[Sample]:
    """Payloads ``first`` to ``first + count``, the ``i``-th of them due at
    ``t0 + i / rate``."""
    t0 = time.perf_counter() + 0.05
    samples = [Sample(first + i, t0 + i / rate) for i in range(count)]
    cursor = iter(samples)
    lock = threading.Lock()

    def worker(box: list) -> None:
        while True:
            with lock:
                sample = next(cursor, None)
            if sample is None:
                return
            delay = sample.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            _send(box, host, port, payloads[sample.index], sample)

    _run_threads(host, port, conns, worker)
    return samples


def closed_loop(host: str, port: int, payloads: list[bytes], seconds: float,
                conns: int, first: int = 0) -> tuple[list[Sample], float, float]:
    """Back-to-back bursts on every connection for ``seconds``.

    Sends each payload from ``first`` on at most once, so a workload of
    never-seen kernels never repeats one; the loop also ends when the
    payloads run out.  Returns the samples and the loop's start and end
    (last answer) times.
    """
    t0 = time.perf_counter()
    deadline = t0 + seconds
    samples: list[Sample] = []
    counter = iter(range(first, len(payloads)))
    lock = threading.Lock()

    def worker(box: list) -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = next(counter, None)
                if index is None:
                    return
                sample = Sample(index, 0.0)
                samples.append(sample)
            sample.due = time.perf_counter()
            _send(box, host, port, payloads[index], sample)

    _run_threads(host, port, conns, worker)
    end = max((s.done for s in samples), default=t0)
    return samples, t0, end
