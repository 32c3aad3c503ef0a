"""The load generator's side of a run: child processes and connections.

:class:`ChildProcess` owns a benchmark child (start, commands, reaping),
:class:`ServerProcess` the service one (port, SIGKILL); :class:`Connection` is one keep-alive HTTP/1.1 connection that
times a request from the first byte sent to the last reply byte read —
parsing the reply is the caller's business and happens outside that
window.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from .metrics import ROOT

#: Seconds a single request (or launcher command) may take before it is
#: counted as failed instead of hanging the run.
REQUEST_TIMEOUT = 60.0
STARTUP_TIMEOUT = 120.0


class HarnessError(RuntimeError):
    """The service child died, hung or answered a command wrongly."""


def child_environment() -> dict[str, str]:
    """The benchmark's environment with the checkout's ``src`` importable."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def read_line(process: subprocess.Popen, timeout: float) -> str:
    """One stdout line of ``process`` or :class:`HarnessError` after ``timeout``."""
    assert process.stdout is not None
    deadline = time.monotonic() + timeout
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        ready = remaining > 0 and select.select([process.stdout], [], [], remaining)[0]
        chunk = os.read(process.stdout.fileno(), 1) if ready else b""
        if not chunk:
            raise HarnessError(
                f"child gave no answer within {timeout}s "
                f"(exit status {process.poll()})"
            )
        line += chunk
    return line.decode("utf-8").strip()


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of ``pid`` (``VmHWM`` of /proc) in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise HarnessError(f"no VmHWM for pid {pid}")


def stop_process(process: subprocess.Popen, graceful: bytes | None = None) -> None:
    """Reap ``process``: ask nicely if possible, then terminate, then kill."""
    if process.poll() is None and graceful is not None and process.stdin is not None:
        try:
            process.stdin.write(graceful)
            process.stdin.flush()
            process.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()
    for pipe in (process.stdin, process.stdout):
        if pipe is not None:
            pipe.close()


class ChildProcess:
    """A benchmark-owned child (``server_main`` / ``embedded_main``).

    The child announces itself with one line on stdout, then obeys
    one-line commands on stdin, answering each with ``ok``.
    """

    #: seconds a command may take before the child counts as hung
    command_timeout = REQUEST_TIMEOUT

    def __init__(self, module: str, arguments: list[str]) -> None:
        self.argv = [sys.executable, "-m", f"benchmarks.perf.{module}", *arguments]
        self.process: subprocess.Popen | None = None

    def launch(self) -> str:
        """Start the child; returns the line it announces itself with."""
        self.process = subprocess.Popen(
            self.argv,
            cwd=ROOT,
            env=child_environment(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        return read_line(self.process, STARTUP_TIMEOUT)

    def command(self, line: str) -> None:
        """Send one command and wait for its ``ok``."""
        assert self.process is not None and self.process.stdin is not None
        self.process.stdin.write(line.encode("utf-8") + b"\n")
        self.process.stdin.flush()
        answer = read_line(self.process, self.command_timeout)
        if answer != "ok":
            raise HarnessError(f"child answered {answer!r} to {line!r}")

    def close(self) -> None:
        if self.process is not None:
            stop_process(self.process, graceful=b"quit\n")
            self.process = None


class ServerProcess(ChildProcess):
    """The query service child started through ``server_main``."""

    def __init__(
        self,
        graph_file: Path,
        options: dict[str, Any],
        wal_dir: Path | None = None,
        trace: bool = False,
    ) -> None:
        arguments = ["--graph-file", str(graph_file)]
        if options.get("oracle") is not None:
            arguments += ["--oracle-cap", str(options["oracle"]["cap"])]
        if wal_dir is not None:
            arguments += [
                "--wal-dir",
                str(wal_dir),
                "--fsync",
                options["fsync"],
                "--checkpoint-every",
                str(options["checkpoint_every"]),
            ]
        if trace:
            arguments.append("--trace")
        super().__init__("server_main", arguments)
        self.port = 0
        #: WAL batches the child replayed at start-up (0 on a fresh start)
        self.replayed = 0

    def start(self) -> float:
        """Launch and wait for the first ``200`` from ``/health``.

        Returns the seconds from process start to that reply: interpreter
        start, imports, graph load, registration (copy, freeze, prewarm,
        oracle build, WAL open + baseline checkpoint) or WAL recovery.
        """
        started = time.perf_counter()
        answer = self.launch()
        if not answer.startswith("PORT "):
            raise HarnessError(f"launcher said {answer!r}, not its port")
        self.port, self.replayed = (int(word) for word in answer.split()[1:3])
        connection = Connection(self.port)
        try:
            status, _body, _latency = connection.request("GET", "/health")
        finally:
            connection.close()
        if status != 200:
            raise HarnessError(f"/health answered {status}")
        return time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        assert self.process is not None
        return vm_hwm_mb(self.process.pid)

    def kill(self) -> None:
        """``SIGKILL`` — the crash the recovery measurement starts from."""
        assert self.process is not None
        self.process.send_signal(signal.SIGKILL)
        stop_process(self.process)
        self.process = None


class Connection:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, port: int, timeout: float = REQUEST_TIMEOUT) -> None:
        self.port = port
        self.timeout = timeout
        self.sock: socket.socket | None = None

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    @staticmethod
    def encode(method: str, path: str, payload: dict[str, Any] | None = None) -> bytes:
        """The request bytes, built before the clock starts."""
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        return head.encode("ascii") + body

    def request(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> tuple[int, bytes, float]:
        return self.send(self.encode(method, path, payload))

    def send(self, request: bytes) -> tuple[int, bytes, float]:
        """``(status, body, seconds)``; a timeout or reset is status 0.

        The clock runs from the first byte sent to the last body byte
        read.  After a failure the connection is dropped and the next
        request reconnects.
        """
        try:
            if self.sock is None:
                self.sock = self._connect()
            sock = self.sock
            started = time.perf_counter()
            sock.sendall(request)
            buffer = bytearray()
            while (split := buffer.find(b"\r\n\r\n")) < 0:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("connection closed mid-headers")
                buffer += chunk
            head = bytes(buffer[:split]).decode("latin-1")
            status = int(head.split(" ", 2)[1])
            length = 0
            for line in head.split("\r\n")[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            body = bytearray(buffer[split + 4 :])
            while len(body) < length:
                chunk = sock.recv(min(1 << 20, length - len(body)))
                if not chunk:
                    raise ConnectionError("connection closed mid-body")
                body += chunk
            return status, bytes(body), time.perf_counter() - started
        except (OSError, ValueError, IndexError) as exc:
            self.close()
            return 0, repr(exc).encode("utf-8"), self.timeout

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
