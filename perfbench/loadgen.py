"""Open-loop load generator: one process, one thread, one pipelined
connection.

The sending and the receiving side share the connection: the loop sends
each request when it falls due and, while waiting for the next due time,
reads whatever replies have arrived and matches them to their requests by
id.  Each request is timed from its scheduled send time, so a stall in the
daemon (or in the generator) is charged to every request it delays; how
late the generator itself sent is recorded per request.
"""

import json
import os
import select
import socket
import struct
import time

import stats

HEADER = struct.Struct(">I")


def frame(payload):
    return HEADER.pack(len(payload)) + payload


def read_frames(path):
    """Payloads of a file of length-prefixed frames, in order."""
    with open(path, "rb") as f:
        data = f.read()
    out, off = [], 0
    while off < len(data):
        (n,) = HEADER.unpack_from(data, off)
        out.append(data[off + 4 : off + 4 + n])
        off += 4 + n
    return out


class Conn:
    """A framed connection to the daemon's Unix socket."""

    def __init__(self, path, timeout_s=10.0):
        deadline = time.monotonic() + timeout_s
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(path)
                break
            except OSError:
                s.close()
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        self.sock = s
        self.buf = bytearray()

    def send(self, payload):
        self.sock.sendall(frame(payload))

    def poll(self, timeout):
        """Complete reply payloads that arrive within `timeout` seconds
        (returns as soon as any bytes were read)."""
        r, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        if r:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk
        out = []
        while len(self.buf) >= 4:
            (n,) = HEADER.unpack_from(self.buf, 0)
            if len(self.buf) < 4 + n:
                break
            out.append(bytes(self.buf[4 : 4 + n]))
            del self.buf[: 4 + n]
        return out

    def call(self, payload, timeout_s=60.0):
        """One request, one reply (used outside timed phases)."""
        self.send(payload)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            for reply in self.poll(deadline - time.monotonic()):
                return reply
        raise TimeoutError("no reply within %.0f s" % timeout_s)

    def close(self):
        self.sock.close()


def classify(payload, expected):
    """Outcome of a terminal reply: ok only when byte-identical to the
    reference reply computed in-process."""
    if expected is not None and payload == expected:
        return stats.OK
    status = json.loads(payload).get("status")
    if status == "busy":
        return stats.BUSY
    if status == "ok":
        return stats.WRONG
    return stats.ERROR


class Loadgen:
    """Drives timed phases over one connection.  Replies to requests of an
    earlier phase that arrive late are ignored: those requests were
    already counted as outstanding, i.e. failed."""

    def __init__(self, conn, expected):
        self.conn = conn
        self.expected = expected  # request id -> reference reply payload
        self.current = {}  # request id -> record, for the running phase
        self.n_done = 0
        self.status_replies = []
        self.wrong = []

    def _handle(self, payload, now):
        head = json.loads(payload)
        rid = head.get("id")
        if isinstance(rid, str):
            if rid.startswith("status-") and head.get("status") == "ok":
                self.status_replies.append((now, head["result"]))
            return
        rec = self.current.get(rid)
        if rec is None or rec["done"] is not None or head.get("status") == "progress":
            return
        rec["done"] = now
        self.n_done += 1
        rec["outcome"] = classify(payload, self.expected.get(rid))
        if rec["outcome"] == stats.WRONG:
            self.wrong.append(rid)

    def run_phase(self, items, span_s, drain_s, status_every_s=None):
        """Send `items` ([(due_s, id, payload)], sorted by due, all due
        within `span_s`) on schedule and wait up to `drain_s` past the
        span for the replies.  Returns (records, backlog samples), the
        backlog sampled as (time, outstanding) at each send."""
        self.current = {
            rid: {"id": rid, "due": due, "sent": None, "done": None, "outcome": stats.OUTSTANDING}
            for due, rid, _ in items
        }
        polls = []
        if status_every_s:
            k, t = 0, 0.0
            while t < span_s:
                polls.append((t, "status-%d" % k))
                k, t = k + 1, t + status_every_s
        self.n_done = 0
        start = time.perf_counter() + 0.005
        backlog, n_sent, i, j = [], 0, 0, 0
        while i < len(items) or j < len(polls):
            now = time.perf_counter() - start
            next_req = items[i][0] if i < len(items) else float("inf")
            next_poll = polls[j][0] if j < len(polls) else float("inf")
            due = min(next_req, next_poll)
            if due <= now:
                if next_poll <= next_req:
                    self.conn.send(json.dumps({"id": polls[j][1], "verb": "status"}).encode())
                    j += 1
                else:
                    _, rid, payload = items[i]
                    self.conn.send(payload)
                    sent = time.perf_counter() - start
                    self.current[rid]["sent"] = sent
                    n_sent += 1
                    backlog.append((sent, n_sent - self.n_done))
                    i += 1
                continue
            for payload in self.conn.poll(due - now):
                self._handle(payload, time.perf_counter() - start)
        deadline = span_s + drain_s
        while True:
            now = time.perf_counter() - start
            if now >= deadline or self.n_done == len(self.current):
                break
            for payload in self.conn.poll(min(0.05, deadline - now)):
                self._handle(payload, time.perf_counter() - start)
        records = list(self.current.values())
        self.current = {}
        return records, backlog


def proc_cpu_s(pid):
    """User + system CPU seconds of a process, from /proc/<pid>/stat."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_steal_s():
    """CPU seconds the hypervisor has taken from this machine's CPUs
    (steal time, from /proc/stat)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mib(pid):
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)
