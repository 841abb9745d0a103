#!/usr/bin/env python3
"""Known-answer end-to-end benchmark of the `verify` and `verifyd` front-ends.

Usage (from the root of a checkout):

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads:

* ``dynamic-table1``: Table-1 pairs (static measured circuit against its
  dynamic realisation) plus seeded mutants of the dynamic side, through
  ``verify --dir``. The paper's non-unitary path, including refutations.
* ``verifyd-mixed``: one ``verifyd --socket`` daemon and ``nproc``
  closed-loop clients, each sending seeded, shuffled rounds of
  ``verify-pair`` and ``verify-chain`` requests drawn from the Table-1
  pairs and the compilation corpus (BV, QFT and QPE at widths 8, 10 and
  12, line coupling, optimization level 1: 9 four-step chains plus 9
  endpoint pairs), whose unmeasured, near-identity static miters load the
  decision-diagram store, chain carry-over and barrier GC.

A batch workload of the corpus alone through ``verify --manifest`` was
dropped: its pairs take milliseconds, and on 2 shared cores its p50
latency spread 0.2 to 0.4 of its median across seeds, beyond any bound
the benchmark may set. The corpus stays in ``verifyd-mixed``.

Every front-end runs in its default configuration except ``--workers``, which
is set to the number of usable cores. Every verdict is checked against the
answer the generator knows independently of the program; a wrong verdict is
listed by pair name, counts against ``verdict_accuracy`` and never stops the
run.

With ``--trace 0`` the benchmark measures a fixed amount of work, counted
from ``--seconds`` (the same ``--seconds`` and seed always attempt the same
pairs), and reports the end-to-end metrics:

* ``dynamic-table1`` runs ``verify`` over the whole directory once per
  *pass*, for ``--seconds`` / PASS_SECONDS passes. A pass that outgrows
  PASS_GUARD_SECONDS or GUARD_RSS_MB is killed and logged with its peak
  RSS; every pair of it counts as wrong, with the time until the kill as
  its latency. Throughput is the pairs verified over the summed wall time
  of every pass, killed ones included; peak RSS is the median over passes
  of the process's own ``wait4`` peak, killed ones included.
* ``verifyd-mixed`` has every client do ``--seconds`` / ROUND_SECONDS
  whole rounds. Throughput is the client count times the median round rate
  of a client; peak RSS is the median of the daemon's per-interval peaks
  (``VmHWM``, reset after every read). A request over DAEMON_REQUEST_GUARD
  is cancelled by disconnecting; its pairs count as wrong, with the time
  until the client gave up as their latency. On a 2-core x86_64 host this
  is the shared-store collapse of the default configuration on the QPE-12
  endpoint pair, in one or two of its requests per run.
* Latency percentiles are taken over every attempted pair. Verdict
  accuracy is the share of attempted pairs whose verdict matches the known
  answer: ``NoInformation``, errors and killed or cancelled work count as
  wrong.

With ``--trace 1`` it runs the traced in-process walk
(``harness/src/bin/traced.rs``), which times calls into each layer's public
functions, writes its span file and reports the per-layer metrics, after
one verifyd round per client over the same inputs for the ``verifyd.*``
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
the pairs (plain pairs and chain steps) asked for. ``failed`` counts the
pairs the front-end answered with an error (a pair it could not load, an
error reply) instead of a verdict; these do not depend on which scheme wins
a race or on the host's speed, so two runs of one seed fail alike. Wrong
verdicts, ``NoInformation`` and killed or cancelled work do depend on them:
they are measured by ``verdict_accuracy`` and listed by name, not counted in
``failed``. ``correct`` is false when the benchmark's own checks fail (a
report that does not cover the workload, a pair without a known answer, a
traced pair whose layer self time covers less than 90% of its wall time).
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")
WORKLOADS = ("dynamic-table1", "verifyd-mixed")

# Setup is repeated this many times per run; setup_s is the median.
SETUP_REPS = 9
# A front-end that is not ready after this long fails the run.
GUARD_SECONDS = 8.0
# A verify pass slower than this, or larger than GUARD_RSS_MB, is killed
# and its pairs count as wrong: a healthy pass takes under 7 s on a 2-core
# x86_64 host, while a shared-store collapse measured on this code grew to
# 4 GB in 60 s.
PASS_GUARD_SECONDS = 15.0
GUARD_RSS_MB = 1536.0
# The daemon keeps warm stores of several widths, so its guard is higher.
DAEMON_GUARD_RSS_MB = 2560.0
# dynamic-table1 runs one verify pass per PASS_SECONDS of --seconds (at
# least one): a pass of the 93 pairs takes 5 to 7 s on a 2-core
# x86_64 host. The work is counted, not timed, so every run of a seed
# attempts the same pairs.
PASS_SECONDS = 6.0
# The daemon's peak RSS is read per interval of this length (VmHWM, reset
# after each read); peak_rss_mb is the median over intervals, so one
# transient spike of a long-lived process does not stand for the run.
RSS_INTERVAL = 2.5
# Every verifyd-mixed client does one whole round (every request once)
# per ROUND_SECONDS of --seconds, at least one; a request slower than
# DAEMON_REQUEST_GUARD is cancelled by disconnecting. A round takes 15 to
# 20 s on a 2-core x86_64 host, so a 30 s run measures three rounds, 45 to
# 60 s. The work is counted, not timed, as for dynamic-table1.
ROUND_SECONDS = 10.0
DAEMON_REQUEST_GUARD = 5.0
TRACE_RUN_GUARD = 160.0
# The percentile ladder for the latency tail: the highest one with at
# least TAIL_BEYOND samples beyond it is reported.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)
TAIL_BEYOND = 10


def log(message):
    print(message, flush=True)


def fail(message, code=1):
    print(f"error: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def binary(name):
    return target_dir() / "release" / name


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


def build():
    """Builds the front-ends and the harness from source, in release mode."""
    if not Path("Cargo.toml").is_file() or not Path("crates/portfolio").is_dir():
        fail("no workspace to build here: run from the root of a checkout", 2)
    WORK.mkdir(exist_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    commands = [
        ["cargo", "build", "--release", "--offline", "-p", "portfolio", "--bins"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", "e2ebench/harness/Cargo.toml", "--bins"],
    ]
    with open(WORK / "build.log", "w") as build_log:
        for command in commands:
            result = subprocess.run(command, env=env, stdout=build_log,
                                    stderr=subprocess.STDOUT)
            if result.returncode != 0:
                build_log.flush()
                tail = (WORK / "build.log").read_text()[-4000:]
                fail(f"build failed: {' '.join(command)}\n{tail}")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


CHILDREN = []


class Child:
    """A child process reaped with wait4, so its own peak RSS is known, and
    killed when it outgrows the guard."""

    def __init__(self, command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=stdout, stderr=stderr)
        CHILDREN.append(self)
        self.ended = None
        self.status = None
        self.maxrss_mb = None
        self.killed = None
        self._reaper = threading.Thread(target=self._reap, daemon=True)
        self._reaper.start()

    def _reap(self):
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.ended = time.perf_counter()
        self.status = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.status
        self.maxrss_mb = usage.ru_maxrss / 1024.0

    def rss_mb(self):
        try:
            with open(f"/proc/{self.proc.pid}/statm") as statm:
                return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
        except (OSError, ValueError, IndexError):
            return 0.0

    def alive(self):
        return self.ended is None

    def kill(self, reason):
        if self.alive():
            self.killed = reason
            try:
                os.kill(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.wait()

    def wait(self, guard=None, rss_guard=GUARD_RSS_MB, since=None):
        """Waits for exit; with ``guard`` seconds (counted from the start,
        or from ``since``), kills on time or memory."""
        since = self.started if since is None else since
        while self.alive():
            if guard is not None:
                if time.perf_counter() - since > guard:
                    self.kill(f"over {guard:.0f} s")
                    break
                if self.rss_mb() > rss_guard:
                    self.kill(f"over {rss_guard:.0f} MB")
                    break
            self._reaper.join(0.05)
        self._reaper.join()
        return self.status

    @property
    def seconds(self):
        return self.ended - self.started


# ---------------------------------------------------------------------------
# Inputs and setup
# ---------------------------------------------------------------------------


def generate(workload, seed, out):
    if out.exists():
        shutil.rmtree(out)
    child = Child([str(binary("gen")), "--workload", workload, "--seed", str(seed),
                   "--out", str(out)], stderr=None)
    if child.wait() != 0:
        fail(f"input generation failed for {workload}")
    answers = json.loads((out / "answers.json").read_text())
    return answers


def verify_ready(workers):
    """The batch front-end's start-up: an empty manifest, start to exit."""
    empty = WORK / "empty.json"
    empty.write_text('{"pairs": [], "chains": []}\n')
    child = Child([str(binary("verify")), "--manifest", str(empty), "--workers",
                   str(workers), "--compact", "--out", str(WORK / "empty-report.json")])
    if child.wait(GUARD_SECONDS) != 0:
        fail("verify failed on an empty manifest")


class Daemon:
    """One verifyd process on a unix socket, started and probed until ready."""

    def __init__(self, workers, tag):
        # A relative path keeps the socket address short wherever the
        # checkout lives.
        self.path = str(WORK / f"verifyd-{tag}.sock")
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.child = Child([str(binary("verifyd")), "--socket", self.path,
                            "--workers", str(workers)], stderr=None)
        deadline = time.perf_counter() + GUARD_SECONDS
        while True:
            try:
                client = Client(self.path)
                reply = client.call({"id": 0, "method": "stats"})
                client.close()
                if "result" not in reply:
                    fail(f"verifyd stats failed: {reply}")
                break
            except OSError:
                if not self.child.alive() or time.perf_counter() > deadline:
                    self.child.kill("not ready")
                    fail("verifyd did not become ready")
                time.sleep(0.002)
        self.ready_at = time.perf_counter()

    def stop(self):
        """Shuts the daemon down and waits for it to exit."""
        if self.child.alive():
            try:
                client = Client(self.path, timeout=GUARD_SECONDS)
                client.call({"id": "stop", "method": "shutdown"})
                client.close()
            except (OSError, ValueError):
                pass
        self.child.wait(GUARD_SECONDS, DAEMON_GUARD_RSS_MB, since=time.perf_counter())


def measure_setup(workload, seed, workers):
    """Runs input generation plus front-end start-up SETUP_REPS times.

    Returns the per-repetition seconds and the answers and directory of
    the last generation, which the measurement then uses.
    """
    times = []
    for rep in range(SETUP_REPS):
        out = WORK / f"inputs-{rep % 2}"
        start = time.perf_counter()
        answers = generate(workload, seed, out)
        if workload == "verifyd-mixed":
            daemon = Daemon(workers, f"setup{rep}")
            times.append(daemon.ready_at - start)
            daemon.stop()
        else:
            verify_ready(workers)
            times.append(time.perf_counter() - start)
    return times, answers, out


# ---------------------------------------------------------------------------
# Known answers
# ---------------------------------------------------------------------------


def accepts(expected, verdict):
    if expected == "Equivalent":
        return verdict in ("Equivalent", "EquivalentUpToGlobalPhase", "ProbablyEquivalent")
    return verdict == "NotEquivalent"


class Tally:
    """Attempted pairs, pairs answered with an error (``failed``), verdicts
    checked against the known answers with the wrong ones by name,
    latencies and, for verifyd, (client latency, queue wait, service time)
    samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = 0
        self.wrong = {}
        self.latencies = []
        self.samples = []
        self.problems = []

    def pair(self, name, expected, verdict, winner, latency):
        """Checks one returned verdict (``None``: the front-end answered
        with an error, a failed operation) against the known answer."""
        self.attempted += 1
        if expected is None:
            self.problems.append(f"no known answer for `{name}`")
            self.failed += 1
            return False
        if latency is not None:
            self.latencies.append(latency)
        if verdict is not None and accepts(expected, verdict):
            self.correct += 1
            return True
        if verdict is None:
            self.failed += 1
        key = (name, expected, verdict or "no verdict", winner or "-")
        self.wrong[key] = self.wrong.get(key, 0) + 1
        return False

    def unfinished(self, names, expected, latency, reason):
        """Counts the pairs ``names``, left without a verdict after
        ``latency`` seconds, as wrong, each with that latency."""
        for name in names:
            self.attempted += 1
            self.latencies.append(latency)
            key = (name, expected, reason, "-")
            self.wrong[key] = self.wrong.get(key, 0) + 1

    def accuracy(self):
        return self.correct / max(self.attempted, 1)


def winner_name(winner):
    if isinstance(winner, dict):
        return ",".join(f"{k}({v})" for k, v in winner.items())
    return winner


# ---------------------------------------------------------------------------
# dynamic-table1 (verify)
# ---------------------------------------------------------------------------


def batch_pass(inputs, answers, workers, tally, index):
    """Runs ``verify`` once over the Table-1 directory; returns (pairs
    verified, seconds, peak RSS in MB)."""
    pairs = answers["pairs"]
    report_path = WORK / "report.json"
    if report_path.exists():
        report_path.unlink()
    with open(WORK / "verify.err", "w") as err:
        child = Child([str(binary("verify")), "--dir", str(inputs / "table1"),
                       "--workers", str(workers), "--compact", "--out", str(report_path)],
                      stderr=err)
        child.wait(PASS_GUARD_SECONDS)
    if child.killed:
        for name, expected in pairs.items():
            tally.unfinished([name], expected, child.seconds, "killed by the guard")
        log(f"pass {index}: killed ({child.killed}) after {child.seconds:.3f} s, "
            f"{len(pairs)} pairs unfinished, peak rss {child.maxrss_mb:.0f} MB")
        return 0, child.seconds, child.maxrss_mb
    if child.status not in (0, 1):
        tally.problems.append(f"pass {index}: verify exited with {child.status}")
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as error:
        tally.problems.append(f"pass {index}: unreadable report ({error})")
        report = {"pairs": []}
    for pair in report["pairs"]:
        verdict = None if pair.get("error") else pair["verdict"]
        tally.pair(pair["name"], pairs.get(pair["name"]), verdict,
                   winner_name(pair.get("winner")), pair["total_time"])
    if {pair["name"] for pair in report["pairs"]} != set(pairs):
        tally.problems.append(f"pass {index}: report does not cover the workload")
    verified = len(report["pairs"])
    log(f"pass {index}: {verified} pairs in {child.seconds:.3f} s = "
        f"{verified / child.seconds:.3f} pairs/s, peak rss {child.maxrss_mb:.1f} MB")
    return verified, child.seconds, child.maxrss_mb


def run_batch_workload(inputs, answers, workers, seconds, tally):
    """Runs one pass per PASS_SECONDS of ``seconds``; returns the
    throughput over every pass and the per-pass peak RSS values."""
    count = max(1, round(seconds / PASS_SECONDS))
    passes = [batch_pass(inputs, answers, workers, tally, index) for index in range(count)]
    verified = sum(p[0] for p in passes)
    busy = sum(p[1] for p in passes)
    log(f"{len(passes)} passes: {verified} pairs verified in {busy:.3f} s")
    return verified / busy, [p[2] for p in passes]


# ---------------------------------------------------------------------------
# verifyd-mixed
# ---------------------------------------------------------------------------


class Client:
    """One newline-delimited JSON-RPC connection to verifyd."""

    def __init__(self, path, timeout=GUARD_SECONDS):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.settimeout(timeout)
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.file = self.sock.makefile("rwb")

    def call(self, request):
        self.file.write((json.dumps(request) + "\n").encode())
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise OSError("connection closed")
        return json.loads(line)

    def close(self):
        try:
            self.file.close()
        finally:
            self.sock.close()


def daemon_requests(inputs, answers):
    """Every request of one round over the generated inputs: corpus endpoint
    pairs and chains, and Table-1 pairs, whichever were generated."""
    requests = []
    corpus = inputs / "corpus"
    manifest = (json.loads((corpus / "manifest.json").read_text()) if corpus.is_dir()
                else {"pairs": [], "chains": []})
    for pair in manifest["pairs"]:
        requests.append(("pair", pair["name"], {
            "name": pair["name"], "left": str(corpus / pair["left"]),
            "right": str(corpus / pair["right"]), "qubits": pair["qubits"]}))
    for chain in manifest["chains"]:
        requests.append(("chain", chain["name"], {
            "name": chain["name"], "qubits": chain["qubits"],
            "steps": [{"pass": s["pass"], "path": str(corpus / s["path"])}
                      for s in chain["steps"]]}))
    table1 = inputs / "table1"
    names = sorted(f[: -len(".left.qasm")] for f in os.listdir(table1)
                   if f.endswith(".left.qasm")) if table1.is_dir() else []
    for name in names:
        requests.append(("pair", name, {
            "name": name, "left": str(table1 / f"{name}.left.qasm"),
            "right": str(table1 / f"{name}.right.qasm")}))
    for kind, name, _ in requests:
        section = "chains" if kind == "chain" else "pairs"
        if name not in answers[section]:
            fail(f"generator wrote no answer for {section} `{name}`")
    return requests


def client_loop(daemon, requests, answers, seed, client_id, round_count, tally, lock, rounds):
    """A closed-loop client: each of ``round_count`` rounds sends every
    request once, in a seeded shuffled order, waiting for each reply before
    the next."""
    conn = None
    round_index = 0
    next_id = 0
    verified = 0
    while daemon.child.alive() and round_index < round_count:
        order = list(requests)
        random.Random(seed * 1_000_003 + client_id * 7919 + round_index).shuffle(order)
        round_index += 1
        round_start = time.perf_counter()
        round_verified = verified
        for kind, name, params in order:
            if not daemon.child.alive():
                break
            next_id += 1
            method = "verify-chain" if kind == "chain" else "verify-pair"
            expected = answers["chains" if kind == "chain" else "pairs"][name]
            names = ([f"{name}:{s['pass']}" for s in params["steps"][1:]]
                     if kind == "chain" else [name])
            sent = time.perf_counter()
            try:
                if conn is None:
                    conn = Client(daemon.path, timeout=DAEMON_REQUEST_GUARD)
                reply = conn.call({"id": next_id, "method": method, "params": params})
            except (OSError, ValueError):
                # Timed out or disconnected: closing the connection cancels
                # whatever the daemon still runs for it.
                if conn is not None:
                    conn.close()
                    conn = None
                with lock:
                    tally.unfinished(names, expected, time.perf_counter() - sent,
                                     "cancelled by the guard")
                continue
            latency = time.perf_counter() - sent
            result = reply.get("result")
            with lock:
                if result is None:
                    for pair in names:
                        tally.pair(pair, expected, None, None, latency)
                    continue
                tally.samples.append((latency, result["queue_wait_seconds"],
                                      result["service_time_seconds"]))
                report = result["report"]
                if kind == "pair":
                    verified += 1
                    tally.pair(name, expected, report["verdict"],
                               winner_name(report.get("winner")), latency)
                    continue
                steps = report["steps"]
                for step in steps:
                    verified += 1
                    tally.pair(f"{name}:{step['pass']}", expected, step["report"]["verdict"],
                               winner_name(step["report"].get("winner")),
                               latency / len(steps))
                tally.unfinished(names[len(steps):], expected, latency, "step not verified")
        round_seconds = time.perf_counter() - round_start
        with lock:
            rounds.append((client_id, round_index, verified - round_verified, round_seconds))
    if conn is not None:
        conn.close()


def read_hwm_mb(pid):
    """The process's peak resident set since its last reset, then resets
    it (``/proc/PID/clear_refs``), so successive reads give per-interval
    peaks of one long-lived process."""
    try:
        with open(f"/proc/{pid}/status") as status:
            hwm = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
        with open(f"/proc/{pid}/clear_refs", "w") as clear:
            clear.write("5")
        return hwm / 1024.0
    except (OSError, StopIteration, ValueError):
        return None


def run_daemon_workload(inputs, answers, workers, round_count, seed, tally):
    """Drives one verifyd with ``workers`` closed-loop clients, each doing
    ``round_count`` rounds.

    Returns the throughput (the client count times the median over client
    rounds of pairs verified per second of the round), the per-interval
    peak RSS values of the daemon and its final stats."""
    requests = daemon_requests(inputs, answers)
    daemon = Daemon(workers, "run")
    lock = threading.Lock()
    rounds = []
    clients = [threading.Thread(target=client_loop, args=(
        daemon, requests, answers, seed, c, round_count, tally, lock, rounds))
        for c in range(workers)]
    for thread in clients:
        thread.start()
    peaks = []
    read_hwm_mb(daemon.child.proc.pid)
    next_read = time.perf_counter() + RSS_INTERVAL
    while any(t.is_alive() for t in clients):
        if daemon.child.alive():
            if daemon.child.rss_mb() > DAEMON_GUARD_RSS_MB:
                log(f"verifyd over {DAEMON_GUARD_RSS_MB:.0f} MB: killed")
                daemon.child.kill("memory guard")
            elif time.perf_counter() >= next_read:
                peak = read_hwm_mb(daemon.child.proc.pid)
                if peak is not None:
                    peaks.append(peak)
                next_read += RSS_INTERVAL
        for thread in clients:
            thread.join(0.05)
    if daemon.child.alive():
        peak = read_hwm_mb(daemon.child.proc.pid)
        if peak is not None:
            peaks.append(peak)
    stats = None
    if daemon.child.alive():
        try:
            client = Client(daemon.path)
            stats = client.call({"id": "stats", "method": "stats"}).get("result")
            client.close()
        except (OSError, ValueError):
            pass
    daemon.stop()
    if not peaks:
        fail("no RSS reading of verifyd")
    for client_id, round_index, verified, busy in sorted(rounds):
        log(f"client {client_id} round {round_index}: {verified} pairs in {busy:.3f} s")
    round_rates = [verified / busy for _, _, verified, busy in rounds]
    describe("client round pairs/s", round_rates, "1/s")
    # Every client holds one connection, so the system rate is the client
    # count times a client's median round rate; like the median over batch
    # passes, it keeps one stalled request from standing for the run.
    rate = workers * statistics.median(round_rates)
    log(f"verifyd: {rate:.3f} pairs/s, peak rss {max(peaks):.1f} MB over the run")
    return rate, peaks, stats


# ---------------------------------------------------------------------------
# Statistics and output
# ---------------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0], values[0]) if values else (0.0, 0.0, 0.0)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(name, values, unit):
    q1, q2, q3 = quartiles(values)
    shown = ", ".join(f"{v:.4f}" for v in values)
    log(f"{name}: median {statistics.median(values):.6g} {unit} "
        f"(quartiles {q1:.6g} / {q3:.6g}; {len(values)} values: {shown})")


def nearest_rank(sorted_values, q):
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(latencies):
    """The highest ladder percentile with at least TAIL_BEYOND samples
    beyond it, and its value."""
    ordered = sorted(latencies)
    for q in TAIL_LADDER:
        if len(ordered) * (1 - q) >= TAIL_BEYOND:
            return q, nearest_rank(ordered, q)
    return 0.5, statistics.median(ordered)


def emit(tally, metrics):
    for (name, expected, verdict, winner), count in sorted(tally.wrong.items()):
        log(f"wrong: {name}: expected {expected}, got {verdict} via {winner} ({count}x)")
    for problem in tally.problems:
        log(f"check failed: {problem}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)


def end_to_end(args, workers):
    setup, answers, inputs = measure_setup(args.workload, args.seed, workers)
    tally = Tally()
    if args.workload == "verifyd-mixed":
        round_count = max(1, round(args.seconds / ROUND_SECONDS))
        pairs_per_sec, rss_values, stats = run_daemon_workload(
            inputs, answers, workers, round_count, args.seed, tally)
        if stats:
            log(f"verifyd stats: {json.dumps(stats)}")
    else:
        pairs_per_sec, rss_values = run_batch_workload(
            inputs, answers, workers, args.seconds, tally)
    if pairs_per_sec <= 0:
        fail("no pair was verified")
    log(f"verdict accuracy: {tally.correct}/{tally.attempted} = {tally.accuracy():.4f}")
    describe("front-end peak rss per pass or interval", rss_values, "MB")
    describe("setup", setup, "s")
    q, tail_value = tail(tally.latencies)
    p50 = statistics.median(tally.latencies)
    log(f"pair latency: {len(tally.latencies)} samples, p50 {p50:.6f} s, "
        f"tail p{q * 100:g} {tail_value:.6f} s")
    wrong = tally.attempted - tally.correct
    log(f"wrong_verdict_ratio: {wrong}/{tally.attempted} = "
        f"{wrong / max(tally.attempted, 1):.4f}; answered with an error: {tally.failed}")
    metrics = {
        "pairs_per_sec": (pairs_per_sec, "1/s"),
        "pair_latency_p50_s": (p50, "s"),
        "pair_latency_tail_s": (tail_value, "s"),
        "verdict_accuracy": (tally.accuracy(), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss_values), "MB"),
    }
    emit(tally, metrics)


def unit_of(name):
    """Per-layer units follow the name: times end in ``_s`` (a strategy
    label may follow, as in ``qcec.functional_s.aligned``), ratios in
    ``_ratio`` or ``_min``, everything else is a count."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_ratio", "_min")):
        return "ratio"
    return "count"


def traced(args, workers):
    answers = generate(args.workload, args.seed, WORK / "inputs-0")
    inputs = WORK / "inputs-0"
    # The daemon layer, on every workload's own inputs: client latency
    # against the daemon's queue wait and service time, over one round per
    # client. Its verdicts count with the walk's.
    tally = Tally()
    _, _, stats = run_daemon_workload(inputs, answers, workers, 1, args.seed, tally)
    samples = tally.samples
    if not samples:
        fail("verifyd answered no request")
    log(f"daemon phase: {tally.attempted - tally.correct}/{tally.attempted} verdicts wrong, "
        f"{tally.failed} answered with an error")
    completed = (stats or {}).get("completed", 0)
    metrics = {
        "verifyd.queue_wait_s": statistics.median(s[1] for s in samples),
        "verifyd.service_s": statistics.median(s[2] for s in samples),
        "verifyd.wire_overhead_s": statistics.median(lat - queue - service
                                                     for lat, queue, service in samples),
        "verifyd.warm_checkout_ratio": stats["warm_checkouts"] / completed if completed else 0.0,
    }
    spans = WORK / f"spans-{args.workload}.jsonl"
    with open(WORK / "traced.out", "w") as out:
        child = Child([str(binary("traced")), "--workload", args.workload, "--inputs",
                       str(inputs), "--spans", str(spans)], stdout=out, stderr=None)
        child.wait(TRACE_RUN_GUARD)
    if child.killed or child.status != 0:
        fail(f"traced walk failed ({child.killed or child.status})")
    report = json.loads((WORK / "traced.out").read_text().strip().splitlines()[-1])
    metrics.update(report["metrics"])
    log(f"traced walk: {report['items']} items, {report['spans']} spans in {spans}, "
        f"{report['walk_off_s']:.3f} s untraced, {report['walk_on_s']:.3f} s traced")
    for line in report["low_coverage"]:
        tally.problems.append(f"layer self time below 90% of wall time: {line}")
    # The walk's wrong verdicts are the per-layer `*.wrong_verdicts`
    # metrics; a walk call that errs ends the walk instead.
    for line in report["wrong"]:
        log(f"wrong: {line}")
    tally.attempted += report["verdicts"]
    emit(tally, {name: (value, unit_of(name)) for name, value in sorted(metrics.items())})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    os.chdir(ROOT)
    build()
    workers = nproc()
    log(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}, workers {workers}")
    try:
        if args.trace:
            traced(args, workers)
        else:
            end_to_end(args, workers)
    finally:
        for child in CHILDREN:
            child.kill("benchmark exit")


if __name__ == "__main__":
    main()
