"""The service_mix workload: an open loop against a live ``repro serve``.

One daemon (plane dispatch, two workers) takes a k=32 mix at a fixed rate
below its capacity. Three shares of traffic:

* ``cold``: a Mastrovito/Montgomery pair over an irreducible modulus the
  daemon has not seen, so it runs a cold abstraction and writes the cache;
* ``variant``: an obfuscated Mastrovito variant against the Montgomery of
  the warmed modulus, which must hit the canonical cache key;
* ``resubmit``: an exact copy of a cold pair's request sent 50 ms after
  it, while it is still in flight, which the daemon deduplicates.

The three kinds get equal shares. That is an assumption, not a measured
mix: nothing in the repository records what traffic a deployed daemon
sees, so no kind is weighted over another in the latency percentiles.

Arrivals follow a fixed schedule whatever the daemon does (an open loop),
and every request is timed from when it was due. The loop uses two
threads: one sends on schedule, one long-polls for results. Both talk to
the daemon through :class:`repro.service.ServiceClient` with retries off,
so a refused request (429/503) fails rather than being sent again.
"""

from __future__ import annotations

import itertools
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import nist_field, stacked_order

from repro.circuits import to_blif, to_verilog
from repro.gf import GF2m
from repro.gf.irreducible import irreducible_polynomials
from repro.reveng.obfuscate import OBFUSCATION_PASSES, obfuscate
from repro.service import ServiceClient
from repro.service.client import ServiceError
from repro.synth import mastrovito_multiplier, montgomery_multiplier

K = 32
#: Originals sent per second. The mix costs about 0.4 s of worker time a
#: request, so the two workers are under half busy.
RATE_PER_S = 2.0
#: One block of originals: seven cold pairs and the seven obfuscated
#: variants, in a seeded order. Every cold pair is also resubmitted, so the
#: three kinds have equal shares. A run sends whole blocks, so every run
#: holds the same mix.
BLOCK = ("cold",) * 7 + ("variant",) * 7
RESUBMIT_DELAY_S = 0.05
#: A request answered later than this after it was due misses the limit.
LATENCY_LIMIT_S = 5.0
#: How long to wait for outstanding answers once the schedule has ended.
DRAIN_WAIT_S = 60.0
WORKERS = 2


@dataclass
class Body:
    """What one ``POST /v1/verify`` carries."""

    modulus: int
    spec_text: str
    impl_text: str


@dataclass
class Request:
    kind: str
    due: float  # seconds after the loop starts
    body: Body


@dataclass
class Outcome:
    kind: str
    due: float
    sent: float = 0.0
    submit_s: float = 0.0
    #: Why the daemon did not take the request; empty when it did.
    refused: str = ""
    job: Optional[Dict] = None
    coalesced: bool = False


def _pair(f: GF2m) -> Body:
    return Body(
        f.modulus,
        to_blif(mastrovito_multiplier(f)),
        to_verilog(montgomery_multiplier(f).flatten()),
    )


def unseen_moduli(k: int, seen: int, count: int) -> List[int]:
    """The ``count`` lowest-weight irreducible moduli other than ``seen``.

    Every run sends the same set; the seed only orders it. A cold pair's
    cost depends on its modulus (0.3-0.6 s for the first 21, 0.9 s and
    1.1 s for 0x10002000b and 0x100012009 further on), and with the seed
    picking one modulus of each consecutive pair, which ones a run sent
    moved its tail by as much as the machine did.
    """
    return [
        m for m in itertools.islice(irreducible_polynomials(k), count + 1) if m != seen
    ][:count]


class Traffic:
    """The seeded inputs of one service_mix run."""

    def __init__(self, seed: int, seconds: float):
        k, rate = K, RATE_PER_S
        rng = random.Random(seed)
        seen = nist_field(k)
        spec = mastrovito_multiplier(seen)
        impl_text = to_verilog(montgomery_multiplier(seen).flatten())
        self.warm_body = Body(seen.modulus, to_blif(spec), impl_text)
        variants = [
            obfuscate(spec, passes=[p], seed=seed + i).circuit
            for i, p in enumerate(OBFUSCATION_PASSES)
        ]
        variants.append(
            obfuscate(spec, passes=stacked_order(), seed=seed + len(OBFUSCATION_PASSES)).circuit
        )
        variant_bodies = [
            Body(seen.modulus, to_blif(v) if i % 2 == 0 else to_verilog(v), impl_text)
            for i, v in enumerate(variants)
        ]
        blocks = max(1, round(seconds * rate / len(BLOCK)))
        kinds: List[str] = []
        for _ in range(blocks):
            block = list(BLOCK)
            rng.shuffle(block)
            kinds.extend(block)
        moduli = unseen_moduli(k, seen.modulus, kinds.count("cold"))
        rng.shuffle(moduli)
        requests: List[Request] = []
        modulus_iter = iter(moduli)
        variant_order: List[Body] = []
        for index, kind in enumerate(kinds):
            if kind == "cold":
                body = _pair(GF2m(k, next(modulus_iter)))
            else:
                # Each block sends every variant once, in a seeded order.
                if not variant_order:
                    variant_order = list(variant_bodies)
                    rng.shuffle(variant_order)
                body = variant_order.pop()
            requests.append(Request(kind, index / rate, body))
        requests.extend(
            Request("resubmit", original.due + RESUBMIT_DELAY_S, original.body)
            for original in list(requests)
            if original.kind == "cold"
        )
        self.requests = sorted(requests, key=lambda r: r.due)


class Daemon:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: Path, workdir: Path, seed: int):
        workdir.mkdir(parents=True, exist_ok=True)
        port_file = workdir / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["REPRO_CACHE_DIR"] = str(workdir / "cache")
        self.log = open(workdir / "serve.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--port-file", str(port_file),
                "--workers", str(WORKERS),
                "--dispatch", "plane",
                "--cache-dir", str(workdir / "cache"),
                "--prewarm", str(K),
                "--seed", str(seed),
            ],
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
            cwd=str(root),
        )
        deadline = time.monotonic() + 60.0
        while not port_file.exists() or not port_file.read_text().strip():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro serve did not start; see serve.log")
            time.sleep(0.02)
        host, _, port = port_file.read_text().strip().rpartition(":")
        self.host, self.port = host, int(port)

    def client(self) -> ServiceClient:
        """A client that never retries: a refusal is a failed request."""
        return ServiceClient(self.host, self.port, timeout=120, retries=0)

    def metrics(self) -> Dict[str, float]:
        with self.client() as client:
            text = client.metrics_text()
        values = {}
        for line in text.splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.partition(" ")
                values[name] = float(value)
        return values

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits 0), then wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=40)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def submit(client: ServiceClient, body: Body) -> Dict:
    return client.submit_verify(body.spec_text, body.impl_text, K, modulus=body.modulus)


def wait_job(client: ServiceClient, job_id: str, until: float) -> Optional[Dict]:
    """The job's terminal record, or None if it has none by ``until``."""
    try:
        return client.wait_for(job_id, timeout=until - time.monotonic())
    except (TimeoutError, ServiceError):
        return None


def warm_up(daemon: Daemon, body: Body) -> None:
    """Send the warmed modulus's pair once and wait: the cache then holds
    both canonical keys every variant must hit."""
    with daemon.client() as client:
        job = wait_job(client, submit(client, body)["id"], time.monotonic() + 60)
    if not job or job.get("status") != "done" or job["result"].get("verdict") != "equivalent":
        raise RuntimeError(f"service warm-up failed: {job}")


@dataclass
class LoopResult:
    outcomes: List[Outcome] = field(default_factory=list)
    wall: float = 0.0
    metrics_before: Dict[str, float] = field(default_factory=dict)
    metrics_after: Dict[str, float] = field(default_factory=dict)


def run_loop(daemon: Daemon, traffic: Traffic) -> LoopResult:
    """Send every request when it is due; collect every answer."""
    result = LoopResult(metrics_before=daemon.metrics())
    outcomes = [Outcome(r.kind, r.due) for r in traffic.requests]
    pending: "queue.Queue[Optional[Tuple[int, str]]]" = queue.Queue()

    def poll() -> None:
        with daemon.client() as client:
            while True:
                entry = pending.get()
                if entry is None:
                    return
                index, job_id = entry
                outcomes[index].job = wait_job(client, job_id, drain_deadline[0])

    drain_deadline = [float("inf")]
    poller = threading.Thread(target=poll, name="bench-poller")
    poller.start()
    client = daemon.client()
    start = time.perf_counter()
    try:
        for index, request in enumerate(traffic.requests):
            delay = request.due - (time.perf_counter() - start)
            if delay > 0:
                time.sleep(delay)
            outcome = outcomes[index]
            outcome.sent = time.perf_counter() - start
            try:
                doc = submit(client, request.body)
            except ServiceError as exc:  # a 429/503 refusal among them
                outcome.refused = f"HTTP {exc.status}: {exc}"
            else:
                outcome.coalesced = bool(doc.get("coalesced"))
                pending.put((index, doc["id"]))
            outcome.submit_s = time.perf_counter() - start - outcome.sent
        drain_deadline[0] = time.monotonic() + DRAIN_WAIT_S
    finally:
        client.close()
        pending.put(None)
        poller.join()
    result.wall = time.perf_counter() - start
    # The daemon stamps jobs with time.time(); turn dues into that clock.
    epoch = time.time() - result.wall
    for outcome in outcomes:
        outcome.due += epoch
        outcome.sent += epoch
    result.outcomes = outcomes
    result.metrics_after = daemon.metrics()
    return result


def latency(outcome: Outcome) -> Optional[float]:
    """Seconds from due to answer, or None when the request failed."""
    job = outcome.job
    if outcome.refused or not job or job.get("status") != "done":
        return None
    return job["finished"] - outcome.due


def problems(result: LoopResult) -> List[str]:
    """Wrong answers: every finished job must say ``equivalent``."""
    out = []
    for outcome in result.outcomes:
        job = outcome.job
        if not job or job.get("status") != "done":
            continue
        verdict = job["result"].get("verdict")
        if verdict != "equivalent":
            out.append(f"service job {job['id']} ({outcome.kind}) answered {verdict}")
    return out


def _prometheus(name: str) -> str:
    return "repro_" + name.replace(".", "_")


def metric_value(result: LoopResult, name: str) -> float:
    """A gauge from ``/metrics`` after the loop."""
    return result.metrics_after.get(_prometheus(name), 0.0)


def metric_delta(result: LoopResult, name: str) -> float:
    """How much a ``/metrics`` counter grew during the loop."""
    key = _prometheus(name)
    return result.metrics_after.get(key, 0.0) - result.metrics_before.get(key, 0.0)
