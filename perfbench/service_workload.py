"""The service workload: a closed-loop client resubmitting stress-program
campaigns to ``argus-repro serve --workers 2``.

One client keeps one job outstanding.  Every round takes a fresh job seed
and submits, one after another:

* ``cold``   - ``E`` experiments, all store misses (store writes);
* ``mixed``  - ``2E`` on the same seed: the plan's first ``E`` experiments
  are the cold job's, so half are hits and half writes;
* ``cached`` - the same ``2E`` job again, all hits (pure reads).

Each job is timed from submit until its results download finished.  The
client polls the job document at 1 ms, backing off to 10 ms, so the
poll interval does not set the latency.  Rounds repeat until the run
time is spent.  HTTP, scheduler, result store, journal and the
per-batch worker pool are on the path; the engine work per job is small.

Every job's downloaded records and summary must equal an in-process
``execute_plan`` of the same spec.
"""

import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

from spans import Tracer, engine_metrics, instrument_engine, median

#: Experiments in a cold job; mixed and cached jobs run twice as many.
COLD_EXPERIMENTS = 16

#: Server spawns per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: Campaign worker processes of the server (one per CPU of a 2-CPU host).
SERVER_WORKERS = 2

JOB_KINDS = (("cold", 1), ("mixed", 2), ("cached", 2))

#: Seconds to wait for a server to come up or to drain.
SERVER_TIMEOUT = 60.0


class Server:
    """``argus-repro serve`` in a child process with its own data dir."""

    def __init__(self, root, data_dir):
        from repro.service.client import ServiceClient

        self.data_dir = data_dir
        shutil.rmtree(data_dir, ignore_errors=True)
        os.makedirs(data_dir)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        start = time.perf_counter()
        self.log = open(os.path.join(data_dir, "server.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host",
             "127.0.0.1", "--port", "0", "--data-dir", data_dir,
             "--workers", str(SERVER_WORKERS)],
            cwd=root, env=env, stdout=self.log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            address = os.path.join(data_dir, "server.json")
            deadline = start + SERVER_TIMEOUT
            while not os.path.exists(address):
                self._check_alive(deadline)
                time.sleep(0.002)
            with open(address) as handle:
                self.port = json.load(handle)["port"]
            self.client = ServiceClient("http://127.0.0.1:%d" % self.port,
                                        retries=0)
            while True:
                try:
                    self.client.healthz(retries=0)
                    break
                except ConnectionError:
                    self._check_alive(deadline)
                    time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _check_alive(self, deadline):
        if self.proc.poll() is not None:
            raise RuntimeError("server exited with %s" % self.proc.returncode)
        if time.perf_counter() > deadline:
            raise RuntimeError("server did not come up")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def results(self, job_id):
        """Download a job's journal; returns (records, bytes)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=SERVER_TIMEOUT)
        try:
            conn.request("GET", "/jobs/%s/results" % job_id)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError("results: HTTP %d" % response.status)
        finally:
            conn.close()
        records = {}
        for line in body.splitlines():
            entry = json.loads(line)
            if entry.get("kind") == "result":
                records[entry["id"]] = entry["result"]
        return records, len(body)

    def stop(self):
        """SIGTERM (the server drains), then make sure the group is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.log.close()


class ServiceWorkload:
    """The closed-loop resubmission mix bound to a seed."""

    def __init__(self, name, seed, seconds, root, scratch):
        self.name = name
        self.seconds = seconds
        self.root = root
        self.scratch = scratch
        self.rng = random.Random("perfbench/%s/%d" % (name, seed))
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self._servers = 0

    def spawn(self):
        self._servers += 1
        return Server(self.root, os.path.join(self.scratch,
                                              "server-%d" % self._servers))

    # -- the client loop -----------------------------------------------------
    def round_seeds(self):
        while True:
            yield self.rng.randrange(1, 2 ** 31)

    def run_job(self, server, job_seed, kind, factor, tracer):
        """Submit, wait, download; returns the job's measurement."""
        spec = {"workload": "stress", "duration": "transient",
                "experiments": COLD_EXPERIMENTS * factor, "seed": job_seed}
        job = {"kind": kind, "spec": spec, "requests": 0, "error": None}
        op = "%d/%s" % (job_seed, kind)
        start = time.perf_counter()
        root = tracer.begin("job", op=op) if tracer else None
        try:
            span = tracer.begin("http.submit") if tracer else None
            doc = server.client.submit(spec)
            job["submit_s"] = time.perf_counter() - start
            job["requests"] += 1
            if tracer:
                tracer.end(span)
                span = tracer.begin("http.wait")
            delay = 0.001
            while doc["state"] not in ("done", "failed"):
                time.sleep(delay)
                delay = min(2 * delay, 0.01)
                doc = server.client.job(doc["id"])
                job["requests"] += 1
            if tracer:
                tracer.end(span)
                span = tracer.begin("http.results")
            fetch = time.perf_counter()
            job["records"], job["results_bytes"] = server.results(doc["id"])
            job["results_s"] = time.perf_counter() - fetch
            job["requests"] += 1
            if tracer:
                tracer.end(span)
            if doc["state"] != "done":
                job["error"] = "job %s: %s" % (doc["state"], doc["error"])
        except Exception as exc:  # noqa: BLE001 - counted as a failed job
            job["error"] = "%s: %s" % (type(exc).__name__, exc)
            doc = None
            if tracer:
                tracer.unwind(root)
        job["latency_s"] = time.perf_counter() - start
        if tracer:
            tracer.end(root)
        job["doc"] = doc
        return job

    def run_rounds(self, server, seeds, seconds=None, tracer=None):
        """Closed loop over rounds.  It stops at the first round end after
        ``seconds``, or with ``seconds=None`` after every seed given.
        Returns (jobs, seeds used, elapsed seconds)."""
        jobs = []
        used = []
        start = time.perf_counter()
        for job_seed in seeds:
            used.append(job_seed)
            for kind, factor in JOB_KINDS:
                jobs.append(self.run_job(server, job_seed, kind, factor,
                                         tracer))
            if seconds is not None \
                    and time.perf_counter() - start >= seconds:
                break
        return jobs, used, time.perf_counter() - start

    # -- output check --------------------------------------------------------
    @staticmethod
    def stress_campaign(tracer=None):
        """A default in-process campaign on the stress program.

        Returns (campaign, embed seconds, golden seconds)."""
        from repro.faults.campaign import Campaign
        from repro.faults.stress import build_stress_program

        start = time.perf_counter()
        embedded = build_stress_program()
        embedded_at = time.perf_counter()
        campaign = Campaign(embedded=embedded)
        golden_at = time.perf_counter()
        campaign.golden_trace()
        end = time.perf_counter()
        if tracer is not None:
            tracer.spans.append(["toolchain.embed", start, embedded_at,
                                 None, None, None])
            tracer.spans.append(["golden", golden_at, end, None, None, None])
        return campaign, embedded_at - start, end - golden_at

    @staticmethod
    def reference(campaign, seeds):
        """In-process ``execute_plan`` of every distinct job spec.

        Returns ({(seed, experiments): (records, summary)}, seconds of
        engine time, experiments executed)."""
        from repro.runner import execute_plan
        from repro.runner.journal import result_to_record
        from repro.runner.plan import plan_campaign

        expected = {}
        engine_start = time.perf_counter()
        count = 0
        for job_seed in seeds:
            for factor in sorted({factor for _, factor in JOB_KINDS}):
                n = COLD_EXPERIMENTS * factor
                plan = plan_campaign(campaign.points, n, "transient",
                                     seed=job_seed)
                summary = execute_plan(campaign, plan)
                records = {exp.experiment_id: json.loads(json.dumps(
                    result_to_record(result)))
                    for exp, result in zip(plan.experiments,
                                           summary.results)}
                expected[(job_seed, n)] = (records, summary)
                count += n
        return expected, time.perf_counter() - engine_start, count

    def check(self, jobs, expected):
        for job in jobs:
            self.attempted += 1
            if job["error"] is None:
                spec = job["spec"]
                records, summary = expected[(spec["seed"],
                                             spec["experiments"])]
                got = job["doc"]["summaries"].get("transient", {})
                want = {"experiments": summary.total,
                        "quadrants": {
                            "unmasked_undetected": summary.unmasked_undetected,
                            "unmasked_detected": summary.unmasked_detected,
                            "masked_undetected": summary.masked_undetected,
                            "masked_detected": summary.masked_detected},
                        "checker_counts": dict(summary.checker_counts)}
                if job["records"] != records:
                    job["error"] = "records differ from in-process run"
                elif any(got.get(key) != value
                         for key, value in want.items()):
                    job["error"] = "summary differs from in-process run"
            if job["error"] is not None:
                self.failed += 1
                self.notes.append("%s job seed %d: %s"
                                  % (job["kind"], job["spec"]["seed"],
                                     job["error"]))

    # -- entry points --------------------------------------------------------
    @staticmethod
    def served(jobs):
        return sum(job["spec"]["experiments"] for job in jobs
                   if job["error"] is None)

    def run_untraced(self):
        """Two passes: rounds for ``seconds / 2`` on the last of the set-up
        servers, then the same rounds on a fresh server.  Each job counts
        with the shorter of its two latencies."""
        setups = []
        server = None
        try:
            for _ in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                server = self.spawn()
                setups.append(server.setup_s)
            first, seeds, _ = self.run_rounds(server, self.round_seeds(),
                                              self.seconds / 2)
            peak = server.peak_rss_mb()
            server.stop()
            server = self.spawn()
            second, _, _ = self.run_rounds(server, seeds)
        finally:
            if server is not None:
                server.stop()
        expected, _, _ = self.reference(self.stress_campaign()[0], seeds)
        self.check(first, expected)
        self.check(second, expected)
        elapsed = sum(min(one["latency_s"], two["latency_s"])
                      for one, two in zip(first, second))
        return {
            "experiments_per_s": (self.served(first) / elapsed, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak, "MB"),
        }

    def run_traced(self):
        """Rounds over half the run time, each run untraced on one server
        and at once traced on a second one, so host-speed drift stays
        out of the tracing overhead.

        Returns (per-layer metrics, service-layer metrics, tracer)."""
        tracer = Tracer()
        plain, traced, seeds = [], [], []
        plain_s = traced_s = 0.0
        plain_server = self.spawn()
        traced_server = None
        try:
            traced_server = self.spawn()
            for job_seed in self.round_seeds():
                seeds.append(job_seed)
                jobs, _, elapsed = self.run_rounds(plain_server, [job_seed])
                plain += jobs
                plain_s += elapsed
                jobs, _, elapsed = self.run_rounds(traced_server, [job_seed],
                                                   tracer=tracer)
                traced += jobs
                traced_s += elapsed
                if plain_s >= self.seconds / 2:
                    break
            peak = plain_server.peak_rss_mb()
            store_rows = traced_server.client.metrics()["store"]["rows"]
        finally:
            plain_server.stop()
            if traced_server is not None:
                traced_server.stop()
        campaign, embed_s, golden_s = self.stress_campaign(tracer)
        expected, engine_s, engine_n = self.reference(campaign, seeds)
        with instrument_engine(tracer):
            _, traced_engine_s, _ = self.reference(campaign, seeds)
        self.check(plain, expected)
        self.check(traced, expected)

        planned_s = engine_s / engine_n
        metrics = {
            "toolchain.embed_s": embed_s,
            "golden.s": golden_s,
            "golden.instructions": campaign.golden_length,
            "golden.checkpoints": len(campaign.checkpoints()),
            "golden.checked_ips": campaign.golden_length / golden_s,
            "engine.planned_experiment_s": planned_s,
            "rss.peak_mb": peak,
            "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
        }
        metrics.update(engine_metrics(tracer, golden_s, traced_engine_s))
        layers = self.service_metrics(plain, planned_s, store_rows)
        return metrics, layers, tracer

    def service_metrics(self, jobs, planned_s, store_rows):
        """Service-layer metrics of the untraced pass, seen from outside."""
        good = [job for job in jobs if job["error"] is None]
        docs = [job["doc"] for job in good]
        latencies = sorted(job["latency_s"] for job in jobs)
        cached = [job["latency_s"] for job in good
                  if job["doc"]["executed"] == 0]
        p90 = (statistics.quantiles(latencies, n=10)[-1]
               if len(latencies) >= 2 else latencies[-1])
        run_s = {kind: median([job["doc"]["finished"] - job["doc"]["started"]
                               for job in good if job["kind"] == kind])
                 for kind, _ in JOB_KINDS}
        hits = sum(doc["cached"] for doc in docs)
        executed = sum(doc["executed"] for doc in docs)
        total_run = sum(doc["finished"] - doc["started"] for doc in docs)
        return {
            "jobs": (len(jobs), "count"),
            "job_latency_p50_s": (median(latencies), "s"),
            "job_latency_p90_s": (p90, "s"),
            "jobs_beyond_p90": (sum(1 for v in latencies if v > p90),
                                "count"),
            "cached_job_latency_p50_s": (median(cached), "s"),
            "http.requests": (sum(job["requests"] for job in jobs), "count"),
            "http.submit_s": (median([job["submit_s"] for job in good]),
                              "s"),
            "http.results_s": (median([job["results_s"] for job in good]),
                               "s"),
            "http.results_bytes": (sum(job["results_bytes"]
                                       for job in good), "B"),
            "scheduler.queue_wait_s": (median([doc["started"]
                                               - doc["created"]
                                               for doc in docs]), "s"),
            "scheduler.run_s.cold": (run_s["cold"], "s"),
            "scheduler.run_s.mixed": (run_s["mixed"], "s"),
            "scheduler.run_s.cached": (run_s["cached"], "s"),
            "store.hit_ratio": (hits / (hits + executed)
                                if hits + executed else 0.0, "ratio"),
            "store.rows": (store_rows, "count"),
            "service.overhead_s": (total_run - executed * planned_s, "s"),
        }
