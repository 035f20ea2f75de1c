"""The two campaign workloads: a default-configuration engine run on a
bundled MediaBench kernel, serial and in-process.

Inputs.  ``expected/<workload>.json`` holds a committed *pool* of planned
experiments (``plan_campaign(points, POOL_SIZE, duration, seed=PLAN_SEED)``)
with each one's expected result record and an estimate of its cost from
its instruction counts (``make_expected.py``).  Experiment cost is heavy-tailed:
a detected fault finishes in milliseconds, an undetected transient
simulates to program end.  A handful of plain random draws would make the
throughput depend more on the seed than on the code, so the pool is cut
into ``strata`` equal bands of estimated cost and every round draws one
experiment per band, redrawn until the round's estimated cost is within
1% of the mean round's.  Every seed runs a different set of experiments
with the same cost profile, and every one of them has a committed
expected record.

A round is one ``execute_plan(campaign, plan)`` call on a
:class:`~repro.runner.plan.CampaignPlan` of those experiments: the planned
executor with no engine knobs, on one ``Campaign(embedded=...)`` built
with defaults.
"""

import gc
import json
import os
import random
import resource
import statistics
import time

from spans import Tracer, engine_metrics, instrument_engine

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seed of the committed experiment pool.
PLAN_SEED = 2007

#: Number of planned experiments in each committed pool.
POOL_SIZE = 96

#: Largest share by which a round's estimated cost may miss the mean.
BALANCE = 0.01

#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Experiments re-classified from instruction 0 per invocation.
REFERENCE_SAMPLE = 1

#: workload name -> (bundled program, fault duration, cost bands).
CAMPAIGN_WORKLOADS = {
    "adpcm_enc-transient": ("adpcm_enc", "transient", 8),
    "g721_dec-permanent": ("g721_dec", "permanent", 16),
}


def expected_path(name):
    return os.path.join(HERE, "expected", "%s.json" % name)


def normalise(record):
    """A record as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(record, sort_keys=True))


def build_pool_plan(campaign, duration):
    from repro.runner.plan import plan_campaign

    return plan_campaign(campaign.points, POOL_SIZE, duration,
                         seed=PLAN_SEED)


def cost_bands(pool, strata):
    """Pool indices split into ``strata`` equal bands of ascending cost."""
    order = sorted(range(len(pool)), key=lambda i: (pool[i]["cost_s"], i))
    size = len(order) // strata
    return [order[k * size:(k + 1) * size] for k in range(strata)]


def reference_golden(embedded):
    """Fault-free checkers-off run from instruction 0 on a fresh core:
    (retire records, final architectural state, cycles)."""
    from repro.cpu.checkedcore import CheckedCore

    core = CheckedCore(embedded, detect=False)
    trace = []
    while not core.halted:
        trace.append(core.step())
    return trace, core.architectural_state(), core.cycles


def reference_classify(embedded, golden, golden_final, run_slack, spec,
                       duration, inject_at):
    """Classify one experiment with the literal loops from instruction 0:
    fresh cores, no checkpoint restore, no reconvergence exit.  Returns
    the fields a result record carries."""
    from repro.cpu.checkedcore import CheckedCore
    from repro.faults.execution import detection_loop, masking_loop
    from repro.faults.injector import SignalInjector
    from repro.faults.model import FaultSchedule

    limit = int(len(golden) * run_slack) + 64

    def fresh(detect):
        injector = None if spec.is_state else SignalInjector(spec)
        core = CheckedCore(embedded, injector=injector, detect=detect)
        return core, injector, FaultSchedule(spec, duration, inject_at)

    core, injector, schedule = fresh(False)
    masked, activated_at, hung_m = masking_loop(
        core, injector, schedule, golden, golden_final, limit, 0)
    core, injector, schedule = fresh(True)
    detected, info, hung_d = detection_loop(
        core, injector, schedule, golden, limit, 0)
    fields = {"inject_at": inject_at, "masked": masked,
              "activated_at": activated_at, "detected": detected,
              "hung": hung_m or hung_d, "checker": None,
              "latency_instructions": None, "latency_cycles": None,
              "latency_blocks": None}
    if detected:
        event, latency = info
        fields.update(checker=event.checker,
                      latency_instructions=latency["instructions"],
                      latency_cycles=latency["cycles"],
                      latency_blocks=latency["blocks"])
    return fields


class CampaignWorkload:
    """One campaign workload bound to a seed."""

    def __init__(self, name, seed, seconds):
        self.name = name
        self.program, self.duration, self.strata = CAMPAIGN_WORKLOADS[name]
        self.seconds = seconds
        self.rng = random.Random("perfbench/%s/%d" % (name, seed))
        with open(expected_path(name)) as handle:
            self.expected = json.load(handle)
        if (self.expected["plan_seed"] != PLAN_SEED
                or len(self.expected["pool"]) != POOL_SIZE):
            raise SystemExit("%s: expected pool does not match the plan"
                             % expected_path(name))
        self.bands = cost_bands(self.expected["pool"], self.strata)
        self.attempted = 0
        self.failed = 0
        self.notes = []

    # -- set-up --------------------------------------------------------------
    def setup(self, tracer=None):
        """``build_embedded`` through the first ``golden_trace()``.

        Returns (campaign, seconds, embed seconds, golden seconds)."""
        from repro.faults.campaign import Campaign
        from repro.workloads import WORKLOADS

        start = time.perf_counter()
        embedded = WORKLOADS[self.program].build_embedded()
        embedded_at = time.perf_counter()
        campaign = Campaign(embedded=embedded)
        golden_at = time.perf_counter()
        campaign.golden_trace()
        end = time.perf_counter()
        if tracer is not None:
            tracer.spans.append(["toolchain.embed", start, embedded_at,
                                 None, None, None])
            tracer.spans.append(["golden", golden_at, end, None, None, {
                "instructions": campaign.golden_length,
                "checkpoints": len(campaign.checkpoints())}])
        return campaign, end - start, embedded_at - start, end - golden_at

    # -- measurement ---------------------------------------------------------
    def draw_rounds(self, campaign):
        """An endless stream of rounds: one pool index per cost band,
        redrawn until the round's estimated cost is within ``BALANCE`` of
        the mean round's."""
        self.pool_plan = build_pool_plan(campaign, self.duration)
        cost = [entry["cost_s"] for entry in self.expected["pool"]]
        target = sum(sum(cost[i] for i in band) / len(band)
                     for band in self.bands)
        while True:
            picks = [self.rng.choice(band) for band in self.bands]
            if abs(sum(cost[i] for i in picks) - target) <= BALANCE * target:
                yield picks

    def run_round(self, campaign, picks, marks=None):
        """Run one round; returns (picks, records or None on error).

        ``marks`` (a list) receives the clock at the plan's start event
        and at each experiment's completion event."""
        from repro.runner import CallbackTelemetry, execute_plan
        from repro.runner.journal import result_to_record
        from repro.runner.plan import CampaignPlan

        plan = CampaignPlan(
            duration=self.duration, seed=PLAN_SEED,
            experiments=tuple(self.pool_plan.experiments[i] for i in picks))
        telemetry = None
        if marks is not None:
            telemetry = CallbackTelemetry(
                lambda event: marks.append(time.perf_counter()))
        try:
            summary = execute_plan(campaign, plan, telemetry=telemetry)
        except Exception as exc:  # noqa: BLE001 - counted as failed ops
            self.notes.append("round raised %s: %s"
                              % (type(exc).__name__, exc))
            return picks, None
        return picks, [result_to_record(r) for r in summary.results]

    def measure(self, campaign, rounds, seconds):
        """Two passes over the same rounds.  The first draws rounds until
        ``seconds / 2`` have passed, the second repeats them; each
        experiment counts with the shorter of its two times, which keeps
        bursts of host slowdown that hit one pass out of the figure.

        Returns (results of both passes, experiments per pass, seconds)."""
        first, first_marks = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds / 2:
            marks = []
            first.append(self.run_round(campaign, next(rounds), marks))
            first_marks.append(marks)
        results = list(first)
        total = 0.0
        for (picks, _), marks1 in zip(first, first_marks):
            marks2 = []
            results.append(self.run_round(campaign, picks, marks2))
            total += sum(min(a1 - a0, b1 - b0) for a0, a1, b0, b1 in zip(
                marks1, marks1[1:len(picks) + 1],
                marks2, marks2[1:len(picks) + 1]))
        return results, sum(len(picks) for picks, _ in first), total

    def paired(self, campaign, rounds, seconds, tracer):
        """Each experiment of each round untraced, then at once traced,
        until the untraced time passes ``seconds``.  Pairing close in
        time keeps host-speed drift out of the tracing overhead.
        Returns (untraced results, seconds, traced results, seconds)."""
        plain, traced = [], []
        plain_s = traced_s = 0.0
        while plain_s < seconds:
            for pick in next(rounds):
                start = time.perf_counter()
                plain.append(self.run_round(campaign, [pick]))
                middle = time.perf_counter()
                with instrument_engine(tracer):
                    traced.append(self.run_round(campaign, [pick]))
                plain_s += middle - start
                traced_s += time.perf_counter() - middle
        return plain, plain_s, traced, traced_s

    # -- output checks -------------------------------------------------------
    def check_records(self, results):
        """Every record must equal its committed expected record."""
        pool = self.expected["pool"]
        for picks, records in results:
            self.attempted += len(picks)
            if records is None:
                self.failed += len(picks)
                continue
            for index, record in zip(picks, records):
                if normalise(record) != pool[index]["record"]:
                    self.failed += 1
                    self.notes.append("experiment %s differs from expected"
                                      % self.pool_plan.experiments[index]
                                      .experiment_id)

    def check_reference(self, campaign, results):
        """Golden counts plus a cold from-zero re-classification sample."""
        golden, golden_final, cycles = reference_golden(campaign.embedded)
        expected = self.expected["golden"]
        self.attempted += 1
        if (len(golden) != expected["instructions"]
                or cycles != expected["cycles"]
                or golden != campaign.golden_trace()):
            self.failed += 1
            self.notes.append("golden run differs: %d instructions, %d "
                              "cycles" % (len(golden), cycles))
        observed = {}
        for picks, records in results:
            if records is not None:
                observed.update(zip(picks, records))
        ran = sorted(observed)
        for index in self.rng.sample(ran, min(REFERENCE_SAMPLE, len(ran))):
            planned = self.pool_plan.experiments[index]
            record = observed[index]
            fields = reference_classify(
                campaign.embedded, golden, golden_final, campaign.run_slack,
                planned.spec, self.duration, record["inject_at"])
            self.attempted += 1
            if any(record[key] != value for key, value in fields.items()):
                self.failed += 1
                self.notes.append("experiment %s: warm engine %s, cold "
                                  "reference %s" % (planned.experiment_id,
                                                    record, fields))

    # -- entry points --------------------------------------------------------
    def run_untraced(self):
        times = []
        campaign = None
        for _ in range(SETUP_REPEATS):
            campaign = None
            gc.collect()
            campaign, seconds, _, _ = self.setup()
            times.append(seconds)
        # The peak through set-up is the same for every seed; the peak
        # during experiments depends on which ones a seed draws and is
        # reported per layer (rss.peak_mb) by traced runs.
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rounds = self.draw_rounds(campaign)
        results, done, elapsed = self.measure(campaign, rounds, self.seconds)
        self.check_records(results)
        self.check_reference(campaign, results)
        return {
            "experiments_per_s": (done / elapsed, "1/s"),
            "setup_s": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }

    def run_traced(self):
        """Rounds over half the run time, each experiment untraced and
        traced.  Returns (per-layer metrics, {} (no service layers),
        tracer)."""
        tracer = Tracer()
        campaign, _, embed_s, golden_s = self.setup(tracer)
        rounds = self.draw_rounds(campaign)
        plain, plain_s, traced, traced_s = self.paired(
            campaign, rounds, self.seconds / 2, tracer)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.check_records(plain)
        self.check_records(traced)
        self.check_reference(campaign, traced)
        done = sum(len(picks) for picks, _ in plain)
        golden_instr = campaign.golden_length
        metrics = {
            "toolchain.embed_s": embed_s,
            "golden.s": golden_s,
            "golden.instructions": golden_instr,
            "golden.checkpoints": len(campaign.checkpoints()),
            "golden.checked_ips": golden_instr / golden_s,
            "engine.planned_experiment_s": plain_s / done,
            "rss.peak_mb": peak_kb / 1024.0,
            "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
        }
        metrics.update(engine_metrics(tracer, golden_s, traced_s))
        return metrics, {}, tracer
