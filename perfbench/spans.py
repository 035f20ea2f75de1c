"""In-memory span recorder and the outside-in wrappers of the engine layers.

A span is ``[name, start, end, parent, op, attrs]``: ``parent`` is the
index of the enclosing span (or None), ``op`` the experiment or job id it
belongs to, ``attrs`` a dict of counts taken at the same boundary.  Spans
stay in memory until :meth:`Tracer.dump` writes them out at the end of a
run.

:func:`instrument_engine` wraps the public names the campaign engine
calls, never code inside ``src/``:

* ``Campaign.run_planned`` - the per-experiment parent span;
* ``CheckedCore.__init__`` and ``CheckedCore.restore``;
* ``masking_loop`` / ``detection_loop`` under the names
  ``repro.faults.campaign`` imported them by, with the core's ``instret``
  read before and after each call.
"""

import json
import statistics
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """Spans of one single-threaded run, kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name, op=None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][OP]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, op, None])
        self._stack.append(index)
        return index

    def end(self, index, **attrs):
        span = self.spans[index]
        span[END] = time.perf_counter()
        if attrs:
            span[ATTRS] = attrs
        self._stack.pop()

    def unwind(self, index):
        """End every span opened inside span ``index`` (after an error)."""
        while self._stack[-1] != index:
            self.end(self._stack[-1])

    def named(self, name):
        return [span for span in self.spans if span[NAME] == name]

    def self_times(self):
        """Duration minus the time covered by direct children, per span.

        Children of one single-threaded parent never overlap, so the
        covered time is the sum of their durations.
        """
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def dump(self, path, extra=None):
        """Write every span (and ``extra``) as one JSON document."""
        origin = self.spans[0][START] if self.spans else 0.0
        own = self.self_times()
        rows = [{"name": span[NAME], "start": span[START] - origin,
                 "end": span[END] - origin, "self": own[i],
                 "parent": span[PARENT], "op": span[OP],
                 "attrs": span[ATTRS]}
                for i, span in enumerate(self.spans)]
        with open(path, "w") as handle:
            json.dump({"spans": rows, "summary": extra or {}}, handle)


@contextmanager
def instrument_engine(tracer):
    """Wrap the campaign engine's layer boundaries while the block runs."""
    import repro.faults.campaign as campaign_mod
    from repro.cpu.checkedcore import CheckedCore

    originals = {
        "run_planned": campaign_mod.Campaign.run_planned,
        "init": CheckedCore.__init__,
        "restore": CheckedCore.restore,
        "masking_loop": campaign_mod.masking_loop,
        "detection_loop": campaign_mod.detection_loop,
    }

    def run_planned(self, planned):
        index = tracer.begin("campaign.experiment", op=planned.experiment_id)
        try:
            return originals["run_planned"](self, planned)
        finally:
            tracer.end(index)

    def init(self, *args, **kwargs):
        index = tracer.begin("core.construct")
        try:
            originals["init"](self, *args, **kwargs)
        finally:
            tracer.end(index)

    def restore(self, snapshot):
        index = tracer.begin("core.restore")
        try:
            return originals["restore"](self, snapshot)
        finally:
            tracer.end(index)

    def masking_loop(core, injector, schedule, golden, golden_final, limit,
                     step, **kwargs):
        before = core.instret
        index = tracer.begin("masking")
        outcome = None
        try:
            outcome = originals["masking_loop"](
                core, injector, schedule, golden, golden_final, limit, step,
                **kwargs)
            return outcome
        finally:
            tracer.end(index, instructions=core.instret - before,
                       replay=max(schedule.inject_at - step, 0),
                       reconverged=bool(outcome and outcome[0]
                                        and not core.halted))

    def detection_loop(core, injector, schedule, golden, limit, step,
                       **kwargs):
        before = core.instret
        index = tracer.begin("detection")
        outcome = None
        try:
            outcome = originals["detection_loop"](
                core, injector, schedule, golden, limit, step, **kwargs)
            return outcome
        finally:
            tracer.end(index, instructions=core.instret - before,
                       replay=max(schedule.inject_at - step, 0),
                       detected=bool(outcome and outcome[0]))

    campaign_mod.Campaign.run_planned = run_planned
    CheckedCore.__init__ = init
    CheckedCore.restore = restore
    campaign_mod.masking_loop = masking_loop
    campaign_mod.detection_loop = detection_loop
    try:
        yield tracer
    finally:
        campaign_mod.Campaign.run_planned = originals["run_planned"]
        CheckedCore.__init__ = originals["init"]
        CheckedCore.restore = originals["restore"]
        campaign_mod.masking_loop = originals["masking_loop"]
        campaign_mod.detection_loop = originals["detection_loop"]


def _total(spans):
    return sum(span[END] - span[START] for span in spans)


def _attr_sum(spans, key):
    return sum(span[ATTRS][key] for span in spans)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def engine_metrics(tracer, golden_s, measured_s):
    """Per-layer engine metrics from the spans of one traced pass.

    ``golden_s`` is the traced golden run; ``measured_s`` the wall time
    of the traced experiment pass.  The cost model predicts
    ``golden_s + measured_s`` from the traced rates and counts.
    """
    experiments = tracer.named("campaign.experiment")
    constructs = tracer.named("core.construct")
    restores = tracer.named("core.restore")
    masking = tracer.named("masking")
    detection = tracer.named("detection")
    undetected = [span for span in detection if not span[ATTRS]["detected"]]
    own = tracer.self_times()
    durations = [span[END] - span[START] for span in experiments]

    masking_s = _total(masking)
    masking_instr = _attr_sum(masking, "instructions")
    detection_s = _total(detection)
    detection_instr = _attr_sum(detection, "instructions")
    unchecked_ips = _rate(masking_instr, masking_s)
    checked_ips = _rate(detection_instr, detection_s)
    restore_s = _total(restores)
    predicted = golden_s + restore_s
    if unchecked_ips:
        predicted += masking_instr / unchecked_ips
    if checked_ips:
        predicted += detection_instr / checked_ips
    actual = golden_s + measured_s
    return {
        "core.constructs": len(constructs),
        "core.construct_s": _total(constructs),
        "core.restores": len(restores),
        "core.restore_s": restore_s,
        "core.checked_ips": checked_ips,
        "core.unchecked_ips": unchecked_ips,
        "masking.calls": len(masking),
        "masking.s": masking_s,
        "masking.instructions": masking_instr,
        "masking.reconverged": sum(1 for span in masking
                                   if span[ATTRS]["reconverged"]),
        "detection.calls": len(detection),
        "detection.s": detection_s,
        "detection.instructions": detection_instr,
        "detection.detected": len(detection) - len(undetected),
        "detection.undetected_s": _total(undetected),
        "detection.undetected_instructions": _attr_sum(undetected,
                                                       "instructions"),
        "warmstart.replay_instructions": (_attr_sum(masking, "replay")
                                          + _attr_sum(detection, "replay")),
        "campaign.experiment_s_p50": median(durations),
        "campaign.experiment_s_max": max(durations, default=0.0),
        "campaign.self_s": sum(own[i] for i, span in enumerate(tracer.spans)
                               if span[NAME] == "campaign.experiment"),
        "model.predicted_s": predicted,
        "model.gap_pct": (100.0 * (actual - predicted) / actual
                          if actual > 0 else 0.0),
    }
