"""Regenerate the committed experiment pools under ``expected/``.

Usage, from the repository root::

    python3 perfbench/make_expected.py adpcm_enc-transient g721_dec-permanent

For each workload it plans ``POOL_SIZE`` experiments at ``PLAN_SEED``,
runs each one traced through ``Campaign.run_planned`` on a default
campaign and stores its result record, its masking and detection
instruction counts, and the golden run's instruction and cycle counts.

``cost_s`` ranks the pool into cost bands.  It is computed from the
instruction counts with rates measured over the whole pool, not from
each experiment's own wall time, so a burst of host load while the pool
is made cannot move an experiment into another band.  Regenerate only
when the engine's classification is meant to change, and say so.
"""

import json
import os
import platform
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from campaign_workloads import (CAMPAIGN_WORKLOADS, PLAN_SEED,  # noqa: E402
                                build_pool_plan, expected_path, normalise,
                                reference_golden)
from spans import ATTRS, END, START, Tracer, instrument_engine  # noqa: E402


def make(name):
    from repro.faults.campaign import Campaign
    from repro.runner.journal import result_to_record
    from repro.workloads import WORKLOADS

    program, duration, _ = CAMPAIGN_WORKLOADS[name]
    campaign = Campaign(embedded=WORKLOADS[program].build_embedded())
    golden, _, cycles = reference_golden(campaign.embedded)
    pool = []
    seconds = {"masking": 0.0, "detection": 0.0, "other": 0.0}
    for planned in build_pool_plan(campaign, duration):
        tracer = Tracer()
        with instrument_engine(tracer):
            result = campaign.run_planned(planned)
        entry = {"id": planned.experiment_id,
                 "record": normalise(result_to_record(result))}
        experiment = tracer.named("campaign.experiment")[0]
        seconds["other"] += experiment[END] - experiment[START]
        for loop in ("masking", "detection"):
            spans = tracer.named(loop)
            entry[loop + "_instructions"] = sum(
                span[ATTRS]["instructions"] for span in spans)
            loop_s = sum(span[END] - span[START] for span in spans)
            seconds[loop] += loop_s
            seconds["other"] -= loop_s
        pool.append(entry)
    rates = {loop: sum(e[loop + "_instructions"] for e in pool)
             / seconds[loop] for loop in ("masking", "detection")}
    overhead = seconds["other"] / len(pool)
    for entry in pool:
        entry["cost_s"] = round(
            entry["masking_instructions"] / rates["masking"]
            + entry["detection_instructions"] / rates["detection"]
            + overhead, 4)
    document = {
        "workload": name,
        "plan_seed": PLAN_SEED,
        "cost_host": "%s, Python %s" % (platform.machine(),
                                        platform.python_version()),
        "golden": {"instructions": len(golden), "cycles": cycles},
        "cost_model": {"masking_ips": rates["masking"],
                       "detection_ips": rates["detection"],
                       "overhead_s": overhead},
        "pool": pool,
    }
    os.makedirs(os.path.dirname(expected_path(name)), exist_ok=True)
    with open(expected_path(name), "w") as handle:
        json.dump(document, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    for workload in sys.argv[1:] or sorted(CAMPAIGN_WORKLOADS):
        make(workload)
