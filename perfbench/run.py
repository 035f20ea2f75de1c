"""Repository benchmark: one workload per invocation, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload adpcm_enc-transient --seed 1 \\
        --seconds 15 --trace 0

Workloads (see ``PROVENANCE.json`` for why each was chosen, which layers
it loads and what each layer metric should move):

* ``adpcm_enc-transient`` / ``g721_dec-permanent`` - default-configuration
  campaigns, serial and in-process (``campaign_workloads.py``);
* ``service-stress-resubmit`` - a closed-loop client against
  ``argus-repro serve --workers 2`` (``service_workload.py``).

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures untraced for half the run time, then runs the same
inputs again with spans around every layer boundary, and reports the
per-layer metrics, the tracing overhead (traced minus untraced wall time
on identical work) and the cost model's gap.  Spans are written to
``.bench_run/traces/`` when the run ends.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program under test is
imported from ``src/`` of the current directory; without it the
benchmark exits with status 2 and prints no result.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys

#: Per-layer metrics every workload reports in a traced run, with units.
LAYER_UNITS = {
    "toolchain.embed_s": "s",
    "golden.s": "s",
    "golden.instructions": "count",
    "golden.checkpoints": "count",
    "golden.checked_ips": "1/s",
    "core.constructs": "count",
    "core.construct_s": "s",
    "core.restores": "count",
    "core.restore_s": "s",
    "core.checked_ips": "1/s",
    "core.unchecked_ips": "1/s",
    "masking.calls": "count",
    "masking.s": "s",
    "masking.instructions": "count",
    "masking.reconverged": "count",
    "detection.calls": "count",
    "detection.s": "s",
    "detection.instructions": "count",
    "detection.detected": "count",
    "detection.undetected_s": "s",
    "detection.undetected_instructions": "count",
    "warmstart.replay_instructions": "count",
    "campaign.experiment_s_p50": "s",
    "campaign.experiment_s_max": "s",
    "campaign.self_s": "s",
    "engine.planned_experiment_s": "s",
    "rss.peak_mb": "MB",
    "model.predicted_s": "s",
    "model.gap_pct": "%",
    "trace.overhead_pct": "%",
}

WORKLOADS = ("adpcm_enc-transient", "g721_dec-permanent",
             "service-stress-resubmit")


def git_sha(root):
    """The checked-out commit, or None outside a git work tree."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as handle:
            return handle.read().strip()
    return None


def source_digest(root):
    """SHA-256 over every file under ``src/``: names the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def provenance(root, args):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": platform.node(), "machine": platform.machine(),
            "nproc": nproc, "python": platform.python_version(),
            "git_sha": git_sha(root), "source_digest": source_digest(root)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under %s; run from the repository "
              "root" % root, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    scratch = os.path.join(root, ".bench_run",
                           "%s-%d-%d" % (args.workload, args.seed,
                                         os.getpid()))
    os.makedirs(scratch)
    info = provenance(root, args)
    print("provenance %s" % json.dumps(info, sort_keys=True), flush=True)

    try:
        if args.workload == "service-stress-resubmit":
            from service_workload import ServiceWorkload

            workload = ServiceWorkload(args.workload, args.seed,
                                       args.seconds, root, scratch)
        else:
            from campaign_workloads import CampaignWorkload

            workload = CampaignWorkload(args.workload, args.seed,
                                        args.seconds)
        if args.trace:
            metrics, service_layers, tracer = workload.run_traced()
            for name, (value, unit) in sorted(service_layers.items()):
                print("service layer %s = %r %s" % (name, value, unit))
            traces = os.path.join(root, ".bench_run", "traces")
            os.makedirs(traces, exist_ok=True)
            tracer.dump(os.path.join(traces, "%s-seed%d.json"
                                     % (args.workload, args.seed)),
                        {"provenance": info, "layers": metrics,
                         "service_layers": service_layers})
            result = {name: {"value": metrics[name], "unit": unit}
                      for name, unit in LAYER_UNITS.items()}
        else:
            metrics = workload.run_untraced()
            result = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in metrics.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for note in workload.notes:
        print("check: %s" % note)
    print(json.dumps({"correct": workload.failed == 0,
                      "attempted": workload.attempted,
                      "failed": workload.failed,
                      "metrics": result}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
