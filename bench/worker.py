"""One measured process of the benchmark: import twistres from the checkout's
``src/``, build one workload's inputs, run one pass over its cases, and
print one JSON line with the pass's timings, memory and verdicts.

Times are reported twice: as measured (``raw_wall_s``, ``raw_setup_s``) and
scaled to the reference host speed (``wall_s``, ``setup_s``; see
``hostspeed.py``), with the time spent sampling the host's speed removed.
With ``--setup-only`` the worker exits after set-up and reports only that.

Started by ``bench/run.py``; each pass runs in a fresh interpreter so that
set-up time and peak memory belong to one workload, and no cache inside
the program carries over from an earlier pass.

    python3 bench/worker.py --workload presets --seed 1 --t0 <monotonic>
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parents[1]
SETUP_SAMPLES = 20   # loop samples that give the set-up's host speed


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--spans", metavar="PATH",
                        help="trace the pass and write its spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up, reporting only its time")
    args = parser.parse_args(argv)
    sampler = hostspeed.Sampler()
    sampler.start()

    sys.path.insert(0, str(ROOT / "src"))
    import twistres
    if Path(twistres.__file__).resolve().parent != ROOT / "src" / "twistres":
        raise SystemExit("twistres imported from %s, not from this checkout"
                         % twistres.__file__)

    recorder = None
    if args.spans:
        import spans
        recorder = spans.Recorder("%s-%d-%d" % (args.workload, args.seed,
                                                os.getpid()))
        spans.install(recorder)
    import workloads  # after install, so its imported names are wrapped

    steps = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    setup_spent = sampler.spent
    sampler.burst(SETUP_SAMPLES)
    out = {"setup_s": (setup_s - setup_spent) * sampler.scale(),
           "raw_setup_s": setup_s}
    if args.setup_only:
        sampler.stop()
        print(json.dumps(out))
        return 0

    attempted = 0
    failures = []
    first = len(sampler.samples)
    setup_spans = len(recorder.spans) if recorder else 0
    pass_start_spent = sampler.spent
    start = time.perf_counter()
    for step in steps:
        idx = recorder.open("bench.case") if recorder else None
        n, bad = workloads.evaluate(step)
        if recorder:
            recorder.close(idx)
        attempted += n
        failures += bad
    wall_s = time.perf_counter() - start
    sampler.stop()
    scale = sampler.scale(first)

    out.update({
        "wall_s": (wall_s - (sampler.spent - pass_start_spent)) * scale,
        "raw_wall_s": wall_s,
        "loop_median_s": hostspeed.REFERENCE_LOOP_S / scale,
        "loop_samples": len(sampler.samples) - first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "context": {k: v for step in steps for k, v in step.context.items()},
    })
    if recorder:
        # self times in the same reference-speed seconds as wall_s
        layers = spans.layer_metrics(recorder.spans)
        out["layers"] = {k: v * scale if k.endswith("_s") else v
                         for k, v in layers.items()}
        out["layers"]["trace.spans"] = len(recorder.spans)
        # what the pass's spans cost it, at reference speed
        out["layers"]["trace.overhead_s"] = (
            spans.span_cost() * (len(recorder.spans) - setup_spans) * scale)
        spans.write_jsonl(recorder, args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
