"""twistres benchmark: one run of one workload.

    python3 bench/run.py --workload presets --seed 1 --seconds 40 --trace 0

A run starts fresh worker processes (``bench/worker.py``) one after another,
single-threaded, closed loop: each worker builds the workload's inputs from
the seed, makes one checked pass over its cases and exits.  Another worker
starts while it is expected to end within ``--seconds``.  With ``--trace 0``
the run reports the end-to-end metrics (medians over its workers, and for
``setup_s`` also over extra set-up-only workers); with ``--trace 1`` it
alternates untraced and traced workers and reports the per-layer metrics
of the traced ones, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary.  The full record of the run (every worker, the run
context) is written to ``bench/out/runs/``; traced workers write their
spans to ``bench/out/spans/`` as JSON lines.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("presets", "filtered-ladder", "symbolic-checks")
RUN_LIMIT_S = 170.0   # a run must end within 180 s

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CALIBRATION_ITERATIONS = 1_000_000
SETUP_WORKERS = 15  # extra set-up-only workers of an untraced run


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_worker(workload, seed, timeout, spans_path=None, setup_only=False):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out after %.0f s" % timeout,
                "elapsed": time.monotonic() - t0}
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": "worker exit %d: %s" % (proc.returncode,
                                                 proc.stderr.strip()[-2000:]),
                "elapsed": elapsed}
    result = json.loads(lines[-1])
    result["elapsed"] = elapsed
    result["traced"] = bool(spans_path)
    result["setup_only"] = setup_only
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "twistres"
    if not (package / "__init__.py").is_file():
        print("bench: no twistres sources at %s" % package, file=sys.stderr)
        return 2
    # the build step: byte-compile once so that no worker pays for it
    if not compileall.compile_dir(str(package), quiet=1):
        print("bench: twistres sources do not compile", file=sys.stderr)
        return 2

    run_start = time.monotonic()
    calib_before = hostspeed.time_loop(CALIBRATION_ITERATIONS)
    spans_dir = OUT / "spans"
    if args.trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    workers = []
    while True:
        elapsed = time.monotonic() - run_start
        traced = sum(1 for w in workers if w.get("traced"))
        needed = len(workers) == traced or (args.trace and not traced)
        expected = statistics.median(w["elapsed"] for w in workers) \
            if workers else 0.0
        # start another pass only if it is expected to end within --seconds
        if not needed and elapsed + expected > args.seconds:
            break
        if workers and elapsed + 1.5 * expected > RUN_LIMIT_S:
            break
        spans_path = None
        if args.trace and len(workers) % 2 == 1:
            spans_path = spans_dir / ("%s-seed%d-%d.jsonl"
                                      % (args.workload, args.seed,
                                         len(workers)))
        workers.append(run_worker(args.workload, args.seed,
                                  RUN_LIMIT_S - elapsed, spans_path))
    setups = []
    if not args.trace:
        # set-up is short and noisy: take its median over more processes
        for _ in range(SETUP_WORKERS):
            elapsed = time.monotonic() - run_start
            setups.append(run_worker(args.workload, args.seed,
                                     RUN_LIMIT_S - elapsed, setup_only=True))
    calib_after = hostspeed.time_loop(CALIBRATION_ITERATIONS)

    ok = [w for w in workers if "error" not in w]
    plain = [w for w in ok if not w["traced"]]
    setup_rows = plain + [w for w in setups if "error" not in w]
    traced = [w for w in ok if w["traced"]]
    problems = [w["error"] for w in workers + setups if "error" in w]
    attempted = sum(w["attempted"] for w in ok) + len(problems)
    failed = sum(w["failed"] for w in ok) + len(problems)
    for w in ok:
        problems += w["failures"]
    shas = {w["context"]["report_sha256"] for w in ok
            if "report_sha256" in w["context"]}
    if len(shas) > 1:
        problems.append("same-seed reports differ between workers: %s"
                        % sorted(shas))
    if not plain or (args.trace and not traced):
        for text in problems:
            print("bench: %s" % text, file=sys.stderr)
        print("bench: no complete pass to report", file=sys.stderr)
        return 1

    def med(rows, key):
        return statistics.median(w[key] for w in rows)

    if args.trace:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(w["layers"][name]
                                             for w in traced)
        layers["trace.wall_s"] = med(traced, "wall_s")
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in layers.items()}
    else:
        values = {"wall_s": med(plain, "wall_s"),
                  "setup_s": med(setup_rows, "setup_s"),
                  "peak_rss_mb": med(plain, "peak_rss_mb")}
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in values.items()}

    context = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "calibration_s": {"before": calib_before, "after": calib_after},
        "raw_wall_s": med(plain, "raw_wall_s"),
        "raw_setup_s": med(setup_rows, "raw_setup_s"),
        "loop_median_s": med(plain, "loop_median_s"),
        "workers": {"untraced": len(plain), "traced": len(traced),
                    "setup_only": len(setups)},
    }
    if traced:
        # one or two passes each way: noise on a shared host, kept for
        # reference beside the estimate trace.overhead_s
        context["traced_minus_untraced_wall_s"] = (med(traced, "wall_s")
                                                   - med(plain, "wall_s"))
    for key in ("report_sha256", "report_sha256_noseed"):
        values = sorted({w["context"][key] for w in ok
                         if key in w["context"]})
        if values:
            context[key] = values[0] if len(values) == 1 else values
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "correct": failed == 0 and len(shas) <= 1,
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "metrics": metrics,
              "context": context, "problems": problems,
              "workers": workers + setups}
    runs_dir = OUT / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    record_path = runs_dir / ("%s-seed%d-trace%d.json"
                              % (args.workload, args.seed, args.trace))
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print("workload %s, seed %d, %d untraced + %d traced worker(s), "
          "python %s, nproc %s" % (args.workload, args.seed, len(plain),
                                   len(traced), context["python"],
                                   context["nproc"]))
    print("calibration loop: %.4f s before, %.4f s after; sampled loop "
          "median %.3g s (reference %.3g s)"
          % (calib_before, calib_after, context["loop_median_s"],
             hostspeed.REFERENCE_LOOP_S))
    print("as measured: wall %.4f s, setup %.4f s (medians; the metrics "
          "below are scaled to the reference speed)"
          % (context["raw_wall_s"], context["raw_setup_s"]))
    if "report_sha256" in context:
        print("presets report sha256: %s" % (context["report_sha256"],))
    for name, m in metrics.items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-36s %14.6g ratio (%d failed of %d cases)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    for text in problems[:20]:
        print("  problem: %s" % text)
    print("record: %s" % record_path.relative_to(ROOT))
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
