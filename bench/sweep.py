"""Run the benchmark over several seeds and summarise one set of runs.

    python3 bench/sweep.py --seeds 1-10 --out bench/out/set1.json
    python3 bench/sweep.py --compare bench/out/set1.json bench/out/set2.json

For each workload and seed it runs ``bench/run.py`` untraced, then one traced
run per workload, and writes a summary: per end-to-end metric the ten
values, their median and quartiles, and the spread (third quartile minus
first, as a share of the median) next to the metric's bound from
``BENCHMARK.json``.  It also checks that every run was correct, that the
presets report is byte-identical across seeds once the seed is blanked
(one digest for the set, or the set is not correct), and (with
``--compare``) that both sets are correct with the same presets digest, that
the second set's medians are no worse than the first's by more than each
bound, and that its per-layer counts are equal.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=180)
    if proc.returncode != 0:
        raise SystemExit("run failed (%s):\n%s" % (" ".join(cmd),
                                                   proc.stderr))
    record = ROOT / proc.stdout.strip().splitlines()[-2].split(": ", 1)[1]
    return json.loads(proc.stdout.strip().splitlines()[-1]), \
        json.loads(record.read_text())


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def report_digests(runs):
    """The seed-blanked presets report digests of a set's runs."""
    out = set()
    for r in runs:
        value = r["context"].get("report_sha256_noseed")
        if isinstance(value, list):
            out.update(value)
        elif value:
            out.add(value)
    return out


def sweep(seeds, seconds, trace_seed):
    summary = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for wl in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in seeds:
            result, record = run_once(wl, seed, seconds, 0)
            runs.append({"seed": seed, "result": result,
                         "context": record["context"]})
            print(wl, seed, {k: round(v["value"], 4)
                             for k, v in result["metrics"].items()},
                  file=sys.stderr)
        traced, trecord = run_once(wl, trace_seed, seconds, 1)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            metrics[name] = dict(stats, values=values, bound=bound,
                                 steady=stats["spread"] < bound / 3)
        digests = sorted(report_digests(runs))
        # the presets report, seed blanked, is one byte string for the set
        same_report = len(digests) == 1 if wl == "presets" else not digests
        summary["workloads"][wl] = {
            "all_correct": all(r["result"]["correct"] for r in runs)
            and traced["correct"] and same_report,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "report_sha256_noseed": digests,
            "metrics": metrics,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
            "runs": runs,
            "traced_run": {"seed": trace_seed,
                           "context": trecord["context"]},
        }
    return summary


def compare(first, second):
    """Lines describing how the second set stands against the first."""
    bad = []
    for wl, one in first["workloads"].items():
        two = second["workloads"][wl]
        for s in (one, two):
            if not s["all_correct"]:
                print("%-16s a set has an incorrect run" % wl)
                bad.append((wl, "correct"))
        if one["report_sha256_noseed"] != two["report_sha256_noseed"]:
            print("%-16s presets report digests differ: %s vs %s"
                  % (wl, one["report_sha256_noseed"],
                     two["report_sha256_noseed"]))
            bad.append((wl, "report_sha256_noseed"))
        for name, m in one["metrics"].items():
            change = two["metrics"][name]["median"] / m["median"] - 1
            verdict = "ok" if change <= m["bound"] else "WORSE"
            print("%-16s %-12s %+.3f (bound %.2f) %s"
                  % (wl, name, change, m["bound"], verdict))
            if verdict != "ok":
                bad.append((wl, name))
        for name, value in one["per_layer"].items():
            if LAYER_UNITS.get(name) == "count" and \
                    two["per_layer"][name] != value:
                print("%-16s %s differs: %r vs %r"
                      % (wl, name, value, two["per_layer"][name]))
                bad.append((wl, name))
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return 1 if compare(first, second) else 0
    summary = sweep(args.seeds, args.seconds, args.trace_seed)
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
    for wl, s in summary["workloads"].items():
        for name, m in s["metrics"].items():
            print("%-16s %-12s median %.4f spread %.3f (bound %.2f) %s"
                  % (wl, name, m["median"], m["spread"], m["bound"],
                     "steady" if m["steady"] else "NOT STEADY"))
        print("%-16s correct %s, %d failed of %d, noseed sha %s"
              % (wl, s["all_correct"], s["failed"], s["attempted"],
                 s["report_sha256_noseed"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
