"""Run N full sets of the benchmark and show how well they repeat.

    python3 benchmarks/e2e/repeat.py --sets 2 --save results/two_sets.md
    python3 benchmarks/e2e/repeat.py --sets 10 --vary-seed --save results/ten_seeds.md

One set = every workload at BENCHMARK.json's ``run_seconds``, once with
``--trace 0`` and once with ``--trace 1``, each a fresh process.  Per
workload it prints every end-to-end metric's min / median / max over the
sets, the spread (interquartile range, or the range below four sets, as a
share of the median) next to the metric's bound, and whether each
exact-count metric was identical in all sets; under each scaled duration
(see calibrate.py) a ``raw`` row shows it as the clocks gave it; then every
other per-layer metric's min / median / max.  The exit
code is 1 when a run was incorrect, a spread is wider than its bound or a
count differs.
``--vary-seed`` gives set *i* the seed ``--seed + i``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Metrics that count work and must not differ between runs of one checkout.
EXACT = (
    "peak_mb_per_rank", "comm.calls_per_iter", "comm.payload_mb_per_iter",
    "comm.wire_mb_per_iter", "comm.msgs_per_iter", "core.num_buckets",
    "core.grad_copy_count", "sharded.gathers_per_iter", "sharded.ag_mb_per_iter",
    "sharded.rs_mb_per_iter",
)


def run_once(spec: dict, workload: str, seed: int, trace: str) -> dict:
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", trace]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if trace == "0":  # the unscaled values, to show next to the reported ones
        with open(os.path.join(HERE, "out", f"{workload}.result.json")) as handle:
            for name, value in json.load(handle)["notes"]["raw"].items():
                result["metrics"][f"raw {name}"] = {"value": value}
    return result


def spread(values) -> float:
    """(Q3 − Q1) / median, the contract's measure of steadiness; with fewer
    than four values, where quartiles are extrapolated, (max − min) / median."""
    if not statistics.median(values):
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--save", help="also write the table to this file under benchmarks/e2e/")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = [f"sets={args.sets} seed={args.seed}{'+i' if args.vary_seed else ''} "
             f"seconds={spec['run_seconds']}", ""]
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values, verdicts = {}, []
        for i in range(args.sets):
            for trace in ("0", "1"):
                result = run_once(spec, workload, args.seed + i * args.vary_seed, trace)
                verdicts.append(result["correct"] and result["failed"] == 0)
                for name, entry in result["metrics"].items():
                    values.setdefault(name, []).append(entry["value"])
        lines.append(f"## {workload}: {sum(verdicts)}/{len(verdicts)} runs correct with 0 failed")
        all_ok &= all(verdicts)
        lines.append("| metric | min | median | max | spread | bound | |")
        lines.append("|---|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            v = values[name]
            ok = spread(v) <= bound
            all_ok &= ok
            lines.append(f"| {name} | {min(v):.6g} | {statistics.median(v):.6g} | {max(v):.6g} "
                         f"| {100 * spread(v):.2f} % | {100 * bound:g} % | {'ok' if ok else 'WIDE'} |")
            for key, v in values.items():
                if key.startswith(f"raw {name}"):
                    lines.append(f"| … {key} | {min(v):.6g} | {statistics.median(v):.6g} "
                                 f"| {max(v):.6g} | {100 * spread(v):.2f} % | | not gated |")
        for name in EXACT:
            same = len(set(values[name])) == 1
            all_ok &= same
            lines.append(f"| {name} | {min(values[name]):.9g} | | {max(values[name]):.9g} "
                         f"| | exact | {'identical' if same else 'DIFFERS'} |")
        lines += ["", "| per-layer metric | min | median | max | unit |", "|---|---|---|---|---|"]
        for metric in spec["per_layer"]:
            if metric["name"] not in EXACT:
                v = values[metric["name"]]
                lines.append(f"| {metric['name']} | {min(v):.5g} | {statistics.median(v):.5g} "
                             f"| {max(v):.5g} | {metric['unit']} |")
        lines.append("")
    text = "\n".join(lines)
    print(text)
    if args.save:
        path = os.path.join(HERE, args.save)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(text + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
