"""End-to-end benchmark of the DDP / ZeRO-3 training stack (see README.md).

    python3 benchmarks/e2e/run.py --workload tfm_ddp_w2 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics, no ``--trace`` both.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import os
import sys
import time

_T0 = time.time()
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_START_VAR = "REPRO_E2E_T0"

if __name__ == "__main__" and (
    "numpy" in sys.modules or any(os.environ.get(v) != "1" for v in BLAS_VARS)
):
    # The BLAS pool sizes itself when numpy is first imported, so the
    # variables must be in the environment of a fresh interpreter.
    if _START_VAR in os.environ:
        sys.exit("benchmarks/e2e: BLAS pin did not survive re-exec")
    os.environ.update({v: "1" for v in BLAS_VARS}, **{_START_VAR: repr(_T0)})
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse
import json
import platform
import subprocess
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")


def os_threads() -> int:
    """Threads of this process as the kernel counts them (0 = unknown)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def environment(np) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        **{v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "git_sha": sha,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1"), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics, omitted: both")
    parser.add_argument("--quick", action="store_true",
                        help="2 %% of the iterations; numbers are not comparable")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"benchmarks/e2e: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    launch_wall0 = float(os.environ.get(_START_VAR, _T0))

    import numpy as np

    np.ones((64, 64)) @ np.ones((64, 64))  # a BLAS pool, if there is one, exists now
    pinned = os_threads() <= 1 and all(os.environ.get(v) == "1" for v in BLAS_VARS)

    from harness import run_workload
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    iters = workload.timed_iters(
        args.seconds / spec["run_seconds"] * (0.02 if args.quick else 1.0))
    want_e2e, want_layers = args.trace != "1", args.trace != "0"
    wanted = [m for key, on in (("end_to_end", want_e2e), ("per_layer", want_layers))
              if on for m in spec[key]]
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "comparable": not args.quick, "constants": workload.constants(),
        "environment": environment(np),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    launch_s = time.time() - launch_wall0

    try:
        if not pinned:
            raise RuntimeError(f"BLAS pin did not take ({os_threads()} OS threads after import)")
        outcome = run_workload(workload, args.seed, iters, want_e2e, want_layers,
                               OUT_DIR, launch_s)
        missing = [m["name"] for m in wanted if m["name"] not in outcome["metrics"]]
        if missing:
            outcome["problems"].append(f"metrics not measured: {missing}")
            outcome["failed"] = outcome["attempted"]
    except Exception:  # the boundary: a run that raised reports every iteration failed
        traceback.print_exc()
        outcome = {"metrics": {}, "notes": {}, "attempted": iters, "failed": iters,
                   "problems": ["run raised; see traceback on stderr"]}

    metrics = {
        m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in outcome["metrics"]
    }
    result = {"correct": not outcome["problems"], "attempted": outcome["attempted"],
              "failed": outcome["failed"], "metrics": metrics}
    record.update(result, notes=outcome["notes"], problems=outcome["problems"])
    with open(os.path.join(OUT_DIR, f"{workload.name}.result.json"), "w") as handle:
        json.dump(record, handle, indent=1)

    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "comparable", "constants", "environment")}))
    if args.quick:
        print("QUICK RUN: 2 % of the iterations, numbers are NOT comparable")
    for name, entry in metrics.items():
        print(f"{name:28s} {entry['value']:14.6g} {entry['unit']}")
    notes = outcome["notes"]
    if notes:
        print(f"speed factor {notes['speed_factor']:.4f} (see calibrate.py); as the clocks "
              "gave them: " + ", ".join(f"{k} {v:.6g}" for k, v in notes["raw"].items()))
    if "where_ms" in notes:
        total = notes["traced_iter_ms_p50"]
        print(f"where an iteration goes ({workload.name}, traced p50 {total:.2f} ms; "
              "self time, mean of ranks, median of iterations)")
        for name, value in notes["where_ms"].items():
            if value:
                print(f"  {name:12s} {value:9.3f} ms {100 * value / total:5.1f} %")
    for problem in outcome["problems"]:
        print("PROBLEM:", problem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
