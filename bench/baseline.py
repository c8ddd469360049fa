"""Run every workload and write a baseline file.

    python3 bench/baseline.py --seed 1 --holdout-seed 2 --seconds 30 \
        --out bench/results/baseline.json

Run it from the repository root. For each workload it makes one untraced
run per seed (the end-to-end metrics; the hold-out seed is one not used
while a change was written) and two traced runs on the first seed. The two
traced runs must agree on every count (calls, dataset evaluations, Jacobian
builds, LM and EM iterations, bisection evaluations) and every run of one
seed must write byte-identical ``--no-timestamp`` reports; the exit code is
1 when they do not, or when any run reports ``correct: false``.

It prints one table of the end-to-end metrics for every workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads

RUN_TIMEOUT_S = 900
DETAIL_KEYS = ("attempted", "failed", "fail_ratio", "failures", "op_samples",
               "op_tail_percentile", "op_tail_samples_beyond", "op_p50_kind", "op_tail_kind",
               "by_kind", "report_digest", "report_digests", "inputs_digest", "setup_walls_s")


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                        "run_bench.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2].split(" ", 1)[1])
    return result, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--holdout-seed", type=int, default=2)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--out", required=True, help="baseline JSON to write")
    args = p.parse_args(argv)

    doc = {"seconds": args.seconds, "seeds": [args.seed, args.holdout_seed], "workloads": {}}
    ok = True
    for name in workloads.WORKLOADS:
        entry = {"runs": {}}
        for seed in (args.seed, args.holdout_seed):
            result, details = _run(name, seed, args.seconds, 0)
            doc.setdefault("env", {k: v for k, v in details["env"].items()
                                   if k not in ("workload", "seed", "trace")})
            entry["runs"][str(seed)] = {
                "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                **{k: details[k] for k in DETAIL_KEYS},
            }
            ok &= result["correct"]
        traced = [_run(name, args.seed, args.seconds, 1) for _ in range(2)]
        (first, first_details), (second, second_details) = traced
        digests = {entry["runs"][str(args.seed)]["report_digest"]}
        digests |= {d["report_digest"] for _, d in traced}
        counts_identical = first_details["cycle_counts"] == second_details["cycle_counts"]
        reports_identical = len(digests) == 1
        entry["per_layer"] = {k: v["value"] for k, v in first["metrics"].items()}
        entry["cycle_counts"] = first_details["cycle_counts"]
        entry["first_cycle_fits"] = first_details["first_cycle_fits"]
        entry["determinism"] = {"seed": args.seed, "counts_identical": counts_identical,
                                "reports_identical": reports_identical}
        ok &= counts_identical and reports_identical and first["correct"] and second["correct"]
        doc["workloads"][name] = entry

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")

    columns = (("op_p50_s", "s"), ("op_tail_s", "s"), ("ops_per_s", "1/s"),
               ("fail_ratio", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
    print(f"{'workload':16s} {'seed':>5s} " + " ".join(f"{n:>12s}" for n, _ in columns))
    print(" " * 23 + " ".join(f"{'[' + u + ']':>12s}" for _, u in columns))
    for name, entry in doc["workloads"].items():
        for seed, run in entry["runs"].items():
            m = run["metrics"]
            print(f"{name:16s} {seed:>5s} {m['op_p50_s']:12.5g} {m['op_tail_s']:12.5g} "
                  f"{m['ops_per_s']:12.5g} {run['fail_ratio']:12.5g} {m['setup_s']:12.5g} "
                  f"{m['peak_rss_mb']:12.5g}")
        det = entry["determinism"]
        print(f"{name:16s} determinism on seed {det['seed']}: counts identical "
              f"{det['counts_identical']}, reports identical {det['reports_identical']}, "
              f"tracing overhead {entry['per_layer']['trace.overhead_ratio']:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
