"""End-to-end and per-layer benchmark of the linetherm CLI.

    python3 bench/run_bench.py --workload cooling_joint --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``.

One run:

1. Set-up, repeated ``SETUP_REPEATS`` times: a fresh interpreter runs
   ``bench/workloads.py``, which imports ``linetherm.cli`` and writes the
   workload's seeded inputs and its plan of commands into a new directory.
   ``setup_s`` is the median wall time of these processes. Every repeat
   must write byte-identical inputs.
2. Measurement: one client in a closed loop calls ``linetherm.cli.main(argv)``
   in this process, command after command, cycling through the plan until
   ``--seconds`` have passed. A command's time runs from the call to the
   return, after its report is written.
3. Checks: every report is compared with the synthetic truth (see
   ``workloads.py``); a report must also be byte-identical to the one the
   same command wrote in the first cycle.

With ``--trace 0`` the whole measurement is untraced and the end-to-end
metrics are printed. With ``--trace 1`` untraced cycles alternate with
cycles run under the wrappers of ``tracer.py`` for two thirds of
``--seconds``; the per-layer metrics are printed per command, with the
tracing overhead: the time of the traced cycles over the untraced ones,
minus one. Every traced cycle must give the same counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
checked results and ``failed`` the results that failed. ``correct`` is false
when a result fails that is not a known defect recorded in ``workloads.py``,
or when a determinism or coverage self-check fails. The line before it is a
``details`` JSON object with the environment, every failure and the report
digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 30
MAX_FAILURE_LINES = 20

END_TO_END = (
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("pass_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics, per command unless named otherwise (setup_*, *_per_*,
# *_ratio). A metric reads 0 when the workload does not use that layer.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.parser_s", "s"),
    ("cli.self_s", "s"),
    ("dataio.read_s", "s"),
    ("dataio.rows_read", "count"),
    ("dataio.write_s", "s"),
    ("dataio.rows_written", "count"),
    ("dataio.setup_write_s", "s"),
    ("dataio.setup_rows_written", "count"),
    ("shotnoise.inverse_calls", "count"),
    ("shotnoise.inverse_s", "s"),
    ("shotnoise.forward_evals_per_inverse", "count"),
    ("shotnoise.forward_calls", "count"),
    ("shotnoise.forward_s", "s"),
    ("shotnoise.bose_einstein_calls", "count"),
    ("fitkit.fits", "count"),
    ("fitkit.fit_s", "s"),
    ("fitkit.lm_iterations", "count"),
    ("fitkit.jacobian_builds", "count"),
    ("fitkit.jacobian_s", "s"),
    ("fitkit.dataset_evals", "count"),
    ("fitkit.dataset_evals_per_jacobian", "count"),
    ("fitkit.residual_s", "s"),
    ("fitkit.self_s", "s"),
    ("fitkit.converged_ratio", "ratio"),
    ("heatpulse.fit_s", "s"),
    ("heatpulse.self_s", "s"),
    ("iqtemp.sweep_s", "s"),
    ("iqtemp.fit_s", "s"),
    ("iqtemp.em_iterations", "count"),
    ("iqtemp.s_per_em_iteration", "s"),
    ("iqtemp.converged_ratio", "ratio"),
    ("decoherence.fit_s", "s"),
    ("fin.extract_s", "s"),
    ("fin.invert_ratio_calls", "count"),
    ("resonator.fit_s", "s"),
    ("synth.gen_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Per-layer counts each workload must move. A zero means a wrapper missed
# the name a consumer calls (heatpulse, for one, binds joint_fit and
# dephasing_full with ``from ... import``). A change that removes one of
# these calls on purpose updates this list first, in a change of its own.
EXERCISED = {
    "cooling_joint": ("cli.parser_s", "dataio.rows_read", "shotnoise.inverse_calls",
                      "shotnoise.forward_calls", "fitkit.fits", "fitkit.lm_iterations",
                      "fitkit.dataset_evals", "heatpulse.fit_s"),
    "iq_sweep": ("cli.parser_s", "dataio.rows_read", "iqtemp.sweep_s", "iqtemp.fit_s",
                 "iqtemp.em_iterations"),
    "interactive_mix": ("cli.parser_s", "dataio.rows_read", "dataio.rows_written",
                        "shotnoise.inverse_calls", "shotnoise.forward_calls",
                        "fitkit.fits", "fitkit.dataset_evals", "decoherence.fit_s",
                        "fin.extract_s", "fin.invert_ratio_calls", "resonator.fit_s"),
}
SETUP_EXERCISED = ("cli.import_s", "synth.gen_s", "dataio.setup_write_s",
                   "dataio.setup_rows_written")

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run in this directory; no result is printed."""


def _parse_args(argv):
    p = argparse.ArgumentParser(description="linetherm CLI benchmark")
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _pin_blas_threads() -> int:
    """One BLAS thread count for this process and its children, at most nproc."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in BLAS_VARS:
        try:
            threads = min(threads, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    threads = max(threads, 1)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def _commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest(src):
    h = hashlib.sha256()
    pkg = os.path.join(src, "linetherm")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _environment(root, src, args, blas_threads):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "machine": platform.machine(),
        "commit": _commit(root),
        "src_sha256": _source_digest(src),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, in-process cli.main(argv)",
    }


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def _setup(root, src, work, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                        "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--out"]
    walls, reports = [], []
    # Each repeat writes a new directory, as a first set-up does; rewriting
    # existing files would time truncation instead.
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = os.path.join(work, f"setup{i}")
        proc = subprocess.run(cmd + [out], cwd=root, env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report.update(rows_written=workloads.csv_rows(out), digest=workloads.dir_digest(out))
        reports.append(report)
    digests = {r["digest"] for r in reports}

    def median(key):
        return statistics.median(r[key] for r in reports)

    return {
        "setup_s": statistics.median(walls),
        "setup_walls_s": walls,
        "cli.import_s": median("import_s"),
        "synth.gen_s": median("gen_s"),
        "dataio.setup_write_s": median("write_s"),
        "dataio.setup_rows_written": median("rows_written"),
        "inputs_dir": os.path.join(work, "setup0"),
        "inputs_digest": reports[0]["digest"],
        "inputs_identical": len(digests) == 1,
    }


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

_MISSING = object()


def _lookup(doc, path):
    for key in path:
        try:
            doc = doc[key]
        except (KeyError, IndexError, TypeError):
            return _MISSING
    return doc


def _check_value(doc, check):
    """None when the check passes, else the reason it fails."""
    kind = check["type"]
    if kind == "iq_cloud":
        result = doc.get("result", {})
        index = check["index"]
        for item in result.get("excluded", []):
            if item.get("index") == index:
                return f"left out of the report: {item.get('reason')}"
        skipped = sum(1 for item in result.get("excluded", []) if item.get("index") < index)
        value = _lookup(result, ["clouds", index - skipped, "t_q_k"])
        label = "t_q_k"
    else:
        value = _lookup(doc, check["path"])
        label = "/".join(str(p) for p in check["path"])
    if value is _MISSING or value is None:
        return f"{label} missing from the report"
    if kind == "equals":
        return None if value == check["expected"] else (
            f"{label} = {value!r}, expected {check['expected']!r}")
    truth = check["truth"]
    tol = max((check.get("rel") or 0.0) * abs(truth), check.get("abs") or 0.0)
    if not isinstance(value, (int, float)) or not abs(value - truth) <= tol:
        return (f"{label} = {value!r}, truth {truth!r}, tolerance {tol:.3g} "
                f"({check['source']})")
    return None


def _judge(command, code, stderr, report_bytes):
    """(label, reason or None, known_defect) for each result of one command."""
    results = command["results"]
    if code != command["expect_exit"]:
        first = stderr.strip().splitlines()[0] if stderr.strip() else ""
        reason = f"exit {code}, expected {command['expect_exit']}: {first[:300]}"
        return [(r["label"], reason, r.get("known_defect")) for r in results]
    if command["expect_exit"] != 0:
        try:
            err_type = json.loads(stderr.strip().splitlines()[-1])["error"]["type"]
        except (ValueError, KeyError, IndexError, TypeError):
            err_type = None
        reason = None if err_type == command["expect_error"] else (
            f"error type {err_type!r}, expected {command['expect_error']!r}")
        return [(r["label"], reason, r.get("known_defect")) for r in results]
    try:
        doc = json.loads(report_bytes)
    except (TypeError, ValueError):
        return [(r["label"], "report missing or not JSON", r.get("known_defect"))
                for r in results]
    out = []
    for r in results:
        reasons = [m for m in (_check_value(doc, c) for c in r["checks"]) if m]
        out.append((r["label"], "; ".join(reasons) or None, r.get("known_defect")))
    return out


class Ledger:
    """Checked results, failures and report digests across all cycles."""

    def __init__(self, n_commands):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures = {}
        self.known_passed = set()
        self.first_digest = [None] * n_commands
        self.nondeterministic = set()

    def record(self, index, command, code, stderr, report_bytes):
        digest = hashlib.sha256(report_bytes or b"").hexdigest()
        if self.first_digest[index] is None:
            self.first_digest[index] = digest
        elif self.first_digest[index] != digest:
            self.nondeterministic.add(index)
        for label, reason, known in _judge(command, code, stderr, report_bytes):
            self.attempted += 1
            if reason is None:
                if known:
                    self.known_passed.add(label)
                continue
            self.failed += 1
            if not known:
                self.unexpected += 1
            self.failures.setdefault((index, label), {
                "command": " ".join(command["argv"][:4]) + " ...",
                "result": label, "reason": reason, "known_defect": known, "times": 0,
            })["times"] += 1

    def report_digest(self):
        h = hashlib.sha256()
        for d in self.first_digest:
            h.update((d or "-").encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _run_cycles(cli, commands, seconds, ledger, tracer=None, whole_cycles=True):
    """Commands of the plan in order, cycle after cycle, for `seconds`.

    With whole_cycles the loop stops at the first cycle end after `seconds`,
    otherwise at the first command end, but never before every command has
    run once. Returns the per-command times and, when traced, the tracer's
    counts after each cycle.
    """
    times, snapshots = [], []
    start = time.perf_counter()
    while True:
        for index, command in enumerate(commands):
            report = command["report"]
            if os.path.exists(report):
                os.remove(report)
            if tracer is not None:
                tracer.op += 1
            err = io.StringIO()
            main = cli.main
            with contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                code = main(command["argv"])
                times.append(time.perf_counter() - t0)
            report_bytes = None
            if os.path.exists(report):
                with open(report, "rb") as fh:
                    report_bytes = fh.read()
            ledger.record(index, command, code, err.getvalue(), report_bytes)
            if (not whole_cycles and len(times) >= len(commands)
                    and time.perf_counter() - start >= seconds):
                return times, snapshots
        if tracer is not None:
            snapshots.append(tracer.snapshot())
        if time.perf_counter() - start >= seconds:
            return times, snapshots


def _tail_rank(n):
    """Rank in ascending order of the highest percentile with at least ten
    samples above it, that percentile, and the samples above it. With fewer
    than eleven samples: the maximum."""
    if n >= 11:
        return n - 11, 100.0 * (n - 10) / n, 10
    return n - 1, 100.0, 0


def _by_kind(commands, times):
    """Per command kind: count and median time, to show where p50 and tail fall."""
    kinds = {}
    for i, t in enumerate(times):
        kinds.setdefault(commands[i % len(commands)]["kind"], []).append(t)
    return {k: {"n": len(v), "median_s": statistics.median(v)} for k, v in kinds.items()}


def _per_layer(tr, n_ops, setup, overhead):
    def per_op(x):
        return x / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    c, total, self_s, counts = tr.calls, tr.total_s, tr.self_s, tr.counts
    return {
        "cli.import_s": setup["cli.import_s"],
        "cli.parser_s": per_op(total["cli.parser"]),
        "cli.self_s": per_op(self_s["cli.main"]),
        "dataio.read_s": per_op(total["dataio.read"]),
        "dataio.rows_read": per_op(counts["dataio.rows_read"]),
        "dataio.write_s": per_op(total["dataio.write"]),
        "dataio.rows_written": per_op(counts["dataio.rows_written"]),
        "dataio.setup_write_s": setup["dataio.setup_write_s"],
        "dataio.setup_rows_written": setup["dataio.setup_rows_written"],
        "shotnoise.inverse_calls": per_op(c["shotnoise.inverse"]),
        "shotnoise.inverse_s": per_op(total["shotnoise.inverse"]),
        "shotnoise.forward_evals_per_inverse": ratio(counts["shotnoise.forward_in_inverse"],
                                                     c["shotnoise.inverse"]),
        "shotnoise.forward_calls": per_op(c["shotnoise.forward"]),
        "shotnoise.forward_s": per_op(total["shotnoise.forward"]),
        "shotnoise.bose_einstein_calls": per_op(c["shotnoise.bose_einstein"]),
        "fitkit.fits": per_op(c["fitkit.fit"]),
        "fitkit.fit_s": per_op(total["fitkit.fit"]),
        "fitkit.lm_iterations": per_op(counts["fitkit.lm_iterations"]),
        "fitkit.jacobian_builds": per_op(c["fitkit.jacobian"]),
        "fitkit.jacobian_s": per_op(total["fitkit.jacobian"]),
        "fitkit.dataset_evals": per_op(c["fitkit.residual"]),
        "fitkit.dataset_evals_per_jacobian": ratio(counts["fitkit.residual_in_jacobian"],
                                                   c["fitkit.jacobian"]),
        "fitkit.residual_s": per_op(total["fitkit.residual"]),
        "fitkit.self_s": per_op(self_s["fitkit.fit"] + self_s["fitkit.jacobian"]),
        "fitkit.converged_ratio": ratio(counts["fitkit.converged"], c["fitkit.fit"]),
        "heatpulse.fit_s": per_op(total["heatpulse.fit"]),
        "heatpulse.self_s": per_op(self_s["heatpulse.fit"]),
        "iqtemp.sweep_s": per_op(total["iqtemp.sweep"]),
        "iqtemp.fit_s": per_op(total["iqtemp.fit"]),
        "iqtemp.em_iterations": per_op(counts["iqtemp.em_iterations"]),
        "iqtemp.s_per_em_iteration": ratio(total["iqtemp.fit"], counts["iqtemp.em_iterations"]),
        "iqtemp.converged_ratio": ratio(counts["iqtemp.converged"], c["iqtemp.fit"]),
        "decoherence.fit_s": per_op(total["decoherence.fit"]),
        "fin.extract_s": per_op(total["fin.extract"]),
        "fin.invert_ratio_calls": per_op(c["fin.invert_ratio"]),
        "resonator.fit_s": per_op(total["resonator.fit"]),
        "synth.gen_s": setup["synth.gen_s"],
        "trace.overhead_ratio": overhead,
    }


def _measure(cli, commands, args, setup, root, details):
    from tracer import Tracer

    ledger = Ledger(len(commands))
    problems = []
    if args.trace == 0:
        times, _ = _run_cycles(cli, commands, args.seconds, ledger, whole_cycles=False)
        order = sorted(range(len(times)), key=times.__getitem__)
        tail_rank, tail_pct, beyond = _tail_rank(len(times))

        def kind_at(rank):
            return commands[order[rank] % len(commands)]["kind"]

        metrics = {
            "op_p50_s": statistics.median(times),
            "op_tail_s": times[order[tail_rank]],
            "ops_per_s": len(times) / sum(times),
            "pass_ratio": 1.0 - ledger.failed / ledger.attempted,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        details.update(op_samples=len(times), op_tail_percentile=tail_pct,
                       op_tail_samples_beyond=beyond, op_p50_kind=kind_at(len(times) // 2),
                       op_tail_kind=kind_at(tail_rank), by_kind=_by_kind(commands, times))
    else:
        # Untraced and traced cycles alternate, so that a drift in machine
        # speed does not show up as tracing overhead.
        tr = Tracer()
        plain, traced, snapshots = [], [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < 2.0 * args.seconds / 3.0:
            plain += _run_cycles(cli, commands, 0.0, ledger)[0]
            tr.install()
            try:
                times, snaps = _run_cycles(cli, commands, 0.0, ledger, tr)
            finally:
                tr.uninstall()
            traced += times
            snapshots += snaps
        per_cycle = [{k: v - before.get(k, 0) for k, v in after.items()}
                     for before, after in zip([{}] + snapshots, snapshots)]
        if any(delta != per_cycle[0] for delta in per_cycle[1:]):
            problems.append("traced cycles differ in their counts")
        overhead = sum(traced) / sum(plain) - 1.0
        metrics = _per_layer(tr, len(traced), setup, overhead)
        units = dict(PER_LAYER)
        zero = [k for k in EXERCISED[args.workload] + SETUP_EXERCISED if not metrics[k] > 0]
        if zero:
            problems.append(f"per-layer metrics read zero: {', '.join(zero)}")
        fits_per_cycle = per_cycle[0].get("calls:fitkit.fit", 0) + per_cycle[0].get(
            "calls:iqtemp.fit", 0)
        details.update(cycle_counts=dict(sorted(per_cycle[0].items())),
                       first_cycle_fits=tr.fit_log[:fits_per_cycle],
                       traced_ops=len(traced), untraced_ops=len(plain))
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-s{args.seed}.json")
        with open(spans_path, "w", encoding="utf8") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "start", "end"],
                       "spans": tr.spans}, fh)
        details["spans_file"] = os.path.relpath(spans_path, root)

    if not setup["inputs_identical"]:
        problems.append("set-up repeats wrote different inputs for one seed")
    if ledger.nondeterministic:
        problems.append(f"reports of commands {sorted(ledger.nondeterministic)} changed "
                        "between cycles")
    details.update(
        attempted=ledger.attempted, failed=ledger.failed, unexpected_failures=ledger.unexpected,
        fail_ratio=ledger.failed / ledger.attempted,
        failures=list(ledger.failures.values()),
        known_defects_not_seen=sorted(ledger.known_passed),
        report_digest=ledger.report_digest(),
        report_digests=ledger.first_digest,
        inputs_digest=setup["inputs_digest"],
        setup_walls_s=setup["setup_walls_s"],
        self_check_problems=problems,
    )
    correct = ledger.unexpected == 0 and not problems
    return correct, ledger, metrics, units


def _print_human(metrics, units, details):
    env = details["env"]
    print(f"# linetherm benchmark: workload={env['workload']} seed={env['seed']} "
          f"trace={env['trace']} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} blas_threads={env['blas_threads']} "
          f"commit={env['commit'] or 'unknown'} src={env['src_sha256'][:12]}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    if "op_samples" in details:
        print(f"# op_tail_s is p{details['op_tail_percentile']:.1f} of {details['op_samples']} "
              f"commands ({details['op_tail_samples_beyond']} beyond); p50 falls on "
              f"{details['op_p50_kind']}, the tail on {details['op_tail_kind']}")
        for kind, stats in details["by_kind"].items():
            print(f"#   {kind:18s} {stats['n']:6d} commands, median {stats['median_s']:.4g} s")
    print(f"# fail_ratio {details['fail_ratio']:.6g} ({details['failed']} of "
          f"{details['attempted']} results; {details['unexpected_failures']} unexpected)")
    for f in details["failures"][:MAX_FAILURE_LINES]:
        tag = "known defect" if f["known_defect"] else "FAILED"
        print(f"# {tag} x{f['times']}: {f['result']}: {f['reason']}")
    for problem in details["self_check_problems"]:
        print(f"# SELF-CHECK FAILED: {problem}")


def run(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "linetherm", "cli.py")):
        raise BenchError(f"{root} is not a linetherm checkout: src/linetherm/cli.py is missing")
    blas_threads = _pin_blas_threads()
    os.environ.pop("LINETHERM_PARAMS", None)
    sys.path.insert(0, src)

    work = os.path.join(root, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        setup = _setup(root, src, work, args)
        import linetherm.cli as cli

        if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
            raise BenchError(f"imported {cli.__file__}, not the checkout's src/")
        with open(os.path.join(setup["inputs_dir"], "plan.json"), encoding="utf8") as fh:
            commands = json.load(fh)["commands"]
        details = {"env": _environment(root, src, args, blas_threads)}
        os.chdir(setup["inputs_dir"])
        try:
            correct, ledger, metrics, units = _measure(cli, commands, args, setup, root, details)
        finally:
            os.chdir(root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, ".bench_work"))

    _print_human(metrics, units, details)
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(run())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
