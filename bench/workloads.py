"""Seeded benchmark workloads: input generation and ground-truth checks.

Run as a script, this module is the set-up step of one benchmark run: in a
fresh interpreter it imports ``linetherm.cli``, generates the workload's
inputs with ``linetherm.synth`` (plus the shot-noise forward model for the
conversion tables), writes them with the ``linetherm.dataio`` writers and
writes ``plan.json``, the list of CLI commands with the truth each report is
checked against. It prints one JSON line of set-up timings.

    PYTHONPATH=src python3 bench/workloads.py --workload cooling_joint --seed 1 --out DIR

Command paths in the plan are relative to the input directory, so reports
written with ``--no-timestamp`` are byte-identical across runs of one seed.

The tolerances are the test suite's (cited per check). Noise levels are
chosen so that each tolerance is at least about six standard deviations of
the estimate: a failed check points at the program, not at an unlucky draw.
The one failure the checks are expected to find today is marked
``known_defect``; it is counted like any other failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

WORKLOADS = ("cooling_joint", "iq_sweep", "interactive_mix")

SEED_STRIDE = 10_000


class Clock:
    """Accumulates wall time per layer for the set-up step."""

    def __init__(self):
        self.seconds = {}

    def time(self, layer, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[layer] = self.seconds.get(layer, 0.0) + time.perf_counter() - t0


def _check(path, truth, *, rel=None, abs_tol=None, source):
    return {"type": "value", "path": path, "truth": truth, "rel": rel, "abs": abs_tol,
            "source": source}


def _equals(path, expected, source):
    return {"type": "equals", "path": path, "expected": expected, "source": source}


def _command(kind, argv, results, *, report, expect_exit=0, expect_error=None):
    return {"kind": kind, "argv": [*argv, "--no-timestamp", "--output", report],
            "report": report, "expect_exit": expect_exit, "expect_error": expect_error,
            "results": results}


# ---------------------------------------------------------------------------
# cooling_joint
# ---------------------------------------------------------------------------

COOL_GROUPS = 24       # distinct K=30 input sets per run, fitted in rotation
COOL_K = 30
COOL_T0 = 0.058
COOL_TAU = 0.28e-3


def _cooling_joint(seed, clock):
    """K=30 heat-pulse datasets with criterion-4 noise, 24 independent sets.

    The LM fit takes 4 iterations on most sets and 5 (20 % longer) on about
    one in six. A run fits each of two dozen sets about twice, each set its
    own draw, so the median does not hinge on how a few sets fall. With 12
    sets the run-to-run spread of op_p50_s came out larger (0.16 against
    0.11 of the median over ten seeds).
    """
    import numpy as np

    from linetherm import dataio, synth
    from linetherm.core import default_system_params
    from linetherm.heatpulse import HeatPulseModelParams

    sysp = default_system_params()
    grid = np.linspace(0.0, 2e-3, 41)
    delta_ts = np.linspace(0.020, 0.120, COOL_K)
    commands = []
    for g in range(COOL_GROUPS):
        files = []
        for j, dt in enumerate(delta_ts):
            model = HeatPulseModelParams(t0=COOL_T0, delta_t=float(dt), tau_cool=COOL_TAU,
                                         gamma_offset=2.4e5, f0_offset=1.5e3)
            series = clock.time("synth", synth.gen_heatpulse, model, sysp, grid,
                                noise_gamma=2e3, noise_delta_f=0.3e3,
                                seed=seed * SEED_STRIDE + 100 * g + j, t_heat=0.5e-6)
            path = f"cool{g}_{j:02d}.csv"
            clock.time("dataio", dataio.write_heatpulse_csv, path, series)
            files.append(path)
        # test_acceptance criterion 4: tau within 5 %, every delta_T within 10 %.
        checks = [_equals(["result", "converged"], True, "fit converged"),
                  _check(["result", "params", "tau_cool_s"], COOL_TAU, rel=0.05,
                         source="criterion 4")]
        checks += [_check(["result", "params", f"delta_t_k[{j}]"], float(dt), rel=0.10,
                          source="criterion 4") for j, dt in enumerate(delta_ts)]
        commands.append(_command(
            "heatpulse", ["heatpulse", "--t0-mk", "58", *files],
            [{"label": f"heatpulse set {g}", "checks": checks}], report=f"r_cool{g}.json"))
    return commands


# ---------------------------------------------------------------------------
# iq_sweep
# ---------------------------------------------------------------------------

IQ_POINTS = 50_000
IQ_KNOWN_DEFECT = ("2-sigma, p_e=0.05 cloud: EM exhausts its 500 iterations and the "
                   "temperature is reported without a flag (ROADMAP open item 4)")


def _iq_sweep(seed, clock):
    """Four 50k-point clouds, f_q 0.285-1.23 GHz, in sweep order.

    Three sit at 4 sigma separation and 26.4 mK (criterion 6). The 0.5 GHz
    cloud is the 2 sigma, p_e = 0.05 case (8.15 mK) that does not converge.
    """
    import numpy as np

    from linetherm import dataio, synth
    from linetherm.core import H, K_B
    from linetherm.iqtemp import MixtureModel

    def p_e_at(t_q, f_q):
        ratio = math.exp(-H * f_q / (K_B * t_q))
        return ratio / (1.0 + ratio)

    clouds = [
        (0.285e9, p_e_at(0.0264, 0.285e9), 4.0, None),
        (0.5e9, 0.05, 2.0, IQ_KNOWN_DEFECT),
        (0.7575e9, p_e_at(0.0264, 0.7575e9), 4.0, None),
        (1.23e9, p_e_at(0.0264, 1.23e9), 4.0, None),
    ]
    files, results = [], []
    for i, (f_q, p_e, sep, defect) in enumerate(clouds):
        half = sep / 2.0
        model = MixtureModel(weights=(1.0 - p_e, p_e),
                             means=np.array([[-half, 0.0], [half, 0.0]]),
                             covariances=np.array([np.eye(2), np.eye(2)]))
        cloud = clock.time("synth", synth.gen_iq, model, IQ_POINTS, f_q,
                           seed=seed * SEED_STRIDE + i)
        path = f"cloud{i}.csv"
        clock.time("dataio", dataio.write_iq_csv, path, cloud)
        files.append(path)
        t_q = (H * f_q / K_B) / math.log((1.0 - p_e) / p_e)
        result = {"label": f"cloud {i} ({f_q / 1e9:.4g} GHz, {sep:g} sigma)",
                  # test_acceptance criterion 6: T_q within 2 mK.
                  "checks": [{"type": "iq_cloud", "index": i, "truth": t_q, "abs": 2e-3,
                              "source": "criterion 6"}]}
        if defect:
            result["known_defect"] = defect
        results.append(result)
    return [_command("iqtemp", ["iqtemp", *files, "--seed", "0"], results,
                     report="r_iq.json")]


# ---------------------------------------------------------------------------
# interactive_mix
# ---------------------------------------------------------------------------

MIX_RATES = 50

# One cycle of the rotation: (kind, commands per cycle), each command with
# its own input. Per-command times on a 2-vCPU x86-64 VM with Python 3.11
# and numpy 2.4: about 4 ms for the first four kinds, 5 ms for relaxation
# and echo, 10 ms for Ramsey, 20 ms for the resonator fit and 40 ms for the
# 50-rate shot-noise table. The first seven kinds are 35 % of the commands,
# the resonator fits the next 35 % and the tables the top 30 %, so the
# median falls in the middle of the resonator block and the tail percentile
# (ten samples beyond it, at most a few percent) inside the table block.
MIX_ROTATION = (
    ("nbar_temp", 1),
    ("gamma_over", 1),
    ("fin_invt", 1),
    ("fin_extract", 1),
    ("relaxation", 1),
    ("echo", 1),
    ("ramsey", 1),
    ("resonator", 7),
    ("gamma_table", 6),
)


def _interactive_mix(seed, clock):
    import numpy as np

    from linetherm import dataio, shotnoise, synth
    from linetherm.core import TWO_PI, default_system_params

    sysp = default_system_params()
    rng = np.random.default_rng(seed)
    base = seed * SEED_STRIDE

    def gamma_table(v):
        # Rates from n_bar log-uniform on [1e-4, 5], below the n_bar = 10 top
        # of the inversion bracket. Criterion 10: round trip within 1e-10.
        n_true = np.exp(rng.uniform(math.log(1e-4), math.log(5.0), MIX_RATES))
        gammas = shotnoise.dephasing_full(n_true, sysp).gamma_n
        return _command(
            "shotnoise_gamma", ["shotnoise", "--gamma", *[repr(float(g)) for g in gammas]],
            [{"label": f"gamma table {v} row {r}",
              "checks": [_check(["result", "table", r, "n_bar"], float(n), rel=1e-10,
                                source="criterion 10")]}
             for r, n in enumerate(n_true)],
            report=f"r_gamma{v}.json")

    def gamma_over(v):
        # A rate above the n_bar = 10 model value: the correct outcome is exit 3.
        top = shotnoise.dephasing_full(10.0, sysp).gamma_n
        over = top * float(rng.uniform(1.5, 3.0))
        return _command(
            "shotnoise_over", ["shotnoise", "--gamma", repr(over)],
            [{"label": f"gamma above the n_bar=10 model value {v}", "checks": []}],
            report=f"r_over{v}.json", expect_exit=3, expect_error="OutOfRange")

    def nbar_temp(v):
        # T log-uniform on [15, 300] mK. Criterion 10: Bose-Einstein round
        # trip within 1e-12.
        temps = np.exp(rng.uniform(math.log(0.015), math.log(0.3), 8))
        nbars = shotnoise.bose_einstein(temps, sysp.f_r)
        return _command(
            "shotnoise_nbar", ["shotnoise", "--nbar", *[repr(float(n)) for n in nbars],
                               "--as-temperature"],
            [{"label": f"temperature table {v} row {r}",
              "checks": [_check(["result", "temperature_k", r], float(t), rel=1e-12,
                                source="criterion 10")]}
             for r, t in enumerate(temps)],
            report=f"r_nbar{v}.json")

    t = np.linspace(0.0, 10e-6, 100)
    decay_specs = {
        # test_decoherence: noisy relaxation within 2 % and noisy echo within
        # 3 % (at 0.3 % signal noise), noiseless Ramsey within 1e-6.
        "relaxation": ({"A": 1.0, "gamma1_per_s": 4.77e5, "B": 0.0}, 0.003,
                       "gamma1_per_s", 0.02, "test_relaxation_noisy_within_2pct"),
        "echo": ({"A": 1.0, "gamma2_echo_per_s": 2.56e5, "B": 0.0}, 0.003,
                 "gamma2_echo_per_s", 0.03, "test_echo_noisy_within_3pct"),
        "ramsey": ({"A": 1.0, "gamma2_star_per_s": 3.35e5, "delta_f_hz": 2.5e5,
                    "phi_rad": 0.3, "B": 0.5}, 0.0,
                   "gamma2_star_per_s", 1e-6, "test_ramsey_noiseless_recovery"),
    }

    def decay(kind):
        truth, noise, rate, rel, source = decay_specs[kind]
        offset = 1000 * (1 + list(decay_specs).index(kind))

        def make(v):
            trace = clock.time("synth", synth.gen_decay, kind, truth, t, noise=noise,
                               seed=base + offset + v)
            path = f"{kind}{v}.csv"
            clock.time("dataio", dataio.write_trace_csv, path, trace)
            checks = [_equals(["result", "converged"], True, "fit converged"),
                      _check(["result", "params", rate], truth[rate], rel=rel, source=source)]
            argv = ["decay", "--kind", kind, path]
            if kind == "ramsey":
                checks += [_check(["result", "params", "delta_f_hz"], truth["delta_f_hz"],
                                  rel=1e-6, source=source),
                           _check(["result", "params", "phi_rad"], truth["phi_rad"],
                                  abs_tol=1e-6, source=source)]
                argv += ["--emit-curve", f"curve_{kind}{v}.csv"]
            return _command(f"decay_{kind}", argv,
                            [{"label": f"{kind} {v}", "checks": checks}],
                            report=f"r_{kind}{v}.json")
        return make

    def fin_extract(v):
        # test_extraction_noisy_seeded: 8 powers, u within 15 %, g within 10 %
        # (at 2 % rise noise).
        exp = clock.time("synth", synth.gen_fin, 1.0, 1.6e4, 0.045, 0.025, 0.022, 0.1,
                         np.linspace(0.5e-6, 3e-6, 8), rel_noise=0.02, seed=base + 4000 + v)
        path = f"fin{v}.csv"
        clock.time("dataio", dataio.write_fin_csv, path, exp)
        return _command(
            "fin_extract", ["fin", "extract", path, "--threshold-uw", "5"],
            [{"label": f"fin extract {v}",
              "checks": [_check(["result", "u"], 1.0, rel=0.15,
                                source="test_extraction_noisy_seeded"),
                         _check(["result", "g_k_per_w"], 1.6e4, rel=0.10,
                                source="test_extraction_noisy_seeded")]}],
            report=f"r_fin{v}.json")

    def fin_invt(v):
        # test_fit_inverse_T: 10 cooldowns, c within 5 % (at 1 % noise).
        t_d = np.geomspace(0.02, 20.0, 10)
        g_vals = 1600.0 / t_d * (1.0 + 0.01 * rng.standard_normal(t_d.size))
        path = f"invt{v}.csv"
        clock.time("dataio", dataio.write_columns, path, ["t_d_k", "g_k_per_w"], [t_d, g_vals])
        return _command(
            "fin_invt", ["fin", "invt", path],
            [{"label": f"fin invt {v}",
              "checks": [_check(["result", "c_k2_per_w"], 1600.0, rel=0.05,
                                source="test_fit_inverse_T")]}],
            report=f"r_invt{v}.json")

    # Criterion 7: 401 points, 0.01 rad noise, chi and kappa within 2 %.
    phase_truth = {"f_g_hz": 7.458e9, "f_e_hz": 7.458e9 - 2.66e6,
                   "kappa_g_rad_per_s": TWO_PI * 3.79e6, "kappa_e_rad_per_s": TWO_PI * 4.47e6,
                   "tau_delay_s": 35e-9, "theta0_rad": 0.4}
    grid = np.linspace(7.458e9 - 30e6, 7.458e9 + 30e6, 401)

    def resonator(v):
        sweep = clock.time("synth", synth.gen_phase, phase_truth, grid, noise=0.01,
                           seed=base + 5000 + v)
        path = f"phase{v}.csv"
        clock.time("dataio", dataio.write_phase_csv, path, sweep)
        chi = TWO_PI * (phase_truth["f_e_hz"] - phase_truth["f_g_hz"])
        checks = [_equals(["result", "converged"], True, "fit converged"),
                  _check(["result", "params", "chi_rad_per_s"], chi, rel=0.02,
                         source="criterion 7")]
        checks += [_check(["result", "params", name], phase_truth[name], rel=0.02,
                          source="criterion 7")
                   for name in ("kappa_g_rad_per_s", "kappa_e_rad_per_s")]
        return _command(
            "resonator", ["resonator", path, "--emit-curve", f"curve_phase{v}.csv"],
            [{"label": f"resonator {v}", "checks": checks}], report=f"r_phase{v}.json")

    makers = {"nbar_temp": nbar_temp, "gamma_over": gamma_over, "fin_invt": fin_invt,
              "fin_extract": fin_extract, "relaxation": decay("relaxation"),
              "echo": decay("echo"), "ramsey": decay("ramsey"), "resonator": resonator,
              "gamma_table": gamma_table}
    # Interleave the kinds: command v of a kind with n per cycle sits at
    # position (v + 0.5) / n of the cycle.
    slots = []
    for order, (kind, per_cycle) in enumerate(MIX_ROTATION):
        for v in range(per_cycle):
            slots.append(((v + 0.5) / per_cycle, order, makers[kind](v)))
    return [command for _, _, command in sorted(slots, key=lambda s: s[:2])]


GENERATORS = {
    "cooling_joint": _cooling_joint,
    "iq_sweep": _iq_sweep,
    "interactive_mix": _interactive_mix,
}


def dir_digest(out):
    """Digest of the names and contents of the files in a directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode())
        with open(os.path.join(out, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def csv_rows(out):
    """Data rows in the CSV files of a directory (lines after the header)."""
    rows = 0
    for name in os.listdir(out):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as fh:
                rows += sum(1 for _ in fh) - 1
    return rows


def main(argv=None) -> int:
    t_import = time.perf_counter()
    import linetherm.cli  # noqa: F401  (timed: part of every command's start-up)
    import_s = time.perf_counter() - t_import

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    clock = Clock()
    os.makedirs(args.out, exist_ok=True)
    os.chdir(args.out)
    commands = GENERATORS[args.workload](args.seed, clock)
    with open("plan.json", "w", encoding="utf8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "commands": commands}, fh)
    sys.stdout.write(json.dumps({
        "import_s": import_s,
        "gen_s": clock.seconds.get("synth", 0.0),
        "write_s": clock.seconds.get("dataio", 0.0),
    }) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
