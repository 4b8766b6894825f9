"""Measurement of one workload: set-up, the timed window and the traced run.

Imported by run.py once ``src/`` is on the import path.

Timing on a shared machine.  Other tenants slow this process by up to
half, in bursts of seconds and in phases of minutes.  So a fixed
calibration kernel that shares no code with the program (Calibration) is
timed before the first op, at every cycle boundary, whenever
CAL_INTERVAL has passed, and before and after every set-up process.  Each
op's latency and each set-up time is divided by the machine factor
measured around it, so the timed end-to-end metrics are at reference
speed.  A change to the program moves them; a slow phase of the machine
slows the kernel too, and mostly cancels.  Every execution counts:
``op_p50_ms`` and ``op_p90_ms`` are percentiles over all executions in
the window, and ``ops_per_s`` is executions over the time spent in them.
Only the program call is timed, not the benchmark's checks on its output.

Every result also prints the raw values and the median factor.  Per-layer
times of the traced run are raw.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from oracle import digits
from spans import SPAN_NAMES, Tracer

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

#: fewest ops in a timed window, so that p90 has ten samples beyond it
MIN_OPS = 100
#: fresh processes whose set-up time is measured; the median is reported
SETUP_SAMPLES = 7
#: fewest traced repetitions; their work counts must agree
MIN_REPS = 2
#: reported for a median residual margin of -inf (most ops raised)
MARGIN_FLOOR = -99.0
#: best calibration times (40 points, 10k points) over a minute on the
#: reference machine, a 2-core Intel Xeon VM: the scale of reference speed
CAL_REF = (125e-6, 8.4e-3)
#: longest time between two machine-factor samples in a timed window
CAL_INTERVAL = 0.15


class Calibration:
    """Machine speed from complex exponential sums over 40 and 10k points,
    the batch sizes of the program's wp calls, written here so that no
    change to the program can alter them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.points = [rng.random(n) + 1j * rng.random(n) for n in (40, 10_000)]

    @staticmethod
    def _kernel(z) -> complex:
        # one term at a time: temporaries of len(z), so peak memory stays
        # the program's
        acc = np.zeros_like(z)
        for k in range(1, 21):
            e = np.exp((2j * math.pi * k) * z)
            acc += k * e / (1.0 - 0.01 * e)
        return complex(acc.sum())

    def factor(self) -> float:
        """Kernel time now over reference time: above 1 on a slower machine."""
        ratios = []
        for z, reps, ref in zip(self.points, (20, 3), CAL_REF):
            best = math.inf
            for _ in range(reps):
                t = perf_counter()
                self._kernel(z)
                best = min(best, perf_counter() - t)
            ratios.append(best / ref)
        return math.sqrt(ratios[0] * ratios[1])


def setup(name: str, seed: int):
    """Generate the inputs, build lattices and embeddings, run one warm-up op."""
    w = workloads.WORKLOADS[name](seed)
    w.build()
    w.warm_up()
    return w


def setup_seconds(name: str, seed: int) -> tuple[list, list]:
    """Set-up wall time of fresh processes, from spawn until ready to time:
    (raw seconds, machine factors around each)."""
    cal = Calibration()
    raw, factors = [], []
    before = cal.factor()
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        # perf_counter is the system-wide monotonic clock, shared with the child
        raw.append(json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - start)
        after = cal.factor()
        factors.append(math.sqrt(before * after))
        before = after
    return raw, factors


def wp_digits_min(w) -> float:
    """Fewest correct digits of wp, wp' at the workload's oracle points."""
    worst = math.inf
    for ref in w.oracle_refs():
        a, b = workloads.elliptic.wp_both(ref.z, workloads.lattice.Lattice(ref.tau))
        worst = min(worst, digits(ref.error(a, b)))
    return worst


def guarded(op):
    """Run an op; an unexpected exception is a failed op, not a failed run."""
    try:
        return op()
    except Exception as exc:
        return workloads.Outcome(False, False, -math.inf, note=f"{type(exc).__name__}: {exc}")


def outcome_note(out) -> str:
    if not out.ok:
        return f"failed: {out.note or 'check failed'}"
    if not out.certified:
        return f"uncertified, known defect: {out.note}"
    return ""


# ---------------------------------------------------------------------------
# end-to-end run


def timed_window(w, seconds: float) -> dict:
    """Run whole cycles of ops for about `seconds`, and at least MIN_OPS ops.

    Returns each execution's latency, raw and divided by the machine
    factor around it.
    """
    raw, pending, scaled, factors, margins = [], [], [], [], []
    certified = failed = 0
    notes: Counter = Counter()
    signatures: dict = {}
    i = 0
    cal = Calibration()
    before = cal.factor()
    t0 = cycle_start = last_cal = perf_counter()
    deadline = t0 + seconds
    hard_stop = t0 + max(3.0 * seconds, seconds + 60.0)
    while True:
        k = i % w.n_ops
        start = perf_counter()
        try:
            elapsed, out = w.run(k)
        except Exception as exc:  # unexpected: a failed op, not a failed run
            elapsed = perf_counter() - start
            out = workloads.Outcome(False, False, -math.inf, note=f"{type(exc).__name__}: {exc}")
        pending.append(elapsed)
        if out.signature is not None and signatures.setdefault(k, out.signature) != out.signature:
            out.ok = False
            out.note = "output differs from the first run of the same op"
        failed += not out.ok
        certified += out.certified
        margins.append(out.margin)
        notes[outcome_note(out)] += 1
        i += 1
        end_of_cycle = i % w.cycle == 0
        if end_of_cycle or perf_counter() - last_cal >= CAL_INTERVAL:
            after = cal.factor()
            f = math.sqrt(before * after)
            before = after
            last_cal = perf_counter()
            factors.append(f)
            raw += pending
            scaled += [t / f for t in pending]
            pending = []
        if end_of_cycle:
            # end on the cycle boundary nearest the deadline
            now = perf_counter()
            half_cycle = (now - cycle_start) / 2.0
            cycle_start = now
            if (i >= MIN_OPS and now + half_cycle >= deadline) or now >= hard_stop:
                break
    return {
        "ops": i, "raw": raw, "scaled": scaled, "repeats": i / w.n_ops,
        "factor": statistics.median(factors), "margins": margins,
        "certified": certified, "failed": failed, "notes": notes, "signatures": signatures,
    }


def run_e2e(name: str, seed: int, seconds: float):
    w = setup(name, seed)
    digits_min = wp_digits_min(w)  # the oracle is benchmark work, outside set-up time
    setups, setup_factors = setup_seconds(name, seed)
    res = timed_window(w, seconds)
    n = res["ops"]

    def timings(lat):
        ms = 1e3 * np.asarray(lat)
        return (1e3 * n / float(ms.sum()), *np.percentile(ms, (50, 90)))

    rate, p50, p90 = timings(res["scaled"])
    raw_rate, raw_p50, raw_p90 = timings(res["raw"])
    setup_s = statistics.median(t / f for t, f in zip(setups, setup_factors))
    raw_setup = statistics.median(setups)
    margin = float(np.median(res["margins"]))
    sample = f"n={n}, {res['repeats']:.3g} runs per op"
    metrics = {
        "setup_s": (setup_s, "s", f"median of {len(setups)} processes; raw {raw_setup:.4g}"),
        "ops_per_s": (rate, "1/s", f"{sample}; ops / time in them; raw {raw_rate:.4g}"),
        "op_p50_ms": (p50, "ms", f"{sample}; raw {raw_p50:.4g}"),
        "op_p90_ms": (p90, "ms", f"{sample}, {n - math.ceil(0.9 * n)} above; raw {raw_p90:.4g}"),
        "pass_frac": (res["certified"] / n, "ratio", f"{res['certified']} of {n} certified"),
        "resid_margin_digits": (
            margin if math.isfinite(margin) else MARGIN_FLOOR, "digits", f"median of {n}"),
        "wp_digits_min": (digits_min, "digits", "min over the oracle points"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "this process"),
    }
    info = {"machine_factor": res["factor"], "setup_s_samples": setups,
            "setup_factors": setup_factors,
            "raw": {"setup_s": raw_setup, "ops_per_s": raw_rate, "op_p50_ms": raw_p50,
                    "op_p90_ms": raw_p90}}
    if isinstance(w, workloads.Cli):
        info["report_digest"] = w.digest(res["signatures"])
    return metrics, n, res["failed"], res["notes"], info


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# traced run


def run_rep(w, probe, tracer=None) -> list:
    """One repetition: the workload's fixed ops, then the CLI layer probe."""
    ops = w.rep_ops() + [lambda a=a: workloads.run_cli(a) for a in probe]
    if tracer is None:
        return [guarded(op) for op in ops]
    return [guarded(lambda op=op: tracer.run_op(op)) for op in ops]


def wp_microbench(seed: int) -> dict:
    """wp_both per call at batch 1 and per point at batches 40 and 10k."""
    lat = workloads.lattice.Lattice(workloads.GENERIC_TAU)
    rng = np.random.default_rng([seed, 2])
    out = {}
    for size, reps, key in ((1, 400, "elliptic.us_per_call_b1"),
                            (40, 100, "elliptic.us_per_point_b40"),
                            (10_000, 2, "elliptic.us_per_point_b10k")):
        z = workloads.cell_points(rng, workloads.GENERIC_TAU, size)
        arg = complex(z[0]) if size == 1 else z
        blocks = []
        for _ in range(5):
            t = perf_counter()
            for _ in range(reps):
                workloads.elliptic.wp_both(arg, lat)
            blocks.append((perf_counter() - t) / reps)
        out[key] = 1e6 * statistics.median(blocks) / size
    return out


def cli_timings(seed: int):
    """Untraced a4 classify and verify through the CLI, median of three each."""
    s = int(np.random.default_rng([seed, 4]).integers(0, 1000))
    out, outs = {}, []
    for cmd in ("classify", "verify"):
        argv = workloads.cli_argv(cmd, "a4", workloads.HEX_TAU, s)
        times = []
        for _ in range(3):
            t = perf_counter()
            outs.append(guarded(lambda: workloads.run_cli(argv)))
            times.append(perf_counter() - t)
        out[f"cli.{cmd}_ms"] = 1e3 * statistics.median(times)
    out["cli.verify_over_classify"] = out["cli.verify_ms"] / out["cli.classify_ms"]
    return out, outs


def run_traced(name: str, seed: int, seconds: float):
    w = setup(name, seed)
    w.oracle_refs()  # wp-eval checks every op against these
    probe = workloads.probe_argvs(seed)
    run_rep(w, probe)  # fill the caches the timed window would find warm
    untraced, traced, summaries, outs = [], [], [], []
    t0 = perf_counter()
    while len(summaries) < MIN_REPS or perf_counter() - t0 < seconds:
        t = perf_counter()
        outs += run_rep(w, probe)
        untraced.append(perf_counter() - t)
        with Tracer() as tracer:
            t = perf_counter()
            outs += run_rep(w, probe, tracer)
            traced.append(perf_counter() - t)
        summaries.append(tracer.summary())
        if len(summaries) == 1:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    micro = wp_microbench(seed)
    cli_ms, cli_outs = cli_timings(seed)
    outs += cli_outs

    counts = summaries[0][0]
    drift = sorted({k for s, _ in summaries[1:] for k in set(s) | set(counts)
                    if s.get(k, 0) != counts.get(k, 0)})
    med = {k: statistics.median(t[k] for _, t in summaries) for k in summaries[0][1]}

    def c(key):
        return counts.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    reps = f"median of {len(summaries)} reps"
    metrics = {}
    for sname in SPAN_NAMES:
        metrics[f"{sname}_ms"] = (med[f"{sname}_ms"], "ms", reps)
        metrics[f"{sname}.self_ms"] = (med[f"{sname}.self_ms"], "ms", reps)
    fits = c("funcalg.fit_in_ring.calls")
    for key, value, unit in (
        ("elliptic.wp_calls", c("elliptic.wp.calls"), "count"),
        ("elliptic.wp_points", c("elliptic.wp.points"), "count"),
        ("elliptic.points_per_call", ratio(c("elliptic.wp.points"), c("elliptic.wp.calls")),
         "points/call"),
        ("elliptic.wp_calls_per_a4_case", ratio(c("a4.wp_calls"), c("a4.cases")), "calls/case"),
        ("funcalg.psystem_values_calls", c("funcalg.psystem_values.calls"), "count"),
        ("funcalg.fit_in_ring_calls", fits, "count"),
        ("funcalg.fit_in_ring_ok_ratio", ratio(fits - c("funcalg.fit_in_ring.raised"), fits),
         "ratio"),
        ("funcalg.sample_points_calls", c("funcalg.sample_points.calls"), "count"),
        ("funcalg.sample_points_starved", c("funcalg.sample_points.raised"), "count"),
        ("intertwine.phi_evals", c("intertwine.phi_eval.calls"), "count"),
        ("intertwine.psi_evals", c("intertwine.psi_eval.calls"), "count"),
        ("normalform.frame_evals", c("normalform.frame_eval.calls"), "count"),
        ("normalform.frame_points", c("normalform.frame_eval.points"), "count"),
    ):
        metrics[key] = (value, unit, "per rep")
    for key, value in micro.items():
        metrics[key] = (value, "us" if key.endswith("b1") else "us/point", "median of 5 blocks")
    for key, value in cli_ms.items():
        metrics[key] = (value, "ratio", "") if key.endswith("classify") else (
            value, "ms", "median of 3")
    rep_u, rep_t = 1e3 * statistics.median(untraced), 1e3 * statistics.median(traced)
    metrics.update({
        "trace.rep_ms_untraced": (rep_u, "ms", reps),
        "trace.rep_ms_traced": (rep_t, "ms", reps),
        "trace.overhead_ms": (rep_t - rep_u, "ms", "traced minus untraced"),
        "trace.overhead_frac": (rep_t / rep_u - 1.0, "ratio", "traced / untraced - 1"),
    })
    notes = Counter(outcome_note(o) for o in outs)
    if drift:
        notes[f"failed: work counts differ between repetitions: {', '.join(drift)}"] += 1
    failed = sum(not o.ok for o in outs) + bool(drift)
    info = {"reps": len(summaries), "rep_ops": c("bench.op.calls")}
    return metrics, len(outs), failed, notes, info
