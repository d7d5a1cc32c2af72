"""Benchmark of csipla's `roc` and `sweep` jobs, driven through the library.

    python3 perfbench/run.py --workload roc_default --seed 1 --seconds 35 --trace 0

Run from the repository root; csipla is imported from ./src.  One run
repeats the workload's job, each time at a new scenario seed derived from
--seed, until --seconds have passed, checks each job's outputs as it ends
(see checks.py) and prints one JSON object as its last line of stdout.  With
--trace 0 it reports the end-to-end metrics, with --trace 1 the per-layer
metrics from spans around the calls into each module (see tracing.py).
Workloads, metrics and tolerances are described in README.md.
"""

from __future__ import annotations

import os

# One process, one thread: no BLAS or OpenMP pool may run beside the job.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import checks  # noqa: E402
from tracing import Tracer, instrument, job_profile  # noqa: E402

ROC_COLUMNS = ["eta_th", "pfa_emp", "pd_emp", "pfa_model", "pd_model"]
SWEEP_COLUMNS = [
    "parameter", "value", "k_info", "channel_p", "p0", "p1", "eta_th",
    "pfa_model", "pd_model", "pfa_emp", "pd_emp", "trials",
]


@dataclasses.dataclass(frozen=True)
class Workload:
    kind: str  # "roc" or "sweep"
    quant_bits: int
    code_rate: float
    calibration_trials: int
    trials: int = 0  # evaluation trials per hypothesis, roc only
    snr_values: tuple = ()  # sweep only
    setup_reps: int = 10  # Simulator(cfg) timings before each job
    sample: int = 1  # trials per batch re-decoded by the reference decoder

    def trials_per_job(self):
        if self.kind == "roc":
            return 2 * (self.calibration_trials + self.trials)
        return 2 * self.calibration_trials * len(self.snr_values)


# Jobs are short (1 to 4 s here) so that a run holds many and its statistics
# ride out the machine's second-to-second speed changes.  The sweep's 50
# crossover pairs keep its channel_p 5.6 standard errors apart from 15 to
# 20 dB, so the monotonicity check does not fail by chance.
WORKLOADS = {
    "roc_default": Workload("roc", 2, 0.01, calibration_trials=60, trials=60, sample=2),
    "roc_rate04": Workload("roc", 2, 0.4, calibration_trials=10, trials=5, setup_reps=1),
    "sweep_snr_1bit": Workload(
        "sweep", 1, 0.01, calibration_trials=50, snr_values=(0.0, 5.0, 10.0, 15.0, 20.0)
    ),
}
# Jobs whose decodes are re-run against the reference decoder.
DECODE_CHECKED_JOBS = 3


def load_sim():
    """Import csipla.sim from ./src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "csipla" / "__init__.py").is_file():
        sys.exit(f"perfbench: no csipla sources under {src}")
    sys.path.insert(0, str(src))
    import csipla.sim as sim

    if Path(sim.__file__).resolve().parent != src / "csipla":
        sys.exit(f"perfbench: imported csipla from {sim.__file__}, not {src}")
    return sim


def job_config(sim, wl, seed, index):
    """The job's configuration; the scenario seed is (seed, index)-derived."""
    rng_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
    return sim.ExperimentConfig(
        scenario=sim.ScenarioConfig(rng_seed=rng_seed),
        quant_bits=wl.quant_bits,
        code_rate=wl.code_rate,
        calibration_trials=wl.calibration_trials,
        trials=max(wl.trials, 1),
    )


def roc_job(sim, cfg):
    clock = time.perf_counter
    t0 = clock()
    s = sim.Simulator(cfg)
    t1 = clock()
    s.calibrate()
    t2 = clock()
    rows = s.roc_table(cfg.trials)
    meta = s.metadata()
    text = sim.render_csv(ROC_COLUMNS, rows, meta)
    t3 = clock()
    return {
        "setup_s": t1 - t0, "calibrate_s": t2 - t1, "work_s": t3 - t1,
        "rows": rows, "text": text, "meta": meta, "sim": s,
    }


def sweep_job(sim, cfg, values):
    clock = time.perf_counter
    t1 = clock()
    rows, meta = sim.sweep(cfg, "snr_db", list(values))
    t2 = clock()
    text = sim.render_csv(SWEEP_COLUMNS, rows, meta)
    return {"calibrate_s": t2 - t1, "work_s": t2 - t1, "rows": rows, "text": text, "meta": meta}


def run_job(sim, wl, cfg, tracer):
    """One job; its summary and span profile are taken after it ends."""
    def job():
        return roc_job(sim, cfg) if wl.kind == "roc" else sweep_job(sim, cfg, wl.snr_values)

    if tracer is None:
        out = job()
    else:
        first = len(tracer.spans)
        with instrument(sim, tracer), tracer.span("job"):
            out = job()
        out["profile"] = job_profile(tracer.spans[first:])
    if "sim" in out:
        out["summary"] = out.pop("sim").summary()
    out["cfg"], out["trials"] = cfg, wl.trials_per_job()
    return out


def check_job(sim, wl, cfg, out, index):
    """Every check of one job; the first jobs also have decodes re-run."""
    import csipla.polar as polar

    text_rows = out["text"].count("\n") - 3
    fails = [] if text_rows == len(out["rows"]) else ["rendered CSV row count differs"]
    if wl.kind == "roc":
        meta = out["meta"]
        fails += checks.check_roc(out["rows"], meta, out["summary"])
        slices = [(cfg, meta["channel_p"])]
    else:
        fails += checks.check_sweep(out["rows"], cfg, wl.snr_values)
        slices = [
            (dataclasses.replace(cfg, scenario=dataclasses.replace(
                cfg.scenario, sigma_z2=sim.snr_db_to_sigma_z2(r["value"], cfg.scenario.sigma_h2))),
             r["channel_p"])
            for r in out["rows"]
        ]
    if index >= DECODE_CHECKED_JOBS:
        return fails
    evaluate, repeat = wl.kind == "roc", index == 0
    for sub, channel_p in slices:
        log, stats = checks.sample_job(sim, sub, channel_p, wl.sample, evaluate)
        fails += checks.check_decodes(log, sub.list_size, polar)
        if evaluate and stats[3] != checks.eval_statistics(log, wl.sample):
            fails.append("run_batch statistics differ from the captured decodes")
        if repeat:
            log2, stats2 = checks.sample_job(sim, sub, channel_p, wl.sample, evaluate)
            if stats2 != stats or any(
                not np.array_equal(a["out"], b["out"]) for a, b in zip(log, log2)
            ):
                fails.append("a repeated slice of trials gave different statistics")
            repeat = False
    return fails


def job_layer_metrics(wl, out):
    """Per-layer metrics of one traced job, as {name: (value, unit)}."""
    calls, busy, sim_self, job_s = out["profile"]

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def b(*names):
        return sum(busy.get(n, 0.0) for n in names)

    def prefix(p):
        return [n for n in busy if n.startswith(p + ".")]

    layers = {p: b(*prefix(p)) for p in ("channel", "quantizer", "polar", "authenticator")}
    rows = out["rows"]
    rates = [r[col] for r in rows for col in ("pfa_model", "pd_model")]
    decodes = c("polar.scl_decode")
    accounted = sim_self + b("sim.trial_rng") + sum(layers.values())
    return {
        "polar.scl_decode.calls": (decodes, "count"),
        "polar.scl_decode.s": (b("polar.scl_decode"), "s"),
        "polar.scl_decode.ms_per_call": (1e3 * b("polar.scl_decode") / max(decodes, 1), "ms"),
        "polar.extract_side_info.s": (b("polar.extract_side_info"), "s"),
        "polar.construct_code.s": (b("polar.construct_code"), "s"),
        "quantizer.design_codebook.s": (b("quantizer.design_codebook"), "s"),
        # Row eta_th = 0 of the ROC table: share of H0 trials with eta > 0.
        # A sweep runs no evaluation batch and reads 0.
        "polar.h0_reconciled_ratio": (
            1.0 - rows[0]["pfa_emp"] if wl.kind == "roc" else 0.0, "ratio"),
        "channel.calls": (c(*prefix("channel")), "count"),
        "channel.s": (layers["channel"], "s"),
        "quantizer.quantize.calls": (c("quantizer.quantize"), "count"),
        "quantizer.quantize.s": (b("quantizer.quantize"), "s"),
        "authenticator.closed_form.calls": (
            c("authenticator.closed_form_pfa", "authenticator.closed_form_pd"), "count"),
        "authenticator.closed_form.s": (
            b("authenticator.closed_form_pfa", "authenticator.closed_form_pd"), "s"),
        "authenticator.calibrate_threshold.s": (b("authenticator.calibrate_threshold"), "s"),
        "authenticator.rates_above_one": (sum(v > 1.0 for v in rates), "count"),
        "sim.trial_rng.calls": (c("sim.trial_rng"), "count"),
        "sim.trial_rng.s": (b("sim.trial_rng"), "s"),
        "sim.calibrate.s": (b("sim.calibrate"), "s"),
        "sim.run_batch.s": (b("sim.run_batch"), "s"),
        "sim.sweep.s": (b("sim.sweep"), "s"),
        "sim.self_s": (sim_self, "s"),
        "polar.s": (layers["polar"], "s"),
        "quantizer.s": (layers["quantizer"], "s"),
        "authenticator.s": (layers["authenticator"], "s"),
        "trace.job_s": (job_s, "s"),
        "trace.accounted_share": (accounted / job_s, "ratio"),
        "trace.trials_per_s": (out["trials"] / out["work_s"], "trials/s"),
    }


def layer_metrics(jobs):
    """Per-layer metrics: the median over jobs of each job's value."""
    per_job = [j["layers"] for j in jobs]
    return {
        name: {"value": statistics.median(j[name][0] for j in per_job), "unit": unit}
        for name, (_, unit) in per_job[0].items()
    }


def upper_quartile(values):
    values = list(values)
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def end_to_end_metrics(outs, setups):
    """Job timings enter as their upper quartile over the run's jobs.

    This machine's speed comes in bursts: a run's fastest jobs vary from
    run to run more than its slow quartile does (README, "Steadiness").
    """
    trials = outs[0]["trials"]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "calibrate_s": {"value": upper_quartile(o["calibrate_s"] for o in outs), "unit": "s"},
        "trials_per_s": {
            "value": trials / upper_quartile(o["work_s"] for o in outs),
            "unit": "trials/s",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    sim = load_sim()
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    clock = time.perf_counter

    # Whole jobs until the time is up: every job attempts the same trials.
    # Untraced, set-up is also timed on its own before each job.  Each job
    # is checked as it ends, and only its timings are kept, so memory does
    # not grow with the number of jobs.
    done, setups, fails, attempted, failed = [], [], [], 0, 0
    deadline = clock() + args.seconds
    while attempted == 0 or clock() < deadline:
        index = attempted // wl.trials_per_job()
        cfg = job_config(sim, wl, args.seed, index)
        for _ in range(0 if tracer else wl.setup_reps):
            t0 = clock()
            sim.Simulator(cfg)
            setups.append(clock() - t0)
        attempted += wl.trials_per_job()
        try:
            out = run_job(sim, wl, cfg, tracer)
        except Exception:
            traceback.print_exc()
            failed += wl.trials_per_job()
            continue
        fails += [f"job {index}: {m}" for m in check_job(sim, wl, cfg, out, index)]
        if "setup_s" in out:
            setups.append(out["setup_s"])
        kept = {k: out[k] for k in ("calibrate_s", "work_s", "trials")}
        if tracer:
            kept["layers"] = job_layer_metrics(wl, out)
        done.append(kept)
    if not done:
        sys.exit("perfbench: every job failed")
    metrics = layer_metrics(done) if tracer else end_to_end_metrics(done, setups)
    if tracer:
        share = metrics["trace.accounted_share"]["value"]
        if not 0.98 <= share <= 1.0 + 1e-9:
            fails.append(f"sim self time plus layer busy time is {share:.4f} of the job")
    for m in fails:
        print(f"CHECK FAILED {m}", file=sys.stderr)

    result = {"correct": not fails, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}"
    # The file also keeps each job's own timings, which the metrics summarise.
    jobs = [{k: out[k] for k in ("calibrate_s", "work_s")} for out in done]
    (OUT / f"result-{tag}.json").write_text(json.dumps(dict(result, jobs=jobs), indent=1) + "\n")
    if tracer:
        with open(OUT / f"trace-{args.workload}.jsonl", "w") as fh:
            for sid, parent, name, start, end in tracer.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
