"""Checks of one job's outputs, against `reference` and the method's properties.

Every check returns a list of failure messages; an empty list is a pass.
The tolerances are listed in README.md.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

import reference as ref
from tracing import patched

# Model rates against exact tails: relative, for the log-space pmf terms,
# plus an absolute floor for tails that underflow.
TAIL_RTOL = 1e-9
TAIL_ATOL = 1e-300
# 1-bit crossover estimate against its closed form, in standard errors of a
# mean over block_len * pairs sign comparisons.
CROSSOVER_SES = 6.0


def _close(got, want):
    return abs(got - want) <= TAIL_RTOL * abs(want) + TAIL_ATOL


def check_threshold(k, p0, eta_th, target, pfa_model, pfa_emp, tails0=None):
    """The calibrated threshold against the exact tail of Binomial(k, p0)."""
    tails0 = tails0 or ref.binomial_tails(k, p0)
    fails = []
    if not _close(pfa_model, tails0[eta_th]):
        fails.append(f"pfa_model {pfa_model!r} at eta_th={eta_th} != exact {tails0[eta_th]!r}")
    if tails0[eta_th] > target * (1 + TAIL_RTOL):
        fails.append(f"tail {tails0[eta_th]!r} at eta_th={eta_th} misses target {target}")
    lowest = ref.min_threshold(tails0, target * (1 + TAIL_RTOL))
    if eta_th < lowest:
        fails.append(f"eta_th={eta_th} below the binomial minimum {lowest}")
    if pfa_emp > target:
        fails.append(f"in-sample pfa_emp {pfa_emp} exceeds target {target}")
    return fails


def check_capacity(rate, channel_p, p0, p1):
    """Below the crossover's capacity, legitimate users disagree less."""
    if rate < ref.bsc_capacity(channel_p) and not p0 < p1:
        return [f"p0={p0} >= p1={p1} at rate {rate:.4g} below capacity"]
    return []


def check_roc(rows, meta, summary):
    """A `roc` table, its calibration and its summary."""
    k = meta["k_info"]
    if [r["eta_th"] for r in rows] != list(range(k + 1)):
        return ["ROC rows are not eta_th = 0..K"]
    fails = []
    tails0 = ref.binomial_tails(k, meta["p0"])
    tails1 = ref.binomial_tails(k, meta["p1"])
    bad = [
        r["eta_th"]
        for r in rows
        if not (_close(r["pfa_model"], tails0[r["eta_th"]]) and _close(r["pd_model"], tails1[r["eta_th"]]))
    ]
    if bad:
        fails.append(f"model rates differ from exact tails at {len(bad)} thresholds, first {bad[0]}")
    for col in ("pfa_emp", "pd_emp"):
        v = [r[col] for r in rows]
        if any(b > a for a, b in zip(v, v[1:])):
            fails.append(f"{col} increases with the threshold")
        if v[-1] != 0.0:
            fails.append(f"{col} is {v[-1]} at eta_th = K")
    fails += check_threshold(
        k, meta["p0"], meta["eta_th"], meta["target_pfa"],
        summary["pfa_model"], summary["pfa_emp"], tails0,
    )
    fails += check_capacity(k / meta["block_len"], meta["channel_p"], meta["p0"], meta["p1"])
    return fails


def check_sweep(rows, cfg, values):
    """An `snr_db` sweep with 1-bit labels over ascending values."""
    sc = cfg.scenario
    if [r["value"] for r in rows] != list(values):
        return ["sweep rows do not follow the swept values"]
    fails = []
    for r in rows:
        v, k, p = r["value"], r["k_info"], r["channel_p"]
        want = ref.crossover_1bit(
            sc.beta, sc.sigma_h2, sc.sigma_h2 / 10.0 ** (v / 10.0), sc.u_interferers, sc.alpha
        )
        se = math.sqrt(want * (1.0 - want) / (cfg.block_len * cfg.calibration_trials))
        if abs(p - want) > CROSSOVER_SES * se:
            fails.append(f"{v} dB: channel_p {p} vs closed form {want:.5f} (se {se:.2g})")
        tails1 = ref.binomial_tails(k, r["p1"])
        if not _close(r["pd_model"], tails1[r["eta_th"]]):
            fails.append(f"{v} dB: pd_model {r['pd_model']!r} != exact {tails1[r['eta_th']]!r}")
        fails += [
            f"{v} dB: {m}"
            for m in check_threshold(k, r["p0"], r["eta_th"], cfg.target_pfa, r["pfa_model"], r["pfa_emp"])
            + check_capacity(k / cfg.block_len, p, r["p0"], r["p1"])
        ]
        if r["trials"] != cfg.calibration_trials:
            fails.append(f"{v} dB: trials {r['trials']} != {cfg.calibration_trials}")
    ps = [r["channel_p"] for r in rows]
    if any(b >= a for a, b in zip(ps, ps[1:])):
        fails.append(f"channel_p does not fall as SNR rises: {ps}")
    return fails


def capture_decodes(sim, log):
    """Record each trial's enrolment vector, side info and decode in `log`."""
    extract, decode = sim.extract_side_info, sim.scl_decode
    by_side = {}

    def traced_extract(q, code):
        r, side = extract(q, code)
        by_side[id(side)] = {"q_enroll": np.array(q, dtype=np.uint8), "r": r, "side": side}
        return r, side

    def traced_decode(q_auth, side, code, channel_p):
        out = decode(q_auth, side, code, channel_p)
        entry = by_side.pop(id(side))
        entry.update(q_auth=np.array(q_auth, dtype=np.uint8), code=code, p=channel_p, out=out)
        log.append(entry)
        return out

    return patched({(sim, "extract_side_info"): traced_extract, (sim, "scl_decode"): traced_decode})


def sample_job(sim, cfg, channel_p, n, evaluate):
    """Re-run the first n trials of a job's batches, capturing each decode.

    With the crossover pinned to the job's value, calibrating on n trials
    decodes exactly the job's first n calibration trials per hypothesis,
    and run_batch(h, n) its first n evaluation trials.  Returns the log and
    (p0, p1, eta_th, evaluation statistics).
    """
    small = dataclasses.replace(
        cfg, calibration_trials=n, trials=n, channel_p_override=channel_p
    )
    log = []
    with capture_decodes(sim, log):
        s = sim.Simulator(small)
        s.calibrate()
        etas = [s.run_batch(h, n).tolist() for h in (sim.H0, sim.H1)] if evaluate else []
    return log, (s.p0, s.p1, s.eta_th, etas)


def check_decodes(log, list_size, polar):
    """Captured decodes against the reference decoder; one self-decode."""
    fails = []
    for i, e in enumerate(log):
        info = e["code"].info_positions
        if not np.array_equal(e["r"], ref.polar_transform(e["q_enroll"])[info]):
            fails.append(f"decode {i}: payload is not T(q_enroll) at the info positions")
        want = ref.scl_decode(e["q_auth"], e["q_enroll"], info, e["code"].crc_poly, list_size, e["p"])
        if not np.array_equal(e["out"], want):
            fails.append(f"decode {i}: differs from the reference decoder in {int(np.sum(e['out'] != want))} bits")
    if not log:
        return fails + ["no decodes captured"]
    e = log[0]
    own = polar.scl_decode(e["q_enroll"], e["side"], e["code"], e["p"])
    if not np.array_equal(own, e["r"]):
        fails.append("enrolment vector does not decode to its own payload")
    return fails


def eval_statistics(log, n):
    """Hamming statistics of the last 2n captured decodes (H0 then H1)."""
    etas = [int(np.count_nonzero(e["r"] != e["out"])) for e in log[-2 * n :]]
    return [etas[:n], etas[n:]]
