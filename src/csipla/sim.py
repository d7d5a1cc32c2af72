"""Monte Carlo engine tying the pipeline stages into authentication trials.

One trial walks the full protocol: measure the legitimate user's channel
with receiver noise only, derive side information, advance the world by one
slot (user and interferer channels all take a Gauss-Markov step), measure
either the same user (H0) or an independent impersonator (H1) while the U
interferers transmit, reconcile against the enrollment record, and compare
the Hamming statistic to the calibrated threshold.  Each of the M
samples in a feature vector rides an independent fading realization, so the
statistic sees the full antenna-times-sample diversity.  Per-trial RNG
streams are derived from the master seed by counter, so results are
independent of execution order and reproduce byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .authenticator import (
    BinomialModel,
    calibrate_threshold,
    closed_form_pd,
    closed_form_pfa,
    hamming_distance,
    pmf_vector,
    tail_vector,
)
from .channel import (
    ScenarioConfig,
    auth_measurement,
    enrollment_measurement,
    gauss_markov_step,
    sample_channel,
    snr_db_to_sigma_z2,
)
from .polar import code_dimensions, construct_code, extract_side_info, scl_decode
from .quantizer import design_codebook, quantize

H0 = "h0"
H1 = "h1"

# Stream tags for the counter-based seed split.
_EVAL_H0, _EVAL_H1, _CHANNEL_P, _CAL_H0, _CAL_H1 = range(5)

# Calibrated crossover estimates are clamped into the open interval the
# decoder accepts; a measured rate of exactly 0 or >= 0.5 would otherwise
# produce infinite or sign-flipped LLRs.
_CHANNEL_P_MIN = 1e-4
_CHANNEL_P_MAX = 0.499

SWEEP_PARAMETERS = ("snr_db", "beta", "alpha", "code_rate", "quant_bits")


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario plus code, detector and budget parameters for one run."""

    scenario: ScenarioConfig = ScenarioConfig()
    quant_bits: int = 2
    code_rate: float = 0.01
    list_size: int = 2
    crc_len: int | None = None
    target_pfa: float = 1e-3
    trials: int = 1000
    calibration_trials: int = 1000
    channel_p_override: float | None = None

    def __post_init__(self):
        if self.quant_bits < 1:
            raise ValueError("quant_bits must be >= 1")
        if not 0.0 < self.code_rate < 1.0:
            raise ValueError("code_rate must lie in (0, 1)")
        if not 0.0 < self.target_pfa < 1.0:
            raise ValueError("target_pfa must lie in (0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.calibration_trials < 1:
            raise ValueError("calibration_trials must be >= 1")

    @property
    def block_len(self) -> int:
        return self.quant_bits * self.scenario.n_features


def trial_rng(master_seed: int, stream: int, index: int) -> np.random.Generator:
    """Independent generator for (stream, index) under one master seed."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, index))
    )


class Simulator:
    """Caches the designed quantizer and code for one configuration.

    Calibration (crossover estimate, p0/p1 fits, threshold) runs lazily the
    first time something needs it and is itself fully seeded.
    """

    def __init__(self, cfg: ExperimentConfig):
        block_len = cfg.block_len
        if block_len & (block_len - 1):
            raise ValueError(
                f"quant_bits * 2 * m_samples * n_b = {block_len} "
                "must be a power of two"
            )
        self.cfg = cfg
        # Both phases share one unit-variance codebook; each measurement is
        # quantized in units of its own RMS (see _quantized).
        self.codebook = design_codebook(cfg.quant_bits)
        self.code = construct_code(
            block_len, cfg.code_rate, crc_len=cfg.crc_len, list_size=cfg.list_size
        )
        self.channel_p: float | None = None
        self.p0: float | None = None
        self.p1: float | None = None
        self.eta_th: int | None = None
        self._cal_etas: dict[str, np.ndarray] = {}

    # -- pipeline pieces -------------------------------------------------
    #
    # Every sample of a feature vector rides its own fading realization, so
    # the M per-sample channel vectors are drawn as one long gain vector and
    # evolved elementwise (the Gauss-Markov step is i.i.d. per gain).
    # Enrollment sees receiver noise only; the U weighted interferers
    # transmit during authentication, one slot later, so a heavy
    # interference floor masks the user's signature in the fresh
    # measurement only.  Because the two phases then differ in spread, each
    # feature vector is quantized in units of its own RMS: both phases land
    # on the one unit-variance codebook with the same cell occupancy.

    def _quantized(self, meas):
        # The complex samples' float64 view is the feature vector: sample
        # major, each gain's real part followed by its imaginary part.
        x = meas.view(np.float64)
        return quantize(x / np.sqrt(np.mean(x * x)), self.codebook)

    def _enroll(self, rng):
        sc = self.cfg.scenario
        n = sc.m_samples * sc.n_b
        h_a = sample_channel(n, sc.sigma_h2, rng)
        # The interferers are drawn here, before the enrollment noise, so
        # their channels exist for the authentication slot and every stream
        # consumes the same draws whatever alpha is.
        interferers = [
            sample_channel(n, sc.sigma_h2, rng) for _ in range(sc.u_interferers)
        ]
        meas = enrollment_measurement(h_a, sc.sigma_z2, rng)
        return (h_a, interferers), self._quantized(meas)

    def _auth_vector(self, world, hypothesis, rng):
        sc = self.cfg.scenario
        h_a, interferers = world
        # The legitimate chain always advances, whichever hypothesis holds,
        # keeping the H0/H1 random streams aligned draw for draw.
        h_next = gauss_markov_step(h_a, sc.beta, sc.sigma_h2, rng)
        ints_next = [
            gauss_markov_step(h_i, sc.beta, sc.sigma_h2, rng) for h_i in interferers
        ]
        if hypothesis == H0:
            h_u = h_next
        elif hypothesis == H1:
            h_u = sample_channel(h_a.size, sc.sigma_h2, rng)
        else:
            raise ValueError(f"hypothesis must be '{H0}' or '{H1}', got {hypothesis!r}")
        return self._quantized(
            auth_measurement(h_u, ints_next, sc.alpha, sc.sigma_z2, rng)
        )

    def _trial(self, hypothesis, rng) -> int:
        """One end-to-end trial; returns its disagreement statistic eta."""
        world, q_a = self._enroll(rng)
        r_a, side = extract_side_info(q_a, self.code)
        q_u = self._auth_vector(world, hypothesis, rng)
        r_u = scl_decode(q_u, side, self.code, self._channel_p())
        return hamming_distance(r_a, r_u)

    def _trials(self, hypothesis, stream, n_trials) -> np.ndarray:
        """Statistics of trials 0..n_trials-1 of one seeded stream."""
        rngs = (trial_rng(self.cfg.scenario.rng_seed, stream, i) for i in range(n_trials))
        return np.array([self._trial(hypothesis, rng) for rng in rngs], dtype=int)

    # -- calibration -----------------------------------------------------

    def _channel_p(self) -> float:
        if self.channel_p is None:
            cfg = self.cfg
            if cfg.channel_p_override is not None:
                p = cfg.channel_p_override
            else:
                # Quantize-only pass: mean flip rate between consecutive-slot
                # legitimate vectors, no decoding involved.
                total = 0.0
                pairs = cfg.calibration_trials
                for i in range(pairs):
                    rng = trial_rng(cfg.scenario.rng_seed, _CHANNEL_P, i)
                    world, q_a = self._enroll(rng)
                    q_next = self._auth_vector(world, H0, rng)
                    total += float(np.mean(q_a != q_next))
                p = total / pairs
            self.channel_p = min(max(p, _CHANNEL_P_MIN), _CHANNEL_P_MAX)
        return self.channel_p

    def calibrate(self):
        """Estimate p0, p1 and the threshold from seeded decode batches."""
        if self.eta_th is not None:
            return
        cfg = self.cfg
        k = self.code.k_info
        n_cal = cfg.calibration_trials
        for hyp, stream in ((H0, _CAL_H0), (H1, _CAL_H1)):
            self._cal_etas[hyp] = self._trials(hyp, stream, n_cal)
        # Mean per-bit disagreement, pooling all payload bits of the batch.
        # An all-zero H0 batch only bounds p0, so floor it at one error in
        # the whole batch rather than claiming an exact zero.
        floor = 1.0 / (k * n_cal)
        self.p0 = max(float(self._cal_etas[H0].sum()) / (k * n_cal), floor)
        self.p1 = float(self._cal_etas[H1].sum()) / (k * n_cal)
        self.eta_th = calibrate_threshold(
            k, self.p0, cfg.target_pfa, h0_etas=self._cal_etas[H0]
        )

    # -- experiment surfaces ----------------------------------------------

    def run_trial(self, hypothesis: str, rng) -> int:
        """Disagreement statistic of one trial drawn from `rng`."""
        self.calibrate()
        return self._trial(hypothesis, rng)

    def run_batch(self, hypothesis: str, n_trials: int) -> np.ndarray:
        """Disagreement statistics for n_trials independent evaluation trials."""
        self.calibrate()
        stream = _EVAL_H0 if hypothesis == H0 else _EVAL_H1
        return self._trials(hypothesis, stream, n_trials)

    def roc_table(self, trials: int | None = None):
        """Empirical and closed-form ROC, one row per threshold value."""
        self.calibrate()
        n = trials if trials is not None else self.cfg.trials
        etas0 = self.run_batch(H0, n)
        etas1 = self.run_batch(H1, n)
        k = self.code.k_info
        pfa_model = tail_vector(BinomialModel(k, self.p0)).tolist()
        pd_model = tail_vector(BinomialModel(k, self.p1)).tolist()
        return [
            {
                "eta_th": t,
                "pfa_emp": float(np.mean(etas0 > t)),
                "pd_emp": float(np.mean(etas1 > t)),
                "pfa_model": pfa_model[t],
                "pd_model": pd_model[t],
            }
            for t in range(k + 1)
        ]

    def pdf_table(self, trials: int | None = None):
        """Histogram of eta under both hypotheses next to the binomial fit."""
        self.calibrate()
        n = trials if trials is not None else self.cfg.trials
        etas0 = self.run_batch(H0, n)
        etas1 = self.run_batch(H1, n)
        k = self.code.k_info
        bins = np.arange(k + 2)
        h0_counts = np.histogram(etas0, bins=bins)[0]
        h1_counts = np.histogram(etas1, bins=bins)[0]
        m0 = pmf_vector(BinomialModel(k, self.p0))
        m1 = pmf_vector(BinomialModel(k, self.p1))
        return [
            {
                "eta": t,
                "h0_count": int(h0_counts[t]),
                "h1_count": int(h1_counts[t]),
                "h0_model_pmf": float(m0[t]),
                "h1_model_pmf": float(m1[t]),
            }
            for t in range(k + 1)
        ]

    def summary(self) -> dict:
        self.calibrate()
        k = self.code.k_info
        return {
            "k_info": k,
            "channel_p": self.channel_p,
            "p0": self.p0,
            "p1": self.p1,
            "eta_th": self.eta_th,
            "pfa_model": closed_form_pfa(k, self.p0, self.eta_th),
            "pd_model": closed_form_pd(k, self.p1, self.eta_th),
            "pfa_emp": float(np.mean(self._cal_etas[H0] > self.eta_th)),
            "pd_emp": float(np.mean(self._cal_etas[H1] > self.eta_th)),
        }

    def metadata(self) -> dict:
        meta = _config_metadata(self.cfg)
        if self.eta_th is not None:
            meta.update(
                channel_p=self.channel_p, p0=self.p0, p1=self.p1, eta_th=self.eta_th
            )
        return meta


def _config_metadata(cfg: ExperimentConfig) -> dict:
    """Metadata of a configuration; K and the CRC length follow the code rule."""
    sc = cfg.scenario
    k_info, crc_len = code_dimensions(cfg.block_len, cfg.code_rate, cfg.crc_len)
    return {
        "schema": 1,
        "version": f"csipla-{__version__}",
        "n_b": sc.n_b,
        "beta": sc.beta,
        "sigma_h2": sc.sigma_h2,
        "sigma_z2": sc.sigma_z2,
        "snr_db": sc.snr_db if sc.sigma_z2 > 0 else None,
        "u_interferers": sc.u_interferers,
        "alpha": sc.alpha,
        "m_samples": sc.m_samples,
        "seed": sc.rng_seed,
        "quant_bits": cfg.quant_bits,
        "code_rate": cfg.code_rate,
        "block_len": cfg.block_len,
        "k_info": k_info,
        "crc_len": crc_len,
        "list_size": cfg.list_size,
        "target_pfa": cfg.target_pfa,
        "trials": cfg.trials,
        "calibration_trials": cfg.calibration_trials,
    }


def _apply_sweep_value(cfg: ExperimentConfig, parameter: str, value) -> ExperimentConfig:
    sc = cfg.scenario
    if parameter == "snr_db":
        sc = dataclasses.replace(sc, sigma_z2=snr_db_to_sigma_z2(value, sc.sigma_h2))
        return dataclasses.replace(cfg, scenario=sc)
    if parameter == "beta":
        return dataclasses.replace(cfg, scenario=dataclasses.replace(sc, beta=value))
    if parameter == "alpha":
        return dataclasses.replace(cfg, scenario=dataclasses.replace(sc, alpha=value))
    if parameter == "code_rate":
        return dataclasses.replace(cfg, code_rate=value)
    if parameter == "quant_bits":
        if int(value) != value:
            raise ValueError(f"quant_bits sweep values must be integers, got {value}")
        return dataclasses.replace(cfg, quant_bits=int(value))
    raise ValueError(
        f"unknown sweep parameter {parameter!r}; valid: {', '.join(SWEEP_PARAMETERS)}"
    )


def sweep(cfg: ExperimentConfig, parameter: str, values):
    """Recalibrate per value and report operating points at the target PFA."""
    # Every value is checked before the first one is simulated.
    cfgs = [_apply_sweep_value(cfg, parameter, value) for value in values]
    meta = _config_metadata(cfg)
    meta["sweep_parameter"] = parameter
    rows = []
    for value, sub_cfg in zip(values, cfgs):
        sub = Simulator(sub_cfg)
        sub.calibrate()
        row = {"parameter": parameter, "value": value}
        row.update(sub.summary())
        row["trials"] = sub.cfg.calibration_trials
        rows.append(row)
    return rows, meta


# -- output rendering ----------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def render_csv(columns, rows, metadata) -> str:
    """Deterministic CSV text: schema and metadata comments, then the table."""
    lines = ["# schema=1"]
    lines.append("# meta=" + json.dumps(metadata, sort_keys=True, default=str))
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def write_results(out_base: str, columns, rows, metadata) -> None:
    """Write <base>.csv plus a pretty-printed <base>.meta.json sidecar."""
    with open(out_base + ".csv", "w") as fh:
        fh.write(render_csv(columns, rows, metadata))
    with open(out_base + ".meta.json", "w") as fh:
        json.dump(metadata, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")
