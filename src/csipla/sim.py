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
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .authenticator import (
    calibrate_threshold,
    hamming_distance,
    pmf_vector,
    tail_vector,
)
from .channel import (
    ConfigError,
    ScenarioConfig,
    gauss_markov_step,
    measurement,
    sample_channel,
    snr_db_to_sigma_z2,
)
from .polar import code_dimensions, construct_code, extract_side_info, scl_decode
from .quantizer import MAX_BITS, design_codebook, quantize

H0 = "h0"
H1 = "h1"

# Stream tags for the counter-based seed split.
_EVAL_H0, _EVAL_H1, _CHANNEL_P, _CAL_H0, _CAL_H1 = range(5)
_EVAL_STREAM = {H0: _EVAL_H0, H1: _EVAL_H1}

# The crossover range a run decodes with.  A calibrated estimate is clamped
# into it, since a measured rate of exactly 0 or >= 0.5 would otherwise
# produce infinite or sign-flipped LLRs; an explicit override outside it is
# rejected.
_CHANNEL_P_MIN = 1e-4
_CHANNEL_P_MAX = 0.499

SWEEP_PARAMETERS = ("snr_db", "beta", "alpha", "code_rate", "quant_bits")


@dataclass(frozen=True)
class ExperimentConfig:
    """Scenario plus code, detector and budget parameters for one run.

    Every rule a run depends on, the code's dimensions included, is checked
    here and raises :class:`ConfigError`.
    """

    scenario: ScenarioConfig = ScenarioConfig()
    quant_bits: int = field(default=2, metadata={"section": "code"})
    code_rate: float = field(default=0.01, metadata={"section": "code"})
    list_size: int = field(default=2, metadata={"section": "code"})
    target_pfa: float = field(default=1e-3, metadata={"section": "detector"})
    trials: int = field(default=1000, metadata={"section": "sim"})
    calibration_trials: int = field(default=1000, metadata={"section": "sim"})
    channel_p_override: float | None = field(default=None, metadata={"section": "sim"})

    def __post_init__(self):
        if not 1 <= self.quant_bits <= MAX_BITS:
            raise ConfigError(f"quant_bits must be in [1, {MAX_BITS}]")
        try:
            code_dimensions(self.block_len, self.code_rate)
        except ValueError as exc:
            raise ConfigError(f"{exc} (block_len = quant_bits * 2 * m_samples * n_b)") from exc
        if self.list_size < 1:
            raise ConfigError("list_size must be >= 1")
        if not 0.0 < self.target_pfa < 1.0:
            raise ConfigError("target_pfa must lie in (0, 1)")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.calibration_trials < 1:
            raise ConfigError("calibration_trials must be >= 1")
        p = self.channel_p_override
        if p is not None and not _CHANNEL_P_MIN <= p <= _CHANNEL_P_MAX:
            raise ConfigError(f"channel_p_override must be in [{_CHANNEL_P_MIN}, {_CHANNEL_P_MAX}]")

    @property
    def block_len(self) -> int:
        return self.quant_bits * self.scenario.n_features


def _check_hypothesis(hypothesis: str) -> None:
    if hypothesis not in (H0, H1):
        raise ValueError(f"hypothesis must be '{H0}' or '{H1}', got {hypothesis!r}")


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
        self.cfg = cfg
        # Both phases share one unit-variance codebook; each measurement is
        # quantized in units of its own RMS (see _quantized).
        self.codebook = design_codebook(cfg.quant_bits)
        self.code = construct_code(cfg.block_len, cfg.code_rate, list_size=cfg.list_size)
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

    def _vectors(self, hypothesis, rng):
        """Enrollment labels q_a and one slot later the authentication labels
        q_u of the same user (H0) or of an impersonator (H1)."""
        sc = self.cfg.scenario
        n = sc.m_samples * sc.n_b
        h_a = sample_channel(n, sc.sigma_h2, rng)
        # The interferers are drawn here, before the enrollment noise, so
        # their channels exist for the authentication slot and every stream
        # consumes the same draws whatever alpha is.
        interferers = [
            sample_channel(n, sc.sigma_h2, rng) for _ in range(sc.u_interferers)
        ]
        q_a = self._quantized(measurement(h_a, [], sc.alpha, sc.sigma_z2, rng))
        # The legitimate chain always advances, whichever hypothesis holds,
        # keeping the H0/H1 random streams aligned draw for draw.
        h_u = gauss_markov_step(h_a, sc.beta, sc.sigma_h2, rng)
        ints_next = [
            gauss_markov_step(h_i, sc.beta, sc.sigma_h2, rng) for h_i in interferers
        ]
        if hypothesis == H1:
            h_u = sample_channel(n, sc.sigma_h2, rng)
        q_u = self._quantized(measurement(h_u, ints_next, sc.alpha, sc.sigma_z2, rng))
        return q_a, q_u

    def _trial(self, hypothesis, rng) -> int:
        """One end-to-end trial; returns its disagreement statistic eta."""
        q_a, q_u = self._vectors(hypothesis, rng)
        r_a, side = extract_side_info(q_a, self.code)
        r_u = scl_decode(q_u, side, self.code, self.channel_p)
        return hamming_distance(r_a, r_u)

    def _trials(self, hypothesis, stream, n_trials) -> np.ndarray:
        """Statistics of trials 0..n_trials-1 of one seeded stream."""
        rngs = (trial_rng(self.cfg.scenario.rng_seed, stream, i) for i in range(n_trials))
        return np.array([self._trial(hypothesis, rng) for rng in rngs], dtype=int)

    # -- calibration -----------------------------------------------------

    def calibrate(self):
        """Set the crossover, then fit p0, p1 and the threshold on seeded batches."""
        if self.eta_th is not None:
            return
        cfg = self.cfg
        k = self.code.k_info
        n_cal = cfg.calibration_trials
        if cfg.channel_p_override is not None:
            self.channel_p = cfg.channel_p_override
        else:
            # Quantize-only pass: mean flip rate between consecutive-slot
            # legitimate vectors, no decoding involved.
            total = 0.0
            for i in range(n_cal):
                q_a, q_next = self._vectors(H0, trial_rng(cfg.scenario.rng_seed, _CHANNEL_P, i))
                total += float(np.mean(q_a != q_next))
            self.channel_p = min(max(total / n_cal, _CHANNEL_P_MIN), _CHANNEL_P_MAX)
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

    def run_trial(self, hypothesis: str, index: int) -> int:
        """Disagreement statistic of evaluation trial `index`, the trial at
        that index of every `run_batch` long enough to hold it."""
        _check_hypothesis(hypothesis)
        self.calibrate()
        rng = trial_rng(self.cfg.scenario.rng_seed, _EVAL_STREAM[hypothesis], index)
        return self._trial(hypothesis, rng)

    def run_batch(self, hypothesis: str, n_trials: int) -> np.ndarray:
        """Disagreement statistics of evaluation trials 0..n_trials-1."""
        _check_hypothesis(hypothesis)
        if n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {n_trials}")
        self.calibrate()
        return self._trials(hypothesis, _EVAL_STREAM[hypothesis], n_trials)

    def _eval_batches(self, trials):
        """H0 and H1 evaluation statistics, `trials` (default cfg.trials) each."""
        n = trials if trials is not None else self.cfg.trials
        return self.run_batch(H0, n), self.run_batch(H1, n)

    def roc_table(self, trials: int | None = None):
        """Empirical and closed-form ROC, one row per threshold value."""
        etas0, etas1 = self._eval_batches(trials)
        k = self.code.k_info
        pfa_model = tail_vector(k, self.p0).tolist()
        pd_model = tail_vector(k, self.p1).tolist()
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
        etas0, etas1 = self._eval_batches(trials)
        k = self.code.k_info
        bins = np.arange(k + 2)
        h0_counts = np.histogram(etas0, bins=bins)[0]
        h1_counts = np.histogram(etas1, bins=bins)[0]
        m0 = pmf_vector(k, self.p0)
        m1 = pmf_vector(k, self.p1)
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
            "pfa_model": float(tail_vector(k, self.p0)[self.eta_th]),
            "pd_model": float(tail_vector(k, self.p1)[self.eta_th]),
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
    k_info, crc_len = code_dimensions(cfg.block_len, cfg.code_rate)
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
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r}; valid: {', '.join(SWEEP_PARAMETERS)}"
        )
    sc = cfg.scenario
    if parameter == "snr_db":
        parameter, value = "sigma_z2", snr_db_to_sigma_z2(value, sc.sigma_h2)
    elif parameter == "quant_bits":
        if not float(value).is_integer():
            raise ConfigError(f"quant_bits sweep values must be integers, got {value}")
        value = int(value)
    # The class that owns the field takes the value.
    if hasattr(sc, parameter):
        return dataclasses.replace(cfg, scenario=dataclasses.replace(sc, **{parameter: value}))
    return dataclasses.replace(cfg, **{parameter: value})


def sweep(cfg: ExperimentConfig, parameter: str, values):
    """Recalibrate per value and report operating points at the target PFA.

    Every value's configuration is built, so a bad value raises
    :class:`ConfigError`, before the first value is simulated.
    """
    cfgs = [_apply_sweep_value(cfg, parameter, value) for value in values]
    meta = _config_metadata(cfg)
    meta["sweep_parameter"] = parameter
    rows = []
    for value, sub_cfg in zip(values, cfgs):
        sub = Simulator(sub_cfg)
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
