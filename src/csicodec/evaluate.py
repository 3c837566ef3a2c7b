"""Metrics, the linear baseline, and rate-distortion sweeps.

NMSE follows the expectation form: the dataset value is the mean of
per-sample error ratios, not the ratio of summed energies. Perfect
reconstruction yields -inf dB, written to CSV as the distinguished string
"-inf" (which float() parses back). Rate metrics treat the channel matrix
as 2*N_t*N_c real dimensions.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import codec
from .dataset import load_dataset
from .model import CoordinateGrid, ModelParams, load_checkpoint
from .util import config_fingerprint


def per_sample_nmse(targets: np.ndarray, recons: np.ndarray) -> np.ndarray:
    """Per-sample ||H - H_hat||_F^2 / ||H||_F^2 for stacks of matrices."""
    t = np.asarray(targets)
    r = np.asarray(recons)
    if t.shape != r.shape:
        raise ValueError("target and reconstruction shapes differ")
    if t.ndim == 2:
        t = t[None]
        r = r[None]
    if t.ndim != 3:
        raise ValueError("expected (count, rows, cols) matrices")
    num = np.sum(np.abs(t - r) ** 2, axis=(1, 2)).astype(np.float64)
    den = np.sum(np.abs(t) ** 2, axis=(1, 2)).astype(np.float64)
    if np.any(den == 0):
        raise ValueError("zero-norm target matrix")
    return num / den


def nmse_db(linear: float) -> float:
    """10*log10, with -inf for exact zero."""
    if linear < 0:
        raise ValueError("NMSE cannot be negative")
    if linear == 0:
        return float("-inf")
    return float(10.0 * np.log10(linear))


def nmse(targets: np.ndarray, recons: np.ndarray):
    """Dataset NMSE: mean of per-sample ratios. Returns (linear, dB)."""
    linear = float(np.mean(per_sample_nmse(targets, recons)))
    return linear, nmse_db(linear)


@dataclass(frozen=True)
class Rates:
    cr: float
    bit_rate: float
    coding_gain: float | None


def rates(codeword_dim: int, bit_width: int | None, payload_bits: float,
          num_antennas: int, num_subcarriers: int) -> Rates:
    """Compression ratio, bit rate, and entropy-coding gain.

    CR counts codeword reals against the 2*N_t*N_c reals of the matrix;
    bit rate counts actual payload bits against the same denominator;
    coding gain is the relative saving versus fixed-width symbols and is
    None when no bit width applies (unquantized payloads).
    """
    if codeword_dim < 1 or num_antennas < 1 or num_subcarriers < 1:
        raise ValueError("dimensions must be positive")
    if payload_bits < 0:
        raise ValueError("payload_bits must be nonnegative")
    dims = 2.0 * num_antennas * num_subcarriers
    gain = None
    if bit_width is not None:
        if bit_width < 1:
            raise ValueError("bit_width must be positive when given")
        gain = 1.0 - payload_bits / (codeword_dim * bit_width)
    return Rates(cr=codeword_dim / dims, bit_rate=payload_bits / dims,
                 coding_gain=gain)


@dataclass(frozen=True)
class MetricReport:
    """Distortion and rate summary for one evaluated configuration."""

    count: int
    per_sample: np.ndarray       # linear per-sample NMSE
    nmse_linear: float
    nmse_db: float
    raw_bits: int                # fixed-width bits per sample (32n unquantized)
    mean_payload_bits: float
    cr: float
    bit_rate: float
    coding_gain: float | None
    fingerprint: str = ""


def evaluate_model(params: ModelParams, matrices: np.ndarray, inner_steps: int,
                   state: codec.CodecState | None = None,
                   inner_lr: float = 1e-2, fingerprint: str = "") -> MetricReport:
    """Run the full encode/decode chain over a test stack and measure it."""
    m = np.asarray(matrices)
    count, rows, cols = m.shape
    grid = CoordinateGrid(rows, cols)
    streams = codec.encode_dataset(params, m, inner_steps, state, inner_lr)
    recons = codec.decode_matrices(params, streams, grid, state)
    per = per_sample_nmse(m, recons)
    linear = float(np.mean(per))
    n = params.arch.codeword_dim
    raw_bits = 32 * n if state is None else state.quantizer.bit_width * n
    mean_bits = float(np.mean([s.payload_bits for s in streams]))
    r = rates(n, None if state is None else state.quantizer.bit_width,
              mean_bits, rows, cols)
    return MetricReport(count=count, per_sample=per, nmse_linear=linear,
                        nmse_db=nmse_db(linear), raw_bits=raw_bits,
                        mean_payload_bits=mean_bits, cr=r.cr,
                        bit_rate=r.bit_rate, coding_gain=r.coding_gain,
                        fingerprint=fingerprint)


def svd_baseline(train_matrices: np.ndarray, test_matrices: np.ndarray,
                 codeword_dim: int, fingerprint: str = "") -> MetricReport:
    """Linear comparator: top-n principal directions of real-stacked channels.

    Each test sample is sent as n unquantized real coefficients in the
    training principal basis (n = 0 degenerates to the mean-only
    predictor). Anchors the equal-feedback-dimension comparison; rank
    deficiency is handled by truncating to the nonzero spectrum.
    """
    tr = np.asarray(train_matrices)
    te = np.asarray(test_matrices)
    if tr.ndim != 3 or te.ndim != 3 or tr.shape[1:] != te.shape[1:]:
        raise ValueError("train and test stacks must share matrix shape")
    count, rows, cols = te.shape
    dims = 2 * rows * cols
    if not (0 <= codeword_dim <= dims):
        raise ValueError(f"codeword_dim must be in 0..{dims}")

    def stack(m):
        return np.concatenate([m.real.reshape(m.shape[0], -1),
                               m.imag.reshape(m.shape[0], -1)], axis=1)

    x_tr = stack(tr).astype(np.float64)
    x_te = stack(te).astype(np.float64)
    mean = x_tr.mean(axis=0)
    recon = np.broadcast_to(mean, x_te.shape).copy()
    if codeword_dim > 0:
        centered = x_tr - mean
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        tol = s.max(initial=0.0) * max(centered.shape) * np.finfo(np.float64).eps
        rank = int(np.sum(s > tol))
        basis = vt[:min(codeword_dim, rank)]
        coeff = (x_te - mean) @ basis.T
        recon = mean + coeff @ basis
    re = recon[:, :rows * cols].reshape(count, rows, cols)
    im = recon[:, rows * cols:].reshape(count, rows, cols)
    per = per_sample_nmse(te, re + 1j * im)
    linear = float(np.mean(per))
    r = rates(max(codeword_dim, 1), None, 32.0 * codeword_dim, rows, cols)
    return MetricReport(count=count, per_sample=per, nmse_linear=linear,
                        nmse_db=nmse_db(linear), raw_bits=32 * codeword_dim,
                        mean_payload_bits=32.0 * codeword_dim,
                        cr=codeword_dim / (2.0 * rows * cols),
                        bit_rate=r.bit_rate, coding_gain=None,
                        fingerprint=fingerprint)


@dataclass(frozen=True)
class SweepSpec:
    """Cross of checkpoints, bit widths, and inner-step counts to evaluate.

    bits may include None for the unquantized path. fit_dataset names the
    split used to fit quantizer bounds and frequency tables (falls back to
    the eval dataset when absent, which leaks the eval set into the codec
    fit; fine for smoke runs, not for reported numbers). eval_offset and
    eval_count select the evaluation slice; fit_count limits fitting samples.
    """

    dataset: str
    checkpoints: tuple
    bits: tuple
    inner_steps: tuple
    out: str
    fit_dataset: str | None = None
    fit_count: int | None = None
    eval_offset: int = 0
    eval_count: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (self.checkpoints and self.bits and self.inner_steps):
            raise ValueError("checkpoints, bits, inner_steps must be nonempty")


def parse_sweep_spec(path) -> SweepSpec:
    """Plain key=value text, one pair per line, # comments, commas for lists."""
    fields = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            fields[key] = value
    try:
        bits = tuple(None if v.strip().lower() == "none" else int(v)
                     for v in fields["bits"].split(","))
        return SweepSpec(
            dataset=fields["dataset"],
            checkpoints=tuple(v.strip() for v in fields["checkpoints"].split(",")),
            bits=bits,
            inner_steps=tuple(int(v) for v in fields["inner_steps"].split(",")),
            out=fields["out"],
            fit_dataset=fields.get("fit_dataset"),
            fit_count=int(fields["fit_count"]) if "fit_count" in fields else None,
            eval_offset=int(fields.get("eval_offset", 0)),
            eval_count=int(fields["eval_count"]) if "eval_count" in fields else None,
            seed=int(fields.get("seed", 0)),
        )
    except KeyError as missing:
        raise ValueError(f"{path}: missing required key {missing}") from None


SWEEP_COLUMNS = ("checkpoint", "n", "b", "s_in", "samples", "nmse_db",
                 "mean_payload_bits", "bit_rate", "cr", "coding_gain",
                 "fingerprint")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in SWEEP_COLUMNS])


def read_report_csv(path):
    """Inverse of write_report_csv; numeric fields come back as float/int."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader)
        rows = []
        for rec in reader:
            row = {}
            for key, text in zip(columns, rec):
                if text == "":
                    row[key] = None
                elif key in ("n", "b", "s_in", "samples"):
                    row[key] = int(text)
                elif key in ("nmse_db", "mean_payload_bits", "bit_rate", "cr",
                             "coding_gain"):
                    row[key] = float(text)
                else:
                    row[key] = text
            rows.append(row)
    return columns, rows


def rd_sweep(spec: SweepSpec):
    """Evaluate every (checkpoint, b, s_in) cell and return CSV-ready rows.

    Cells are visited in spec order; each failure is re-raised naming the
    cell. The report is written to spec.out as CSV.
    """
    try:
        eval_ds = load_dataset(spec.dataset)
    except (OSError, ValueError) as err:
        raise ValueError(f"sweep dataset {spec.dataset}: {err}") from err
    stop = None if spec.eval_count is None else spec.eval_offset + spec.eval_count
    eval_m = eval_ds.matrices(denormalise=True)[spec.eval_offset:stop]
    if eval_m.shape[0] == 0:
        raise ValueError("sweep eval slice is empty")
    fit_path = spec.fit_dataset or spec.dataset
    try:
        fit_ds = load_dataset(fit_path)
    except (OSError, ValueError) as err:
        raise ValueError(f"sweep fit dataset {fit_path}: {err}") from err
    fit_m = fit_ds.matrices(denormalise=True)[:spec.fit_count]

    rows = []
    for ckpt_path in spec.checkpoints:
        try:
            params = load_checkpoint(ckpt_path)
        except (OSError, ValueError) as err:
            raise ValueError(f"sweep checkpoint {ckpt_path}: {err}") from err
        states = {}
        for b in spec.bits:
            for s_in in spec.inner_steps:
                cell = f"checkpoint={ckpt_path} b={b} s_in={s_in}"
                try:
                    if b is not None and (b, s_in) not in states:
                        states[(b, s_in)] = codec.fit_codec_state(
                            params, fit_m, b, s_in)
                    state = None if b is None else states[(b, s_in)]
                    fp = config_fingerprint({
                        "checkpoint": ckpt_path, "dataset": spec.dataset,
                        "b": b, "s_in": s_in, "eval_offset": spec.eval_offset,
                        "eval_count": eval_m.shape[0], "seed": spec.seed,
                    })
                    report = evaluate_model(params, eval_m, s_in, state,
                                            fingerprint=fp)
                except (ValueError, RuntimeError) as err:
                    raise ValueError(f"sweep cell {cell}: {err}") from err
                rows.append({
                    "checkpoint": ckpt_path,
                    "n": params.arch.codeword_dim,
                    "b": b,
                    "s_in": s_in,
                    "samples": report.count,
                    "nmse_db": report.nmse_db,
                    "mean_payload_bits": report.mean_payload_bits,
                    "bit_rate": report.bit_rate,
                    "cr": report.cr,
                    "coding_gain": report.coding_gain,
                    "fingerprint": report.fingerprint,
                })
    write_report_csv(rows, spec.out)
    return rows
