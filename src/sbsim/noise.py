"""Per-gate noise channels derived from device calibration data.

Every native gate carries thermal relaxation (acting for the gate's
duration) followed by a depolarizing channel whose probability is solved
backwards so the composition reproduces the calibrated average gate
infidelity.  Readout error is an independent per-qubit bit flip before a
noiseless measurement.  A noise factor xi in [0, 1] scales gate
infidelities, gate times, and false-readout probabilities uniformly,
leaving T1/T2 untouched; this keeps the thermal-to-depolarizing ratio of
the model approximately unchanged.

A channel is a plain complex (4^n, 4^n) superoperator array,
vec(E(rho)) = S vec(rho) on the row-major vectorization (``kraus_superop``'s
convention), which the engine applies directly; "A then B" is ``B @ A``.
Thermal relaxation is one such matrix: populations relax to the ground
state with p_reset = 1 - exp(-t/T1) and coherences decay as exp(-t/T2); it
is completely positive exactly when T2 <= 2 T1.  On two qubits it is the
kron of the operands' channels, with bits (first row, first column, second
row, second column), placed by ``pauli.embed_operator`` in row-then-column
order.  Qubit temperature is fixed at zero, so qubit frequency never enters.

Which calibration entry a gate uses is decided in one place,
``CalibrationData.gate_entry``: an entry on the gate's own operands beats
the kind's wildcard entry.  ``NoiseModel.channel_for`` asks it, then reads
that entry's channel.  A kind has at most one entry per operand list and
one wildcard, so the two always agree.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .pauli import embed_operator

CPTP_TOL = 1e-10


# ---------------------------------------------------------------------------
# calibration data


def _require_finite(entry, label: str, names: tuple[str, ...]) -> None:
    """Each named field of a calibration entry is a finite real number, not a boolean."""
    for name in names:
        value = getattr(entry, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise ValueError(f"{label}: {name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class QubitCalibration:
    t1_us: float
    t2_us: float
    freq_ghz: float
    p10: float  # P(read 1 | prepared 0)
    p01: float  # P(read 0 | prepared 1)

    def __post_init__(self) -> None:
        _require_finite(self, "qubit entry", ("t1_us", "t2_us", "freq_ghz", "p10", "p01"))
        if self.t1_us <= 0 or not 0 < self.t2_us <= 2 * self.t1_us:
            raise ValueError(f"unphysical relaxation times T1={self.t1_us}, T2={self.t2_us}")
        for p in (self.p10, self.p01):
            if not 0 <= p <= 1:
                raise ValueError(f"readout probability {p} outside [0, 1]")


def _operand_count(kind: str) -> int:
    """Operands of a calibrated gate kind: cx takes two, every other kind one."""
    return 2 if kind == "cx" else 1


@dataclass(frozen=True)
class GateCalibration:
    kind: str
    qubits: tuple[int, ...] | None  # None = applies to any operands
    error: float
    time_ns: float

    def __post_init__(self) -> None:
        n_q = _operand_count(self.kind)
        if self.qubits is not None:
            object.__setattr__(self, "qubits", tuple(self.qubits))
            if not all(isinstance(q, numbers.Integral) and not isinstance(q, bool) for q in self.qubits):
                raise ValueError(f"{self.kind} entry: qubits must be a list of integers, got {self.qubits!r}")
            if len(self.qubits) != n_q:
                raise ValueError(
                    f"{self.kind} entry on qubits {self.qubits} has {len(self.qubits)} operand(s); "
                    f"{self.kind} takes {n_q}"
                )
        _require_finite(self, f"{self.kind} entry", ("error", "time_ns"))
        limit = 1 - 0.5**n_q  # fully depolarizing; above it p_depol > 1 at some xi <= 1
        if not 0 <= self.error <= limit:
            raise ValueError(
                f"{self.kind} error {self.error} outside [0, {limit}], the fully depolarizing limit"
            )
        if self.time_ns < 0:
            raise ValueError("gate time must be nonnegative")


@dataclass(frozen=True)
class CalibrationData:
    qubits: tuple[QubitCalibration, ...]
    gates: tuple[GateCalibration, ...]

    def __post_init__(self) -> None:
        seen = set()
        for g in self.gates:
            if g.qubits is not None and not all(0 <= q < len(self.qubits) for q in g.qubits):
                raise ValueError(
                    f"{g.kind} entry on qubits {g.qubits}, but only {len(self.qubits)} qubits are calibrated"
                )
            if (g.kind, g.qubits) in seen:
                operands = "any operands" if g.qubits is None else f"qubits {g.qubits}"
                raise ValueError(f"two {g.kind} entries on {operands}")
            seen.add((g.kind, g.qubits))

    def gate_entry(self, kind: str, qubits: tuple[int, ...] | None = None) -> GateCalibration:
        if qubits is not None:
            for g in self.gates:
                if g.kind == kind and g.qubits == tuple(qubits):
                    return g
        for g in self.gates:
            if g.kind == kind and g.qubits is None:
                return g
        raise KeyError(f"no calibration entry for {kind} on {qubits}")

    def mean_qubit(self) -> QubitCalibration:
        return QubitCalibration(
            float(np.mean([q.t1_us for q in self.qubits])),
            float(np.mean([q.t2_us for q in self.qubits])),
            float(np.mean([q.freq_ghz for q in self.qubits])),
            float(np.mean([q.p10 for q in self.qubits])),
            float(np.mean([q.p01 for q in self.qubits])),
        )


def load_calibration(path) -> CalibrationData:
    with open(path) as fh:
        doc = json.load(fh)
    return _calibration_from_dict(doc)


def jakarta_average_calibration() -> CalibrationData:
    """Bundled device averages (processor-wide means of the published calibration)."""
    text = resources.files("sbsim").joinpath("data/jakarta-avg.json").read_text()
    return _calibration_from_dict(json.loads(text))


def _calibration_from_dict(doc: dict) -> CalibrationData:
    try:
        qubits = tuple(
            QubitCalibration(q["t1_us"], q["t2_us"], q.get("freq_ghz", 0.0), q["p10"], q["p01"])
            for q in doc["qubits"]
        )
        gates = tuple(
            GateCalibration(
                g["kind"],
                tuple(g["qubits"]) if g.get("qubits") is not None else None,
                g["error"],
                g["time_ns"],
            )
            for g in doc["gates"]
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed calibration document: {exc}") from exc
    return CalibrationData(qubits, gates)


def scale_calibration(cal: CalibrationData, xi: float) -> CalibrationData:
    """Scale gate infidelity, gate time, and readout flip probabilities by xi."""
    if not 0 <= xi <= 1:
        raise ValueError(f"noise factor {xi} outside [0, 1]")
    qubits = tuple(replace(q, p10=xi * q.p10, p01=xi * q.p01) for q in cal.qubits)
    gates = tuple(replace(g, error=xi * g.error, time_ns=xi * g.time_ns) for g in cal.gates)
    return CalibrationData(qubits, gates)


# ---------------------------------------------------------------------------
# quantum channels


def kraus_superop(kraus) -> np.ndarray:
    """Superoperator S = sum_k K_k x conj(K_k) of stacked Kraus operators.

    Row-major vectorization: vec(K rho K^dag) = S vec(rho) with
    vec(rho) = rho.ravel().
    """
    kraus = np.asarray(kraus, dtype=complex)
    d = kraus.shape[1]
    return np.einsum("kab,kcd->acbd", kraus, kraus.conj()).reshape(d * d, d * d)


def is_cptp(superop: np.ndarray, tol: float = CPTP_TOL) -> bool:
    """Trace preserving, and a Hermitian positive semidefinite Choi matrix."""
    d = math.isqrt(len(superop))
    identity = np.eye(d).ravel()
    if np.max(np.abs(identity @ superop - identity)) > tol:
        return False
    choi = superop.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    if np.max(np.abs(choi - choi.conj().T)) > tol:
        return False
    return bool(np.linalg.eigvalsh(choi).min() >= -tol)


def thermal_relaxation_channel(t1: float, t2: float, t_gate: float) -> np.ndarray:
    """Single-qubit thermal relaxation acting for ``t_gate`` (same unit as T1/T2).

    The excited population decays into the ground state with
    p_reset = 1 - exp(-t/T1) and the coherences decay as exp(-t/T2).
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("relaxation times must be positive")
    if t2 > 2 * t1:
        raise ValueError(f"T2={t2} > 2 T1={2 * t1} is unphysical")
    if t_gate < 0:
        raise ValueError("gate time must be nonnegative")
    p_reset = 1.0 - math.exp(-t_gate / t1)
    coherence = math.exp(-t_gate / t2)
    return np.array(
        [
            [1, 0, 0, p_reset],
            [0, coherence, 0, 0],
            [0, 0, coherence, 0],
            [0, 0, 0, 1 - p_reset],
        ],
        dtype=complex,
    )


def depolarizing_channel(p: float, n_qubits: int) -> np.ndarray:
    """E(rho) = (1 - p) rho + p Tr(rho) I/d."""
    if not 0 <= p <= 1:
        raise ValueError(f"depolarizing probability {p} outside [0, 1]")
    d = 2**n_qubits
    identity = np.eye(d).ravel()
    return ((1.0 - p) * np.eye(d * d) + p * np.outer(identity, identity) / d).astype(complex)


def process_fidelity(channel: np.ndarray, target: np.ndarray | None = None) -> float:
    """Tr(S_U^dag S) / d^2: the channel's overlap with the target unitary U."""
    if not is_cptp(channel):
        raise ValueError("channel is not CPTP")
    d = math.isqrt(len(channel))
    target_u = np.eye(d, dtype=complex) if target is None else np.asarray(target, dtype=complex)
    if target_u.shape != (d, d):
        raise ValueError("target dimension mismatch")
    overlap = np.vdot(kraus_superop(target_u[None]), channel)
    return float(overlap.real) / d**2


def average_gate_fidelity(channel: np.ndarray, target: np.ndarray | None = None) -> float:
    """Haar-averaged gate fidelity, (d F_pro + 1) / (d + 1)."""
    d = math.isqrt(len(channel))
    return (d * process_fidelity(channel, target) + 1.0) / (d + 1.0)


def depolarizing_probability(target_gate_infidelity: float, thermal: np.ndarray) -> float:
    """Back-solve p_D so depolarizing-after-thermal hits the calibrated gate error.

    p_D = d (F_T - F_gate) / (d F_T - 1).  A negative solution means the
    thermal channel alone already exceeds the error budget; it is clamped
    to zero with a warning so scaled calibrations remain usable.
    """
    d = math.isqrt(len(thermal))
    f_thermal = average_gate_fidelity(thermal)
    f_gate = 1.0 - target_gate_infidelity
    p = d * (f_thermal - f_gate) / (d * f_thermal - 1.0)
    if -1e-9 < p < 0:  # numerically zero
        return 0.0
    if p < 0:
        warnings.warn(
            f"thermal infidelity {1 - f_thermal:.3e} exceeds gate error "
            f"{target_gate_infidelity:.3e}; depolarizing probability clamped to 0",
            stacklevel=2,
        )
        return 0.0
    if p > 1:
        raise ValueError(f"depolarizing probability {p:.3f} > 1; calibration inconsistent")
    return p


# ---------------------------------------------------------------------------
# assembled noise model


@dataclass(frozen=True)
class NoiseModel:
    """Per-(gate kind, operands) channels plus per-qubit readout confusion matrices.

    ``calibration`` is the xi-scaled calibration the model was built from;
    ``channels`` holds one channel per gate entry, keyed by the entry's kind
    and operands (None for a wildcard entry).
    """

    channels: dict
    readout: tuple[np.ndarray, ...]
    calibration: CalibrationData

    def channel_for(self, kind: str, qubits: tuple[int, ...]) -> np.ndarray:
        """The channel of the calibration entry that ``gate_entry`` picks for the gate."""
        entry = self.calibration.gate_entry(kind, qubits)
        return self.channels[(entry.kind, entry.qubits)]


def _gate_thermal_channel(cal: CalibrationData, entry: GateCalibration) -> np.ndarray:
    """Thermal relaxation of a gate entry's operands for the gate's duration.

    Two-qubit thermal error is the tensor product of the operands'
    single-qubit channels.  Wildcard gate entries use the processor-average
    qubit parameters.
    """
    n_q = _operand_count(entry.kind)
    if entry.qubits is None:
        qcals = [cal.mean_qubit()] * n_q
    else:
        qcals = [cal.qubits[q] for q in entry.qubits]
    t_us = entry.time_ns * 1e-3
    singles = [thermal_relaxation_channel(qc.t1_us, qc.t2_us, t_us) for qc in qcals]
    return singles[0] if n_q == 1 else embed_operator(np.kron(*singles), (0, 2, 1, 3), 4)


def build_noise_model(cal: CalibrationData, xi: float = 1.0) -> NoiseModel:
    """Compose thermal relaxation then depolarizing per gate entry, scaled by xi."""
    scaled = scale_calibration(cal, xi)
    channels = {}
    for entry in scaled.gates:
        thermal = _gate_thermal_channel(scaled, entry)
        p_depol = depolarizing_probability(entry.error, thermal)
        channel = depolarizing_channel(p_depol, _operand_count(entry.kind)) @ thermal
        if not is_cptp(channel):
            raise RuntimeError(f"constructed channel for {entry.kind} is not CPTP")
        channels[(entry.kind, entry.qubits)] = channel
    readout = tuple(
        np.array([[1 - q.p10, q.p10], [q.p01, 1 - q.p01]]) for q in scaled.qubits
    )
    return NoiseModel(channels, readout, scaled)


def error_source_ratio(cal: CalibrationData, kinds: tuple[str, ...] = ("cx", "sx", "x")) -> float:
    """Device-level thermal/depolarizing infidelity ratio, averaged per kind.

    Virtual gates (zero duration and zero error) are skipped.
    """
    per_kind = []
    for kind in kinds:
        ratios = []
        for entry in cal.gates:
            if entry.kind != kind or (entry.time_ns == 0 and entry.error == 0):
                continue
            i_thermal = 1.0 - average_gate_fidelity(_gate_thermal_channel(cal, entry))
            i_depol = entry.error - i_thermal
            if i_depol <= 0:
                raise ValueError(f"thermal error exceeds calibrated error for {kind}")
            ratios.append(i_thermal / i_depol)
        if ratios:
            per_kind.append(float(np.mean(ratios)))
    if not per_kind:
        raise ValueError("no non-virtual gate entries among requested kinds")
    return float(np.mean(per_kind))
