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

``build_noise_model`` builds one model for every noise factor of a run,
and scales by xi in that one place: each gate entry's channels form one
(X, 4^a, 4^a) stack, one member per xi, from the thermal channels through
the back-solved depolarizing probabilities to the CPTP check, and the
readout one (X, n_qubits, 2, 2) array.  The channel helpers take such
stacks as well as single channels.  A clamped depolarizing probability
warns once per clamped member, naming its gate entry and xi.

Which calibration entry a gate uses is decided in one place,
``CalibrationData.gate_entry``: an entry on the gate's own operands beats
the kind's wildcard entry.  ``NoiseModel.channel_for`` asks it, then returns
that entry's stack.  A kind has at most one entry per operand list and one
wildcard, so the two always agree.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import embed_operator

CPTP_TOL = 1e-10


# ---------------------------------------------------------------------------
# calibration data


def _require_finite(entry, label: str, names: tuple[str, ...]) -> None:
    """Each named field of a calibration entry is a finite real number, not a boolean."""
    for name in names:
        value = getattr(entry, name)
        # a float is a real non-boolean, and the abstract-class check costs ~1 us per field
        real = type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))
        if not real or not math.isfinite(value):
            raise ValueError(f"{label}: {name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class QubitCalibration:
    t1_us: float
    t2_us: float
    p10: float  # P(read 1 | prepared 0)
    p01: float  # P(read 0 | prepared 1)

    def __post_init__(self) -> None:
        _require_finite(self, "qubit entry", ("t1_us", "t2_us", "p10", "p01"))
        if self.t1_us <= 0 or not 0 < self.t2_us <= 2 * self.t1_us:
            raise ValueError(f"unphysical relaxation times T1={self.t1_us}, T2={self.t2_us}")
        for p in (self.p10, self.p01):
            if not 0 <= p <= 1:
                raise ValueError(f"readout probability {p} outside [0, 1]")
        if self.p10 + self.p01 >= 1:
            # the confusion matrix at xi has determinant 1 - xi (p10 + p01), so some xi <= 1 makes it singular
            raise ValueError(
                f"qubit entry: p10={self.p10!r} and p01={self.p01!r} must sum to below 1, or readout "
                "mitigation cannot invert the confusion matrix at xi = 1 / (p10 + p01)"
            )


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
        if not self.qubits:
            raise ValueError("calibration lists no qubits")
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

    @cached_property
    def mean_qubit(self) -> QubitCalibration:
        """The processor-average qubit, computed once per calibration."""
        return QubitCalibration(
            float(np.mean([q.t1_us for q in self.qubits])),
            float(np.mean([q.t2_us for q in self.qubits])),
            float(np.mean([q.p10 for q in self.qubits])),
            float(np.mean([q.p01 for q in self.qubits])),
        )


def load_calibration(path) -> CalibrationData:
    with open(path) as fh:
        doc = json.load(fh)
    return _calibration_from_dict(doc)


def jakarta_average_calibration() -> CalibrationData:
    """Bundled device averages (processor-wide means of the published calibration)."""
    return load_calibration(os.path.join(os.path.dirname(__file__), "data", "jakarta-avg.json"))


def _calibration_from_dict(doc: dict) -> CalibrationData:
    try:
        qubits = tuple(QubitCalibration(q["t1_us"], q["t2_us"], q["p10"], q["p01"]) for q in doc["qubits"])
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


# ---------------------------------------------------------------------------
# quantum channels


def _value_or_stack(value: np.ndarray):
    """A Python float or bool for one channel's value, the array of values for a stack."""
    return value.item() if np.ndim(value) == 0 else value


def kraus_superop(kraus) -> np.ndarray:
    """Superoperator S = sum_k K_k x conj(K_k) of stacked Kraus operators.

    Row-major vectorization: vec(K rho K^dag) = S vec(rho) with
    vec(rho) = rho.ravel().
    """
    kraus = np.asarray(kraus, dtype=complex)
    d = kraus.shape[1]
    return np.einsum("kab,kcd->acbd", kraus, kraus.conj()).reshape(d * d, d * d)


def is_cptp(superop: np.ndarray):
    """Trace preserving, and a Hermitian positive semidefinite Choi matrix, each to ``CPTP_TOL``.

    ``superop`` is one channel or a stack of them (..., 4^n, 4^n); a stack
    gives one bool per member.
    """
    superop = np.asarray(superop)
    d = math.isqrt(superop.shape[-1])
    identity = np.eye(d).ravel()
    trace_kept = np.max(np.abs(identity @ superop - identity), axis=-1) <= CPTP_TOL
    choi = superop.reshape(superop.shape[:-2] + (d,) * 4).swapaxes(-3, -2).reshape(superop.shape)
    hermitian = np.max(np.abs(choi - choi.conj().swapaxes(-2, -1)), axis=(-2, -1)) <= CPTP_TOL
    positive = np.linalg.eigvalsh(choi).min(axis=-1) >= -CPTP_TOL
    return _value_or_stack(trace_kept & hermitian & positive)


def thermal_relaxation_channel(t1: float, t2: float, t_gate) -> np.ndarray:
    """Single-qubit thermal relaxation acting for ``t_gate`` (same unit as T1/T2).

    The excited population decays into the ground state with
    p_reset = 1 - exp(-t/T1) and the coherences decay as exp(-t/T2).  An
    array of gate times gives a stack of channels (..., 4, 4).
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("relaxation times must be positive")
    if t2 > 2 * t1:
        raise ValueError(f"T2={t2} > 2 T1={2 * t1} is unphysical")
    t_gate = np.asarray(t_gate, dtype=float)
    if np.any(t_gate < 0):
        raise ValueError("gate time must be nonnegative")
    p_reset = 1.0 - np.exp(-t_gate / t1)
    coherence = np.exp(-t_gate / t2)
    channel = np.zeros(t_gate.shape + (4, 4), dtype=complex)
    channel[..., 0, 0] = 1
    channel[..., 0, 3] = p_reset
    channel[..., 1, 1] = channel[..., 2, 2] = coherence
    channel[..., 3, 3] = 1 - p_reset
    return channel


def depolarizing_channel(p, n_qubits: int) -> np.ndarray:
    """E(rho) = (1 - p) rho + p Tr(rho) I/d; an array of p gives a stack (..., 4^n, 4^n)."""
    p = np.asarray(p, dtype=float)
    outside = ~((0 <= p) & (p <= 1))
    if np.any(outside):
        raise ValueError(f"depolarizing probability {p[outside][0]} outside [0, 1]")
    d = 2**n_qubits
    identity = np.eye(d).ravel()
    p = p[..., None, None]
    return ((1.0 - p) * np.eye(d * d) + p * np.outer(identity, identity) / d).astype(complex)


def process_fidelity(channel: np.ndarray):
    """Tr(S_I^dag S) / d^2: the channel's overlap with the identity.

    A stack of channels (..., d^2, d^2) gives one value per member.
    """
    if not np.all(is_cptp(channel)):
        raise ValueError("channel is not CPTP")
    d = math.isqrt(channel.shape[-1])
    overlap = np.einsum("ab,...ab->...", kraus_superop(np.eye(d, dtype=complex)[None]).conj(), channel)
    return _value_or_stack(overlap.real / d**2)


def average_gate_fidelity(channel: np.ndarray):
    """Haar-averaged gate fidelity against the identity, (d F_pro + 1) / (d + 1), per member of a stack."""
    d = math.isqrt(channel.shape[-1])
    return (d * process_fidelity(channel) + 1.0) / (d + 1.0)


def depolarizing_probability(target_gate_infidelity, thermal: np.ndarray, labels=None):
    """Back-solve p_D so depolarizing-after-thermal hits the calibrated gate error.

    p_D = d (F_T - F_gate) / (d F_T - 1).  A negative solution means the
    thermal channel alone already exceeds the error budget; it is clamped
    to zero with a warning so scaled calibrations remain usable.

    A stack of thermal channels (..., D, D), with one gate infidelity per
    member or one for all, gives one p_D per member.  ``labels``, one per member in
    flattened order, name the members whose clamp is warned about; each
    clamped member warns once.
    """
    d = math.isqrt(thermal.shape[-1])
    f_thermal = average_gate_fidelity(thermal)
    target = np.asarray(target_gate_infidelity, dtype=float)
    p = np.asarray(d * (f_thermal - (1.0 - target)) / (d * f_thermal - 1.0))
    too_large = p > 1
    if np.any(too_large):
        raise ValueError(f"depolarizing probability {p[too_large][0]:.3f} > 1; calibration inconsistent")
    thermal_infidelity, gate_error = (np.broadcast_to(v, p.shape).ravel() for v in (1 - f_thermal, target))
    for i in np.flatnonzero(p <= -1e-9):  # above that, a negative p is numerically zero
        label = "" if labels is None else f"{labels[i]}: "
        warnings.warn(
            f"{label}thermal infidelity {thermal_infidelity[i]:.3e} exceeds gate error "
            f"{gate_error[i]:.3e}; depolarizing probability clamped to 0",
            stacklevel=2,
        )
    return _value_or_stack(np.where(p < 0, 0.0, p))


# ---------------------------------------------------------------------------
# assembled noise model


@dataclass(frozen=True)
class NoiseModel:
    """Per-(gate kind, operands) channel stacks plus per-qubit readout confusion matrices.

    ``xi`` holds the noise factors, one per member.  ``channels`` holds one
    (X, 4^a, 4^a) stack per gate entry, keyed by the entry's kind and
    operands (None for a wildcard entry); ``readout`` is the (X, n_qubits,
    2, 2) array of confusion matrices M[m, n] = P(record n | true m); and
    ``calibration`` is the unscaled calibration the model was built from.
    """

    xi: tuple[float, ...]
    channels: dict
    readout: np.ndarray
    calibration: CalibrationData

    def channel_for(self, kind: str, qubits: tuple[int, ...]) -> np.ndarray:
        """The channel stack of the calibration entry that ``gate_entry`` picks for the gate."""
        entry = self.calibration.gate_entry(kind, qubits)
        return self.channels[(entry.kind, entry.qubits)]


def _gate_thermal_channel(cal: CalibrationData, entry: GateCalibration, xi=1.0) -> np.ndarray:
    """Thermal relaxation of a gate entry's operands for the gate's duration times xi.

    ``xi`` is a float, or a 1-d array that gives one channel per value as a
    (len(xi), 4^a, 4^a) stack.  Two-qubit thermal error is the tensor
    product of the operands' single-qubit channels.  Wildcard gate entries
    use the processor-average qubit parameters.
    """
    n_q = _operand_count(entry.kind)
    if entry.qubits is None:
        qcals = [cal.mean_qubit] * n_q
    else:
        qcals = [cal.qubits[q] for q in entry.qubits]
    t_us = xi * entry.time_ns * 1e-3
    singles = [thermal_relaxation_channel(qc.t1_us, qc.t2_us, t_us) for qc in qcals]
    if n_q == 1:
        return singles[0]
    product = np.einsum("...ab,...cd->...acbd", *singles).reshape(singles[0].shape[:-2] + (16, 16))
    return embed_operator(product, (0, 2, 1, 3), 4)


def build_noise_model(cal: CalibrationData, xi: float | tuple[float, ...] = 1.0) -> NoiseModel:
    """Compose thermal relaxation then depolarizing per gate entry, scaled by xi.

    ``xi`` is one noise factor or a tuple of them, each one member of the
    model in order.  Every value is checked before any channel is built.
    xi scales each entry's gate error and time, and each qubit's readout
    flip probabilities; T1 and T2 stay unscaled.
    """
    xis = xi if isinstance(xi, tuple) else (xi,)
    if not xis:
        raise ValueError("need at least one noise factor")
    for x in xis:
        if not 0 <= x <= 1:
            raise ValueError(f"noise factor {x} outside [0, 1]")
    factors = np.array(xis, dtype=float)
    channels = {}
    for entry in cal.gates:
        operands = "any operands" if entry.qubits is None else f"qubits {entry.qubits}"
        thermal = _gate_thermal_channel(cal, entry, factors)
        labels = [f"{entry.kind} on {operands} at xi={x:g}" for x in xis]
        p_depol = depolarizing_probability(factors * entry.error, thermal, labels)
        channel = depolarizing_channel(p_depol, _operand_count(entry.kind)) @ thermal
        if not np.all(is_cptp(channel)):
            raise RuntimeError(f"constructed channel for {entry.kind} is not CPTP")
        channels[(entry.kind, entry.qubits)] = channel
    p10, p01 = np.array([[q.p10 for q in cal.qubits], [q.p01 for q in cal.qubits]])[:, None] * factors[:, None]
    readout = np.stack([1 - p10, p10, p01, 1 - p01], axis=-1).reshape(len(xis), len(cal.qubits), 2, 2)
    return NoiseModel(xis, channels, readout, cal)

