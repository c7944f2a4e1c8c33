"""Bit-identity guards for the evaluation layer and the sweeps built on it.

SHA-256 digests (first 16 hex digits) of the evaluator's outputs at seeded
random vectors, of the finite-difference Hessian and its spectrum, and of
the records of three sweeps.  They pin every bit, so a rewrite of the
energy/gradient hot path must keep the same floating-point operations in
the same order.  The sweeps matter as much as the single evaluations: near
a pitchfork the Barzilai-Borwein iterations amplify a last-bit change into
different iteration counts and states.

Recorded on Python 3.11.7 with numpy 2.4.6 on x86-64 Linux (OpenBLAS); the
digests may differ under another numpy or BLAS.
"""

import hashlib
from dataclasses import astuple, replace

import numpy as np
import pytest

from smectic1d import ModelParams1D, SpectralState, SweepConfig, stability, sweep_temperature
from smectic1d.energy1d import Evaluator


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _records_digest(records) -> str:
    """Digest of sweep records, with every float written exactly (hex)."""

    def field(v) -> str:
        if v is None or isinstance(v, str):
            return repr(v)
        if isinstance(v, (bool, np.bool_)):
            return str(bool(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return float(v).hex()

    text = "\n".join(",".join(field(v) for v in astuple(r)) for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _vector(n: int, seed: int, kind: str) -> np.ndarray:
    """A seeded coefficient vector with amplitudes falling off as 1/(1+k).

    ``kind`` "no-layers" sets the rho coefficients to -0.0, as in the mirror
    image of a layer-free state, and "untilted" sets the theta coefficients
    to -0.0 (an untilted layered state): every sample of that block is then
    a sum of signed zeros, so the sign of each zero the evaluation produces
    shows in the digests.  "layers" keeps both blocks.
    """
    rng = np.random.default_rng(seed)
    k = np.concatenate([np.arange(n + 2), np.arange(1, n + 2)])
    x = 0.2 * rng.standard_normal(2 * n + 3) / (1.0 + k)
    if kind == "no-layers":
        x[n + 2 :] = -0.0
    elif kind == "untilted":
        x[: n + 2] = -0.0
    return x


def _evaluation_digests(n: int, e: float, kind: str) -> dict[str, str]:
    params = replace(ModelParams1D(), e=e)
    x = _vector(n, n + int(1000 * e), kind)
    ev = Evaluator(n, params)
    energy = ev.energy(x)
    breakdown = ev.breakdown(x)
    grad = ev.gradient(x)  # from the kept pointwise terms of energy(x)
    hess = ev.hessian(x)
    # a fresh evaluator synthesizes the fields anew: the same bits
    assert np.array_equal(Evaluator(n, params).gradient(x), grad)
    state = SpectralState.from_vector(x, n, params.h)
    return {
        "energy": _digest([energy]),
        "breakdown": _digest(tuple(breakdown)),
        "gradient": _digest(grad),
        "hessian": _digest(hess),
        "fd_hessian": _digest(stability.hessian(state, params)),
        "spectrum": _digest(stability.spectrum(state, params).eigenvalues),
    }


EVALUATION_DIGESTS = {
    (16, 0.0, "layers"): {
        "energy": "93afa44313182707",
        "breakdown": "80c906c704e40957",
        "gradient": "c2bf2b3ab7790633",
        "hessian": "2b0e4308e3f0fbd0",
        "fd_hessian": "1203c589b9e7d2cb",
        "spectrum": "f9f90a77e8db2edd",
    },
    (16, 0.05, "layers"): {
        "energy": "0dcf6a27f7b285c7",
        "breakdown": "47172357383cac8f",
        "gradient": "d34ddf613624e586",
        "hessian": "e2b50d421e672bb9",
        "fd_hessian": "0073cf3a8fa484c5",
        "spectrum": "280494cdc2d86c0c",
    },
    (64, 0.0, "layers"): {
        "energy": "8050e7f01e747ff1",
        "breakdown": "0206edca6ef3c16a",
        "gradient": "31d33f4f6e756327",
        "hessian": "9e9ef1e61ad56cef",
        "fd_hessian": "0b897ab0fe186147",
        "spectrum": "968ded6abf69db92",
    },
    (64, 0.05, "layers"): {
        "energy": "e81a2551e989d08e",
        "breakdown": "2053c181551d1cdc",
        "gradient": "f8d7d23f0c6535e3",
        "hessian": "70134b37e125b4f6",
        "fd_hessian": "f876cab546cba20e",
        "spectrum": "1cdaf45e5ed565cf",
    },
    (16, 0.0, "no-layers"): {
        "energy": "b664a4840a612a51",
        "breakdown": "67927094e47ee5db",
        "gradient": "dac58300f72aa790",
        "hessian": "a372c6bcc8b89925",
        "fd_hessian": "cdfab8bf084cab97",
        "spectrum": "a76367215381588f",
    },
    (64, 0.0, "untilted"): {
        "energy": "34fa76db862beb82",
        "breakdown": "7c0efc9e0edcfef3",
        "gradient": "334158252811e868",
        "hessian": "60c2b6bf0a12ff7b",
        "fd_hessian": "558c484a29502af9",
        "spectrum": "f9c0747b3ee35103",
    },
}


@pytest.mark.parametrize("key", list(EVALUATION_DIGESTS), ids=lambda k: f"N{k[0]}-e{k[1]}-{k[2]}")
def test_evaluation_digests(key):
    assert _evaluation_digests(*key) == EVALUATION_DIGESTS[key]


@pytest.fixture(scope="module")
def tilt_onset_records(fig3_params):
    """The T grid of the benchmark's tilt_onset workload: 11 BB relaxations, the longest 224 steps."""
    return sweep_temperature(fig3_params, SweepConfig(t_start=-21.2, t_end=-22.2, dt=0.2, record_morse=True))


def test_fig3_sweep_records(fig3_sweep):
    assert _records_digest(fig3_sweep) == "58360d85339f9d2d"


def test_tilt_sweep_records(tilt_sweep):
    assert _records_digest(tilt_sweep) == "cdb88bab0ef4f5ec"


def test_tilt_onset_records(tilt_onset_records):
    assert _records_digest(tilt_onset_records) == "7486df730f126ada"
