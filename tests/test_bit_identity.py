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
        "breakdown": "f60013662c1ec047",
        "gradient": "9be4925a651fcbbf",
        "hessian": "73c6693891b171fa",
        "fd_hessian": "703793c7b4b02ce7",
        "spectrum": "dc0a237755bd8191",
    },
    (16, 0.05, "layers"): {
        "energy": "0dcf6a27f7b285c7",
        "breakdown": "59b46df8f0d0e9dc",
        "gradient": "ad02b2c16636a454",
        "hessian": "7fc25b769f78d714",
        "fd_hessian": "24498292b8b44fbf",
        "spectrum": "6c5734fd86a19da3",
    },
    (64, 0.0, "layers"): {
        "energy": "7f4d7bcec8045f36",
        "breakdown": "298a19f6ba0da3a3",
        "gradient": "776d4852c1c46067",
        "hessian": "494f75082602f47a",
        "fd_hessian": "38956a1883117b23",
        "spectrum": "673a04f879816255",
    },
    (64, 0.05, "layers"): {
        "energy": "0aae2f5babc51af4",
        "breakdown": "9a2de115c7ef75bb",
        "gradient": "ddbd8adc752c6132",
        "hessian": "ba91e8c123a31fc1",
        "fd_hessian": "1c81d3649c8688d7",
        "spectrum": "2b055d2c6022ba04",
    },
    (16, 0.0, "no-layers"): {
        "energy": "b664a4840a612a51",
        "breakdown": "ce90873131c3f64f",
        "gradient": "b1f1458152db1155",
        "hessian": "3d5a770176521dad",
        "fd_hessian": "d82645c63272e15b",
        "spectrum": "0677da8e469c3447",
    },
    (64, 0.0, "untilted"): {
        "energy": "ba831ad7db409540",
        "breakdown": "81db6ffe254d1420",
        "gradient": "22c3765c832a629c",
        "hessian": "3757ff94858661ac",
        "fd_hessian": "2ae6a61afb8c3efa",
        "spectrum": "54ff0d91b8edffdb",
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
    assert _records_digest(fig3_sweep) == "50f93f5fc311de59"


def test_tilt_sweep_records(tilt_sweep):
    assert _records_digest(tilt_sweep) == "dc3ffda5451dd55e"


def test_tilt_onset_records(tilt_onset_records):
    assert _records_digest(tilt_onset_records) == "6520a58aef22b69f"
