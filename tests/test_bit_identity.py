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

from smectic1d import ModelParams1D, RunConfig, SpectralState, cooling_grid, stability, sweep_temperature
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
        "fd_hessian": _digest(ev.fd_hessian(x)),
        "spectrum": _digest(stability.spectrum(state, params).eigenvalues),
    }


EVALUATION_DIGESTS = {
    (16, 0.0, "layers"): {
        "energy": "93afa44313182707",
        "breakdown": "8a61e1d6100134a6",
        "gradient": "d5e209e4daf6a436",
        "hessian": "21ad3ba972108d2e",
        "fd_hessian": "f3ec7b1e099190f0",
        "spectrum": "d5ce62c03c52a310",
    },
    (16, 0.05, "layers"): {
        "energy": "0dcf6a27f7b285c7",
        "breakdown": "b08d7e92d23cd683",
        "gradient": "0e53b6a05b4190a1",
        "hessian": "54bcfc634c52987f",
        "fd_hessian": "9f3e7fd136345576",
        "spectrum": "dcfbc93f6a55269b",
    },
    (64, 0.0, "layers"): {
        "energy": "cf8f10d3e29b513f",
        "breakdown": "5325eddb847e9998",
        "gradient": "1e58147d5b65794a",
        "hessian": "a43e7143d5d07e34",
        "fd_hessian": "07ff1ec24d72abb1",
        "spectrum": "f34ecfc467e63949",
    },
    (64, 0.05, "layers"): {
        "energy": "e81a2551e989d08e",
        "breakdown": "2053c181551d1cdc",
        "gradient": "016f7c995367b551",
        "hessian": "4bee7b8fe5565424",
        "fd_hessian": "a184ed673cb3eaa5",
        "spectrum": "5bd988454aa1b133",
    },
    (16, 0.0, "no-layers"): {
        "energy": "b664a4840a612a51",
        "breakdown": "67927094e47ee5db",
        "gradient": "00244e898fca83f5",
        "hessian": "59be41db863b169e",
        "fd_hessian": "0d64a91166c61498",
        "spectrum": "ef1d2036dd3f776f",
    },
    (64, 0.0, "untilted"): {
        "energy": "f3d8a90afb81ca49",
        "breakdown": "09c5adadebcfbd9b",
        "gradient": "154934f622128bf4",
        "hessian": "6269c0debdc28108",
        "fd_hessian": "875a3c7c0ed34680",
        "spectrum": "539d053817f7b95a",
    },
}


@pytest.mark.parametrize("key", list(EVALUATION_DIGESTS), ids=lambda k: f"N{k[0]}-e{k[1]}-{k[2]}")
def test_evaluation_digests(key):
    assert _evaluation_digests(*key) == EVALUATION_DIGESTS[key]


@pytest.fixture(scope="module")
def tilt_onset_records(fig3_params):
    """The T grid of the benchmark's tilt_onset workload: 11 BB relaxations, the longest 224 steps."""
    return sweep_temperature(RunConfig(fig3_params), cooling_grid(-21.2, -22.2, 0.2), record_morse=True)


def test_fig3_sweep_records(fig3_sweep):
    assert _records_digest(fig3_sweep) == "e1fff22819ad9e7a"


def test_tilt_sweep_records(tilt_sweep):
    assert _records_digest(tilt_sweep) == "6987bbf5ff8d4abb"


def test_tilt_onset_records(tilt_onset_records):
    assert _records_digest(tilt_onset_records) == "6400df0c25465d45"
