"""Bit-identity guards for the evaluation layer and the sweeps built on it.

SHA-256 digests (first 16 hex digits) of the evaluator's outputs at seeded
random vectors, of the finite-difference Hessian and its spectrum, and of
the records of three sweeps.  They pin every bit, so a rewrite of the
energy/gradient hot path must keep the same floating-point operations in
the same order.  The sweeps matter as much as the single evaluations: near
a pitchfork the Barzilai-Borwein iterations amplify a last-bit change into
different iteration counts and states.

Recorded on Python 3.11.7 with numpy 2.4.6 on x86-64 Linux (OpenBLAS); the
digests may differ under another numpy or BLAS, but not with the number of
BLAS threads (tested in a child process per thread count).
"""

import hashlib
import json
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from smectic1d import ModelParams1D, RunConfig, SpectralState, cooling_grid, stability, sweep_temperature
from smectic1d.energy1d import Evaluator

from crosscheck import OFF_DEFAULT, OFF_HEIGHT, gemm_hessian


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


def _fd_digests(n: int, seed: int, kind: str) -> dict[str, str]:
    """The digests of the finite-difference Hessian and of its spectrum."""
    params = ModelParams1D()
    x = _vector(n, seed, kind)
    state = SpectralState.from_vector(x, n, params.h)
    return {
        "fd_hessian": _digest(Evaluator(n, params).fd_hessian(x)),
        "spectrum": _digest(stability.spectrum(state, params).eigenvalues),
    }


def _evaluation_digests(n: int, seed: int, kind: str) -> dict[str, str]:
    params = ModelParams1D()
    x = _vector(n, seed, kind)
    ev = Evaluator(n, params)
    energy = ev.energy(x)
    breakdown = ev.breakdown(x)
    grad = ev.gradient(x)  # from the kept pointwise terms of energy(x)
    hess = ev.hessian(x)
    # a fresh evaluator synthesizes the fields anew: the same bits
    assert np.array_equal(Evaluator(n, params).gradient(x), grad)
    return {
        "energy": _digest([energy]),
        "breakdown": _digest(tuple(breakdown)),
        "gradient": _digest(grad),
        "hessian": _digest(hess),
        **_fd_digests(n, seed, kind),
    }


EVALUATION_DIGESTS = {
    (16, 16, "layers"): {
        "energy": "93afa44313182707",
        "breakdown": "8a61e1d6100134a6",
        "gradient": "d5e209e4daf6a436",
        "hessian": "ca577c6124063c9f",
        "fd_hessian": "abedf3d832413bf2",
        "spectrum": "7df4012b7b5901fa",
    },
    (16, 66, "layers"): {
        "energy": "0dcf6a27f7b285c7",
        "breakdown": "b08d7e92d23cd683",
        "gradient": "0e53b6a05b4190a1",
        "hessian": "8e01ea0929433843",
        "fd_hessian": "202c5ad484287982",
        "spectrum": "3e67c47f4cabc177",
    },
    (64, 64, "layers"): {
        "energy": "cf8f10d3e29b513f",
        "breakdown": "5325eddb847e9998",
        "gradient": "1e58147d5b65794a",
        "hessian": "ad66ff53d74356b4",
        "fd_hessian": "37aa5e9796a17376",
        "spectrum": "542abfca6da3476e",
    },
    (64, 114, "layers"): {
        "energy": "e81a2551e989d08e",
        "breakdown": "2053c181551d1cdc",
        "gradient": "016f7c995367b551",
        "hessian": "898259c07f660d5d",
        "fd_hessian": "db6e59fb9b9041ef",
        "spectrum": "ab362531c282e88b",
    },
    (16, 16, "no-layers"): {
        "energy": "b664a4840a612a51",
        "breakdown": "67927094e47ee5db",
        "gradient": "00244e898fca83f5",
        "hessian": "f5439325396a7dd9",
        "fd_hessian": "7787d13c7692bc95",
        "spectrum": "abdacdbec6519e0c",
    },
    (64, 64, "untilted"): {
        "energy": "f3d8a90afb81ca49",
        "breakdown": "09c5adadebcfbd9b",
        "gradient": "154934f622128bf4",
        "hessian": "82bc4d87c9dd7170",
        "fd_hessian": "6176621ee8f547ae",
        "spectrum": "35a9bf60e7ad571c",
    },
}


@pytest.mark.parametrize("key", list(EVALUATION_DIGESTS), ids=lambda k: f"N{k[0]}-seed{k[1]}-{k[2]}")
def test_evaluation_digests(key):
    assert _evaluation_digests(*key) == EVALUATION_DIGESTS[key]


def test_evaluation_digests_do_not_depend_on_the_blas_thread_count(child_env):
    # the stacked gradients of the FD Hessian are matrix-matrix products,
    # which OpenBLAS may split across threads; the exact Hessian takes only
    # matrix-vector products, so every digest must match at 1 and 2 threads
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import test_bit_identity as t; "
        "print(json.dumps({repr(key): t._evaluation_digests(*key) for key in t.EVALUATION_DIGESTS}))"
    )
    found = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)], capture_output=True,
                              text=True, timeout=300, env={**child_env, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        found.append(json.loads(proc.stdout))
    assert found[0] == found[1]


#: The digest keys, plus the two off-default parameter sets at N = 16 and 64.
GEMM_CASES = [(*key, "defaults") for key in EVALUATION_DIGESTS] + [
    (n, n, "layers", off) for n in (16, 64) for off in ("off-default", "off-height")
]


@pytest.mark.parametrize("n, seed, kind, point", GEMM_CASES, ids=str)
def test_hessian_matches_the_gemm_form(n, seed, kind, point):
    # the product-to-sum gather against B^T diag(w d^2phi/du^2) B summed over
    # the full grid: at most 12 eps of the largest entry was seen (N = 64),
    # and the matrix is symmetric without a symmetrizing step
    params = ModelParams1D(**{"off-default": OFF_DEFAULT, "off-height": OFF_HEIGHT}.get(point, {}))
    x = _vector(n, seed, kind)
    exact, reference = Evaluator(n, params).hessian(x), gemm_hessian(x, n, params)
    assert np.max(np.abs(exact - reference)) <= 32 * np.finfo(float).eps * np.max(np.abs(reference))
    assert np.array_equal(exact, exact.T)


@pytest.fixture(scope="module")
def tilt_onset_records(fig3_params):
    """The T grid of the benchmark's tilt_onset workload: 11 BB relaxations, 711 steps, the longest 142."""
    return sweep_temperature(RunConfig(fig3_params), cooling_grid(-21.2, -22.2, 0.2), record_morse=True)


def test_fig3_sweep_records(fig3_sweep):
    assert _records_digest(fig3_sweep) == "5aaca6344e31341e"


def test_tilt_sweep_records(tilt_sweep):
    assert _records_digest(tilt_sweep) == "a35776c123e1d5ba"


def test_tilt_onset_records(tilt_onset_records):
    assert _records_digest(tilt_onset_records) == "04beb5cabe3e69f8"
