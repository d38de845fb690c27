"""A fixed reference computation that reads the host's current speed.

On a shared host the same request can take twice as long in one minute as in
the next, and a slow phase can outlast a whole run, so no statistic over a
run's own requests removes it. The client therefore runs this yardstick
before every request, outside the timed region, and ``scales`` turns the
samples into one factor per request: ``REF_MS`` divided by the median
yardstick time over the ``WINDOW`` requests on either side. Timings scaled by
it read as milliseconds at the reference speed, i.e. as they would on a host
where the yardstick takes ``REF_MS``.

The yardstick mixes the kinds of work the program does: alternating polar
steps on a two-qutrit gate (small einsum and SVD calls from Python, as in the
optimizer), a 27x27 Hermitian eigensolve, and a JSON round trip and float
rendering of a complex matrix, as in spec parsing and report rendering.
Its inputs are fixed and nothing here imports ``chandet``, so a change to the
program cannot move it.
"""

import json
import statistics

import numpy as np

# Median yardstick time between requests on the 2-vCPU Xeon VM (2.0 GHz,
# BLAS 1 thread) on which the benchmark was built, so that scaled timings
# read close to that host's usual wall times.
REF_MS = 2.60
WINDOW = 10
WARMUP = 20

_rng = np.random.default_rng(20121208)
_GATE = np.linalg.qr(_rng.standard_normal((9, 9)) + 1j * _rng.standard_normal((9, 9)))[0]
_GATE4 = _GATE.reshape(3, 3, 3, 3)
_HERM = _rng.standard_normal((27, 27)) + 1j * _rng.standard_normal((27, 27))
_HERM = _HERM + _HERM.conj().T
_PAIRS = [[[float(x), float(-x)] for x in row] for row in _rng.standard_normal((16, 16))]


def yardstick():
    ub = np.eye(3, dtype=complex)
    for _ in range(10):
        u, s, vh = np.linalg.svd(np.einsum("yb,aycb->ac", ub.conj(), _GATE4))
        ua = u @ vh
        u, s, vh = np.linalg.svd(np.einsum("xa,xbay->by", ua.conj(), _GATE4))
        ub = u @ vh
    w = np.linalg.eigvalsh(_HERM)
    m = np.array(json.loads(json.dumps(_PAIRS)), dtype=float)
    text = json.dumps([[f"{x:.17g}" for x in row] for row in m[:, :, 0]])
    return float(s[0] + w[0]) + len(text)


def scales(samples):
    """Reference-speed factor for each request, from yardstick ``samples`` in seconds."""
    return [
        REF_MS / (1e3 * statistics.median(samples[max(0, i - WINDOW) : i + WINDOW + 1]))
        for i in range(len(samples))
    ]
