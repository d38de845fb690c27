"""Seeded request pools for the three benchmark workloads.

Every matrix comes from this file's own numpy code, never from
``chandet.ensembles``, so a change to the program cannot change a workload.
A pool is one pass of requests with fixed per-class counts; ``run.py``
replays it in a freshly shuffled order on every pass.

Class counts are chosen so that no class boundary sits at the 50th or 90th
latency percentile (see README.md for the measured per-class latencies).

The cost of a request depends on structure more than on the draw: the
optimizer's work on a gate is set by its local-equivalence class, and the
work on a Kraus channel by its dimension and Kraus rank. So that every seed
poses the same amount of work, the seed draws the local frame of each gate
around a fixed Haar sample of nonlocal cores (``CORE_SEED``), and Kraus ranks
are spread evenly over their range; the channels themselves are drawn fresh.
Both choices keep each input Haar or unitarily-invariant distributed.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from oracle import reference_alpha_sru

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
Z3 = np.diag([1.0] * 8 + [-1.0]).astype(complex)
CORE_SEED = 20121208

# Request classes whose failure is a known defect of the program at the
# baseline; a failure in any other class makes the run incorrect.
KNOWN_DEFECTS = {
    # A NaN Kraus entry passes the TP check; detect-npt then dies in eigh
    # with an uncaught LinAlgError instead of exiting 2 or 3.
    "malformed-nan",
    # On a PPT channel, simulate --witness ppt and detect-npt --shots raise
    # an uncaught PptUndetectableError.
    "sim-ppt-ppt",
    "npt-shots-ppt",
}


@dataclass
class Request:
    rid: int
    cls: str
    argv: list
    expect: dict = field(default_factory=dict)


def haar(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def dressed(core, d, rng):
    """(A kron B) core (C kron D) with Haar local unitaries drawn from rng."""
    a, b, c, e = (haar(d, rng) for _ in range(4))
    return np.kron(a, b) @ core @ np.kron(c, e)


def cores(d, n):
    """A fixed Haar sample of n two-qudit gates, the same for every seed."""
    rng = np.random.default_rng([CORE_SEED, d])
    return [haar(d * d, rng) for _ in range(n)]


def ranks(n, top):
    """n Kraus ranks spread evenly over 1..top."""
    return [int(r) for r in np.round(np.linspace(1, top, n))]


def random_kraus(d, rank, rng):
    """Kraus operators of a random CPTP map: blocks of a Haar isometry d -> d*rank."""
    z = (rng.standard_normal((d * rank, d)) + 1j * rng.standard_normal((d * rank, d))) / np.sqrt(2)
    v, _ = np.linalg.qr(z)
    return [v[k * d : (k + 1) * d, :] for k in range(rank)]


def noisy_gate(u, rng, extra=2):
    """Mixture of u (weight 1-q) with ``extra`` Haar unitaries of equal weight."""
    q = rng.uniform(0.05, 0.4)
    d = u.shape[0]
    return [np.sqrt(1 - q) * u] + [np.sqrt(q / extra) * haar(d, rng) for _ in range(extra)]


def noisy_cnot(rng):
    """CNOT followed by a random local Pauli error on the first qubit."""
    q = rng.uniform(0.02, 0.3)
    return [np.sqrt(1 - q) * CNOT] + [
        np.sqrt(q / 3) * np.kron(PAULI[p], PAULI["I"]) @ CNOT for p in "XYZ"
    ]


def sru_mixture(d, rng, terms=3):
    """Separable random unitary: a mixture of Haar product unitaries (always PPT)."""
    p = rng.dirichlet(np.ones(terms))
    a = [haar(d, rng) for _ in range(terms)]
    b = [haar(d, rng) for _ in range(terms)]
    return p, a, b


def pairs(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def kraus_spec(dims, kraus):
    return {"dims": dims, "kind": "kraus", "kraus": [pairs(a) for a in kraus]}


def unitary_spec(dims, u):
    return {"dims": dims, "kind": "named", "name": "unitary", "params": {"matrix": pairs(u)}}


def named_spec(dims, name):
    return {"dims": dims, "kind": "named", "name": name}


def sru_spec(dims, p, a, b):
    return {
        "dims": dims,
        "kind": "named",
        "name": "sru",
        "params": {
            "probs": [float(x) for x in p],
            "a_unitaries": [pairs(x) for x in a],
            "b_unitaries": [pairs(x) for x in b],
        },
    }


def sru_kraus(p, a, b):
    return [np.sqrt(pk) * np.kron(x, y) for pk, x, y in zip(p, a, b)]


class PoolWriter:
    """Writes spec files into ``workdir`` and collects the requests that use them."""

    def __init__(self, workdir, rng):
        self.workdir = workdir
        self.rng = rng
        self.requests = []

    def _write(self, name, spec):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return path

    def add(self, cls, command, spec, expect, target=None, extra=()):
        rid = len(self.requests)
        argv = [command, "--channel", self._write(f"{rid}.json", spec)]
        if target is not None:
            argv += ["--target", self._write(f"{rid}-target.json", target)]
        argv += list(extra)
        expect = dict(expect, command=command)
        self.requests.append(Request(rid, cls, argv, expect))


# ---------------------------------------------------------------------------
# sep-qutrit: the multistart optimizer on two-qutrit gates


def build_sep_qutrit(b, counts):
    rng = b.rng
    z3_alpha = reference_alpha_sru(Z3, 3, rng)
    for _ in range(counts["z3-sep"]):
        b.add("z3-sep", "detect-sep", named_spec([3, 3], "z3"),
              {"kraus": [Z3], "target": Z3, "alpha_ref": z3_alpha})
    for _ in range(counts["z3-noisy-sru"]):
        kraus = noisy_gate(Z3, rng)
        b.add("z3-noisy-sru", "detect-sru", kraus_spec([3, 3], kraus),
              {"kraus": kraus, "target": Z3, "alpha_ref": z3_alpha},
              target=named_spec([3, 3], "z3"))
    classes = ("haar-sep", "haar-sru", "haar-noisy-sep")
    core = iter(cores(3, sum(counts[c] for c in classes)))
    for cls in classes:
        for _ in range(counts[cls]):
            u = dressed(next(core), 3, rng)
            alpha_ref = reference_alpha_sru(u, 3, rng)
            if cls == "haar-noisy-sep":
                kraus = noisy_gate(u, rng)
                b.add(cls, "detect-sep", kraus_spec([3, 3], kraus),
                      {"kraus": kraus, "target": u, "alpha_ref": alpha_ref},
                      target=unitary_spec([3, 3], u))
            else:
                b.add(cls, "detect-" + cls[5:], unitary_spec([3, 3], u),
                      {"kraus": [u], "target": u, "alpha_ref": alpha_ref})


# ---------------------------------------------------------------------------
# npt-channels: NPT pipeline, eager Choi builds and Choi rendering


def build_npt_channels(b, counts):
    rng = b.rng
    for d in (2, 3):
        for cls, command in ((f"npt{d}{d}", "detect-npt"), (f"choi{d}{d}", "choi")):
            for rank in ranks(counts[cls], d**4):
                kraus = random_kraus(d * d, rank, rng)
                b.add(cls, command, kraus_spec([d, d], kraus), {"kraus": kraus, "d": d})
        for _ in range(counts[f"sru-mix{d}{d}"]):
            p, x, y = sru_mixture(d, rng)
            b.add(f"sru-mix{d}{d}", "detect-npt", sru_spec([d, d], p, x, y),
                  {"kraus": sru_kraus(p, x, y), "d": d, "ppt": True})
    for i in range(counts["malformed"]):
        kraus = random_kraus(4, 2, rng)
        kind = i % 3
        if kind == 0:  # not trace preserving: numerical validation failure
            spec, code = kraus_spec([2, 2], [1.1 * a for a in kraus]), 3
        elif kind == 1:  # dims do not fit detect-npt: input error
            spec, code = kraus_spec([4], kraus), 2
        else:  # an entry that is not an [re, im] pair: input error
            spec = kraus_spec([2, 2], kraus)
            spec["kraus"][0][0][0] = "0.5"
            code = 2
        b.add("malformed", "detect-npt", spec, {"exit": {code}})
    for _ in range(counts["malformed-nan"]):
        spec = kraus_spec([2, 2], random_kraus(4, 2, rng))
        spec["kraus"][0][0][0] = [float("nan"), 0.0]  # json writes the bare token NaN
        b.add("malformed-nan", "detect-npt", spec, {"exit": {2, 3}})


# ---------------------------------------------------------------------------
# shots-qubit: Pauli expansion, grouping and sampling on qubit Choi states


SHOTS = (10_000, 20_000, 50_000, 100_000)


def build_shots_qubit(b, counts):
    rng = b.rng
    cnot = named_spec([2, 2], "cnot")

    def shot_args(i):
        shots = SHOTS[i % len(SHOTS)]
        return shots, ["--shots", str(shots), "--seed", str(int(rng.integers(0, 2**31)))]

    for i in range(counts["sim-sru-cnot"]):
        kraus = noisy_cnot(rng)
        shots, extra = shot_args(i)
        b.add("sim-sru-cnot", "simulate", kraus_spec([2, 2], kraus),
              {"kraus": kraus, "target": CNOT, "witness": "sru", "shots": shots},
              target=cnot, extra=["--witness", "sru"] + extra)
    for i in range(counts["sim-stab-cnot"]):
        shots, extra = shot_args(i)
        b.add("sim-stab-cnot", "simulate", cnot,
              {"kraus": [CNOT], "witness": "stabilizer", "shots": shots},
              extra=["--witness", "stabilizer"] + extra)
    for cls, command, witness in (
        ("sim-ppt", "simulate", ["--witness", "ppt"]),
        ("npt-shots", "detect-npt", []),
    ):
        for i, rank in enumerate(ranks(counts[f"{cls}-npt"], 3)):
            kraus = random_kraus(4, rank, rng)
            shots, extra = shot_args(i)
            b.add(f"{cls}-npt", command, kraus_spec([2, 2], kraus),
                  {"kraus": kraus, "d": 2, "witness": "ppt", "shots": shots}, extra=witness + extra)
        for i in range(counts[f"{cls}-ppt"]):
            p, x, y = sru_mixture(2, rng)
            shots, extra = shot_args(i)
            b.add(f"{cls}-ppt", command, sru_spec([2, 2], p, x, y),
                  {"kraus": sru_kraus(p, x, y), "d": 2, "witness": "ppt", "shots": shots, "ppt": True},
                  extra=witness + extra)
    for i, rank in enumerate(ranks(counts["eb-shots"], 4)):
        kraus = random_kraus(2, rank, rng)
        shots, extra = shot_args(i)
        b.add("eb-shots", "detect-eb", kraus_spec([2], kraus),
              {"kraus": kraus, "witness": "eb", "shots": shots}, extra=extra)
    for i in range(counts["decompose"]):
        kind = ("eb", "sru", "stabilizer")[i % 3]
        if kind == "eb":
            kraus = random_kraus(2, 1 + i % 4, rng)
            b.add("decompose", "decompose-witness", kraus_spec([2], kraus),
                  {"witness": "eb"}, extra=["--witness", "eb"])
        else:
            b.add("decompose", "decompose-witness", cnot,
                  {"witness": kind, "target": CNOT}, extra=["--witness", kind])
    for i, core in enumerate(cores(2, counts["sru-shots-haar"])):
        u = dressed(core, 2, rng)
        shots, extra = shot_args(i)
        b.add("sru-shots-haar", "detect-sru", unitary_spec([2, 2], u),
              {"kraus": [u], "target": u, "shots": shots}, extra=extra)


# Requests of each class in one pass of the pool.
WORKLOADS = {
    "sep-qutrit": (build_sep_qutrit, {
        "z3-sep": 3, "z3-noisy-sru": 3, "haar-sep": 10, "haar-sru": 10, "haar-noisy-sep": 10,
    }),
    "npt-channels": (build_npt_channels, {
        "npt22": 8, "choi22": 4, "sru-mix22": 4, "npt33": 22, "choi33": 20, "sru-mix33": 6,
        "malformed": 6, "malformed-nan": 2,
    }),
    "shots-qubit": (build_shots_qubit, {
        "sim-sru-cnot": 8, "sim-stab-cnot": 6, "sim-ppt-npt": 8, "sim-ppt-ppt": 2,
        "npt-shots-npt": 8, "npt-shots-ppt": 2, "eb-shots": 8, "decompose": 6, "sru-shots-haar": 2,
    }),
}


def build_pool(workload, seed, workdir, tiny=False):
    """All requests of one pass for ``workload``, with spec files written to ``workdir``."""
    build, counts = WORKLOADS[workload]
    if tiny:
        counts = {cls: 1 for cls in counts}
    b = PoolWriter(workdir, np.random.default_rng([seed, sorted(WORKLOADS).index(workload)]))
    build(b, counts)
    return b.requests
