"""Golden artifact digests for four tiny scenarios, and of one audit's output.

The Monte Carlo aggregates in errors.csv depend on the order of each sum
over trials, not only on the simulated values: the per-trial error sums are
summed over trials in trial order with membership events (the churn
scenario) and pairwise without (the dense one), and the variance sums each
cell's trials in trial order. Both scenarios use at least 10 trials so that
the pairwise path engages. The other two pin the
single-run writers: a Poisson-clock run and a one-trial run with a leave and
a join, whose errors.csv lists per-run window errors instead of aggregates.
Any change to how the engine, the estimator or the CSV writers store or
format states must keep these bytes.

The bytes also depend on the numpy build: its AVX-512 (X86_V4) kernels of
log and log1p round differently in the last bits from its baseline ones, and
the Laplace draws of the dense and poisson scenarios go through them. Noise
scales do not: they never go through numpy's power. The pins are kept per
SIMD bit profile, which a fixed canary evaluation of log, log1p, exp and
power identifies; both sets were recorded with numpy 2.4.6, the second under
NPY_DISABLE_CPU_FEATURES=X86_V4. A profile with no recorded set fails.

The audit pin covers the sampled message traces: its samples span several
slices of `analysis.AUDIT_SLICE` trials, the last one ragged.
"""
import hashlib
import textwrap

import numpy as np
import pytest

from ringsum import analysis
from ringsum.cli import main

CHURN = """\
    [scenario]
    name = churn
    protocol = si
    steps = 60
    trials = 12
    seed = 5

    [secrets]
    values = 12.5 -3.25 40.0 7.75

    [noise]
    family = harmonic
    c = 50
    d = 1
    distribution = gaussian

    [events]
    list =
        leave 20 4
        join 40 4 3 7.75
"""

DENSE = """\
    [scenario]
    name = dense
    protocol = si
    steps = 50
    trials = 16
    seed = 11

    [secrets]
    values = 1.5 2.5 -6.0 9.0 4.0

    [noise]
    family = geometric
    c = 20
    phi = 0.9
    distribution = laplace
"""

POISSON = """\
    [scenario]
    name = poisson
    protocol = ai
    steps = 1
    rate = 1.5
    horizon = 12.0
    seed = 8

    [secrets]
    values = 3.0 -1.5 0.25

    [noise]
    family = geometric
    c = 4
    phi = 0.9
    distribution = laplace
"""

SINGLE = """\
    [scenario]
    name = single
    protocol = si
    steps = 30
    trials = 1
    seed = 2

    [secrets]
    values = 5.0 -2.0 8.5 1.25

    [noise]
    family = harmonic
    c = 10
    d = 1
    distribution = uniform

    [events]
    list =
        leave 10 2
        join 20 2 1 -2.0
"""

# Digest of the canary below, per numpy SIMD bit profile.
PROFILES = {
    "376114ab4327410243916e6f42938611c0ff86518c552a5f70f195ab355cead0": "x86_v4",
    "60a9839a840ea72edaefc84fda3f0a44e2eabeb5e49ded43417b4c20b51de1f1": "baseline",
}


def simd_profile() -> str:
    """Name of the SIMD bit profile numpy runs under in this process."""
    h = hashlib.sha256()
    u = np.linspace(1e-3, 1 - 1e-3, 1 << 16)
    for values in (np.log(u), np.log1p(-u), np.exp(np.linspace(-30.0, 30.0, 1 << 16)),
                   np.power(0.9, np.arange(20000.0)), np.power(0.999, np.arange(20000.0))):
        h.update(values.tobytes())
    digest = h.hexdigest()
    if digest not in PROFILES:
        pytest.fail(f"no golden digests for the numpy {np.__version__} SIMD bit profile "
                    f"with canary digest {digest}")
    return PROFILES[digest]


X86_V4 = {
    "churn": {
        "errors.csv": "34d71e43085803cfcdffe95e23c07bcbaa40826560e63546bf7c051cd3779713",
        "trajectories.csv": "7a174fc3dc1bf86d5341e0f7d54df0971d2ed84317317804ed700368f03b2bb5",
        "summary.txt": "2fe74e672716a13a3b37178238dc9e1e46cc59fa255fdfb8488fc4fc1cc921b8",
    },
    "dense": {
        "errors.csv": "6f541757e694a660f5ec047584bd3e06861218219b52957cf327e926ac22b1c7",
        "trajectories.csv": "bd94e66d8e0c8af7bf6b99d873506e86c337efc2951a8849de61f89bc67939f0",
        "summary.txt": "d0e2e8eced2f5ad0963ec1f2a1c1b9b28f124854c4d89788d4340c50c38ef422",
    },
    "poisson": {
        "errors.csv": "9acc9b52b5d1cefe54831d0c8a995730b9af4bafc50eb16aa98231f718a38cf7",
        "trajectories.csv": "7c29d88ea1ab3bbd0cf7007bee60fc0e50732d9d31a6097b6b48cb1e33bb8578",
        "summary.txt": "cddc79c58d3784dc2141e37c577b82f1a0414cee1c739bd5999b84edc95960a2",
    },
    "single": {
        "errors.csv": "46625705fb5e9f5f9b15cbfc98c25dd039eca7f263701da6191935cfbe76b780",
        "trajectories.csv": "8f26320740ffc46605c89ef7532c705e5f47daf3863ee934ee97a118244174e1",
        "summary.txt": "34bc009780ed33705a7a83b5504e259fce1e292ff54f2aa7c433d53339d86107",
    },
}

# The churn and single scenarios draw no value whose bits differ between the
# profiles; the Laplace dense and poisson scenarios do.
GOLDEN = {
    "x86_v4": X86_V4,
    "baseline": {
        **X86_V4,
        "dense": {
            "errors.csv": "29c01311d0212dde66891466e304a77ffec5d2ec1f330cf5864dcd08d8544a82",
            "trajectories.csv": "9aa20e680936081510529d4a37bddc0205eb1d0df96693ee1070f1393c5d324b",
            "summary.txt": "68546e8588e14120e60fcd2e92e0158ca5c6eeb8fd18b16801c0ed6ef157f1b3",
        },
        "poisson": {
            "errors.csv": "ebcd0c5997e499d57b01a9f14a547d07909bf4430c09b52adf83fbf2e969dd9e",
            "trajectories.csv": "4ebe54072c2e7ca6c3b80d3902f57500996cf0a7e03969667cb81fc0d57e5780",
            "summary.txt": "cddc79c58d3784dc2141e37c577b82f1a0414cee1c739bd5999b84edc95960a2",
        },
    },
}


@pytest.mark.parametrize(
    "name, body", [("churn", CHURN), ("dense", DENSE), ("poisson", POISSON), ("single", SINGLE)]
)
def test_artifact_digests_are_pinned(tmp_path, monkeypatch, name, body):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(textwrap.dedent(body))
    monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
    assert main(["simulate", "--config", str(cfg)]) == 0
    out_dir = tmp_path / "out" / name
    golden = GOLDEN[simd_profile()][name]
    digests = {
        artifact: hashlib.sha256((out_dir / artifact).read_bytes()).hexdigest()
        for artifact in golden
    }
    assert digests == golden


AUDIT = ["audit", "--family", "harmonic", "--c", "1", "--d", "1", "--n", "3", "--K", "2",
         "--delta", "1", "--samples", "300000"]

# The printed figures come out the same on both profiles.
AUDIT_STDOUT = {
    "x86_v4": "c4180c9375f9632b1d7216025e5560aef00e024977842a13223f76bd59a47e51",
    "baseline": "c4180c9375f9632b1d7216025e5560aef00e024977842a13223f76bd59a47e51",
}


def test_audit_stdout_is_pinned(capsys):
    assert analysis.AUDIT_SLICE < 300_000 and 300_000 % analysis.AUDIT_SLICE != 0
    assert main(AUDIT) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == AUDIT_STDOUT[simd_profile()]
