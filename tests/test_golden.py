"""Golden artifact digests for four tiny scenarios.

The Monte Carlo aggregates in errors.csv depend on the memory layout the
trial reductions run over, not only on the simulated values: a C-ordered
(trials, steps, n) tensor is summed sequentially over trials, a step-major
tensor seen through a transposed view is summed pairwise. Both scenarios use
at least 10 trials so that the pairwise path engages. The other two pin the
single-run writers: a Poisson-clock run and a one-trial run with a leave and
a join, whose errors.csv lists per-run window errors instead of aggregates.
Any change to how the engine, the estimator or the CSV writers store or
format states must keep these bytes.
"""
import hashlib
import textwrap

import pytest

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

GOLDEN = {
    "churn": {
        "errors.csv": "34d71e43085803cfcdffe95e23c07bcbaa40826560e63546bf7c051cd3779713",
        "trajectories.csv": "7a174fc3dc1bf86d5341e0f7d54df0971d2ed84317317804ed700368f03b2bb5",
        "summary.txt": "2fe74e672716a13a3b37178238dc9e1e46cc59fa255fdfb8488fc4fc1cc921b8",
    },
    "dense": {
        "errors.csv": "952a105fe887d0e5888cd7c19aafca9aad132f2ee60a46b51f0e71ed94077220",
        "trajectories.csv": "bd94e66d8e0c8af7bf6b99d873506e86c337efc2951a8849de61f89bc67939f0",
        "summary.txt": "77d2d837f30a153304df6381856a6189db46275e59079b5ef9034ca11206583c",
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


@pytest.mark.parametrize(
    "name, body", [("churn", CHURN), ("dense", DENSE), ("poisson", POISSON), ("single", SINGLE)]
)
def test_artifact_digests_are_pinned(tmp_path, monkeypatch, name, body):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(textwrap.dedent(body))
    monkeypatch.setenv("RINGSUM_OUT", str(tmp_path / "out"))
    assert main(["simulate", "--config", str(cfg)]) == 0
    out_dir = tmp_path / "out" / name
    digests = {
        artifact: hashlib.sha256((out_dir / artifact).read_bytes()).hexdigest()
        for artifact in GOLDEN[name]
    }
    assert digests == GOLDEN[name]
