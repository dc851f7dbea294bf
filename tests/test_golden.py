"""Golden artifact digests for two tiny scenarios.

The Monte Carlo aggregates in errors.csv depend on the memory layout the
trial reductions run over, not only on the simulated values: a C-ordered
(trials, steps, n) tensor is summed sequentially over trials, a step-major
tensor seen through a transposed view is summed pairwise. Both scenarios use
at least 10 trials so that the pairwise path engages. Any change to how the
engine or the estimator stores states must keep these bytes.
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
}


@pytest.mark.parametrize("name, body", [("churn", CHURN), ("dense", DENSE)])
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
