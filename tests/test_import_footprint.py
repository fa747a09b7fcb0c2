"""What a simulated run loads: the heavy SciPy subpackages stay off it.

``scipy.stats`` and ``scipy.optimize`` each cost tens of MB of resident
memory on import, more than the data of a 100k-payment run.  Packet
schemes need neither: transaction sizes use the ``scipy.special`` kernels
directly, and the fluid LPs import their solver when they solve.  A run
is one process over a private-heap channel store, so
``multiprocessing.shared_memory`` stays off it too.  The check runs in a
fresh interpreter, since any earlier test in this process may already
have imported them.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json
import sys

import repro
from repro.engine.session import SimulationSession
from repro.experiments.config import ExperimentConfig

HEAVY = (
    "scipy.stats",
    "scipy.optimize",
    "networkx",
    "multiprocessing.shared_memory",
)


def run(scheme):
    config = ExperimentConfig(
        scheme=scheme,
        topology="line-5",
        capacity=200.0,
        num_transactions=120,
        arrival_rate=50.0,
        seed=5,
        sizes="isp",
    )
    return SimulationSession.from_config(config).run()


report = {"packet": {}}
for scheme in ("spider-waterfilling", "spider-window"):
    metrics = run(scheme)
    report["packet"][scheme] = metrics.success_ratio
report["loaded_by_packet_runs"] = [m for m in HEAVY if m in sys.modules]
report["lp_success_ratio"] = run("spider-lp").success_ratio
report["loaded_by_lp_run"] = [m for m in HEAVY if m in sys.modules]
print(json.dumps(report))
"""


def test_packet_runs_load_no_stats_optimize_or_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert all(ratio > 0 for ratio in report["packet"].values()), report
    assert report["loaded_by_packet_runs"] == []
    # The LP scheme solves, and pays for the solver only then.
    assert report["lp_success_ratio"] > 0
    assert "scipy.optimize" in report["loaded_by_lp_run"]
