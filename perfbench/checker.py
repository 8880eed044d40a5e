"""Checker process of the pprep benchmark.

``run.py`` starts this script once per run and waits for its first line,
``{"ready": true}``. It then sends one JSON line per operation (the
subcommand, the pair, the config, what pprep printed and the grid
directory) and reads one JSON line back: ``{"error": null}`` when every
check in ``checks`` passes, else ``{"error": "<the failed check>"}``.
The checks, and the scipy.stats and oracle lattices they need, stay out of
the measured process, so its peak memory is pprep's and the runner's.
The script ends when its standard input closes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import pprep  # noqa: E402


def check(request: dict) -> None:
    pair = inputs.Pair(tuple(request["original"]), tuple(request["replication"]))
    config = request["config"]
    grid_dir = None if request["grid_dir"] is None else Path(request["grid_dir"])
    report = json.loads(request["stdout"])
    command = request["command"]
    if command == "estimate":
        checks.check_estimate(report, pair, config)
        if grid_dir is not None:
            checks.check_estimate_grids(grid_dir, pair, config)
    elif command == "test":
        checks.check_test(report, pair, config)
    elif command == "design":
        checks.check_design(report, pair, config)
        if grid_dir is not None:
            checks.check_design_grids(grid_dir, pair, config)
    else:
        checks.check_bridge(report, pair, config, grid_dir)
        checks.check_bridge_bayes_factors(pprep, pair, config)


def main() -> int:
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        try:
            check(json.loads(line))
            error = None
        except Exception as exc:  # a check that cannot read the output fails too
            error = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"error": error}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
