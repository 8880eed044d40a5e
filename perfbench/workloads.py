"""The three workloads: what each operation runs, on which pair, how.

A run executes whole rounds. Every round of a workload holds the same
operations in the same order, each on a study pair drawn fresh from the
seeded generator, so no pair reaches two operations (the fixed pairs of
the known faults excepted, see README) and the share of failing operations
is the same in every run. Round 0 swaps the three Labels pairs in for three drawn pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import inputs


@dataclass(frozen=True)
class Fault:
    """A fault of pprep that makes an operation fail every time, and how."""

    cause: str
    exit_code: int
    # Text the failure must hold: the error printed on stderr, the uncaught
    # exception with the file and function that raised it, or, for a call
    # that exits 0, the message of the check that rejects its output.
    signature: str


FAULTS = {
    "kummer_cap": Fault(
        "special.log_kummer_m rejects |z| > 1e6, reported as a validation error",
        2, '"type": "validation", "class": "UnsupportedDomainError", "message": "kummer_m arguments |z| > ',
    ),
    "bf_overflow": Fault(
        "math.exp(log_bf) in BayesFactorResult.bf overflows",
        1, "OverflowError in bayes_factors.py:bf",
    ),
    "grid_truncation": Fault(
        "inference._default_theta_range centres the grid on the pooled posterior, which truncates it",
        0, "theta mean (unrestricted)",
    ),
}


@dataclass(frozen=True)
class Op:
    command: str
    pair: inputs.Pair
    fmt: str = "json"
    config: dict = field(default_factory=dict)
    grid_out: bool = False
    # Key into FAULTS: the operation fails at this commit (see README).
    known_fault: str | None = None


NON_UNIFORM_ESTIMATE = {"prior_x": 2.0, "prior_y": 1.0}
NON_UNIFORM_TEST = {"prior_x": 0.5, "prior_y": 2.0}


def _reports(rng: random.Random, round_index: int) -> list[Op]:
    def draw(regime: str) -> inputs.Pair:
        return inputs.draw(rng, regime)

    if round_index == 0:
        rep1, rep2, rep3 = inputs.labels_pairs()
    else:
        rep1 = rep2 = rep3 = None
    far = inputs.far_apart_pair()
    estimate_agreeing = rep2 or draw("agreeing")
    estimate_null = draw("null")
    estimate_conflicting = draw("conflicting")
    test_agreeing = draw("agreeing")
    test_null = rep1 or draw("null")
    test_conflicting = rep3 or draw("conflicting")
    return [
        Op("estimate", estimate_agreeing),
        Op("estimate", estimate_null, "csv", NON_UNIFORM_ESTIMATE),
        Op("estimate", estimate_conflicting),
        Op("test", test_agreeing, "csv",
           {"limits_true_effect": round(test_agreeing.replication[0], 4)}),
        Op("test", test_null, "json", NON_UNIFORM_TEST),
        Op("test", test_conflicting),
        Op("design", draw("agreeing")),
        Op("design", draw("null"), "csv", {"hypothesis": "different"}),
        Op("design", draw("conflicting")),
        Op("estimate", far, known_fault="kummer_cap"),
        Op("test", far, known_fault="bf_overflow"),
        Op("estimate", inputs.similar_precision_conflict_pair(), known_fault="grid_truncation"),
    ]


# 26 points instead of the default 401 keep each bridge call near 0.4 s, so
# that one 16 s run holds about forty of them and its median latency is
# steady on a noisy host; the work per point is the same semi-infinite
# quadrature either way.
BRIDGE_CONFIG = {"grid_points": 26}


def _bridge(rng: random.Random, round_index: int) -> list[Op]:
    return [
        Op("bridge", inputs.draw(rng, "agreeing"), "json", BRIDGE_CONFIG, grid_out=True),
        Op("bridge", inputs.draw(rng, "conflicting"), "csv", BRIDGE_CONFIG, grid_out=True),
        Op("bridge", inputs.draw(rng, "agreeing"), "json", BRIDGE_CONFIG, grid_out=True),
    ]


def _grid_export(rng: random.Random, round_index: int) -> list[Op]:
    return [
        Op("estimate", inputs.draw(rng, "agreeing"), grid_out=True),
        Op("estimate", inputs.draw(rng, "agreeing"), "csv", grid_out=True),
        Op("design", inputs.draw(rng, "agreeing"), grid_out=True),
    ]


WORKLOADS = {"reports": _reports, "bridge": _bridge, "grid-export": _grid_export}


def rounds(workload: str, seed: int):
    """Yield the operations of round 0, 1, 2, ... for ``workload``."""
    plan = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    index = 0
    while True:
        yield plan(rng, index)
        index += 1
