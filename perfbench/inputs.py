"""Seeded study pairs and the input files pprep receives.

Each regime draws an (original, replication) pair of (estimate, se)
values from a ``random.Random`` seeded by the workload seed, so the same
seed always yields the same files. The program sees only the files.

Regimes:

- ``agreeing``: the replication lies within one combined standard error
  of the original, so the empirical-Bayes alpha is 1.
- ``null``: a clearly nonzero original (2.5 to 3.5 standard errors) and a
  replication estimate within one standard error of zero.
- ``conflicting``: a replication four to eight times more precise than
  the original, far enough away that the effect-size grid (the pooled
  posterior mean plus or minus ``theta_span`` = 6 pooled standard
  deviations, the documented default) reaches squared-distance arguments
  |z| = (theta - original)^2 / (2 se_o^2) between 40 and 50. Past
  |z| = 30 pprep evaluates the confluent hypergeometric function by
  quadrature instead of its power series.

Two fixed pairs, the same for every seed, fail at this commit (see
README.md). The far-apart pair is beyond the |z| cap of ``log_kummer_m``.
The similar-precision conflicting pair reaches |z| of about 100, but the
pooled grid centres between the two studies and leaves out most of the
posterior mass, which sits near the replication; drawn conflicting pairs of
similar precision would be truncated by amounts that vary with the draw.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The Labels case study: one original and three replications.
LABELS_ORIGINAL = (0.21, 0.05)
LABELS_REPLICATIONS = ((0.09, 0.05), (0.21, 0.06), (0.44, 0.04))

# Far enough apart that pprep fails on both estimate and test (see README).
FAR_APART = ((0.0, 0.01), (40.0, 0.01))

# Conflicting studies of equal precision: pprep's default effect-size grid
# truncates the posterior (see README).
SIMILAR_PRECISION_CONFLICT = ((0.5, 0.05), (-0.5, 0.05))

# Grid span pprep uses by default, in pooled standard deviations.
DEFAULT_THETA_SPAN = 6.0


@dataclass(frozen=True)
class Pair:
    original: tuple[float, float]
    replication: tuple[float, float]


def _agreeing(rng: random.Random) -> Pair:
    theta_o = rng.uniform(0.2, 0.6)
    se_o = rng.uniform(0.04, 0.10)
    se_r = se_o * rng.uniform(0.5, 1.0)
    theta_r = theta_o + rng.uniform(-0.8, 0.8) * math.hypot(se_o, se_r)
    return Pair((theta_o, se_o), (theta_r, se_r))


def _null(rng: random.Random) -> Pair:
    se_o = rng.uniform(0.04, 0.10)
    theta_o = se_o * rng.uniform(2.5, 3.5)
    se_r = se_o * rng.uniform(0.6, 1.0)
    theta_r = se_r * rng.uniform(-1.0, 1.0)
    return Pair((theta_o, se_o), (theta_r, se_r))


def _conflicting(rng: random.Random) -> Pair:
    se_o = rng.uniform(0.08, 0.12)
    theta_o = rng.uniform(0.3, 0.7)
    rho = rng.uniform(0.125, 0.25)
    se_r = rho * se_o
    z_max = rng.uniform(40.0, 50.0)
    # The grid edge farthest from the original sits at distance
    # d / (1 + rho^2) + span * se_r / sqrt(1 + rho^2) from it; solve for d.
    reach = math.sqrt(2.0 * z_max) * se_o
    d = (reach - DEFAULT_THETA_SPAN * se_r / math.sqrt(1.0 + rho * rho)) * (1.0 + rho * rho)
    return Pair((theta_o, se_o), (theta_o - d, se_r))


REGIMES = {"agreeing": _agreeing, "null": _null, "conflicting": _conflicting}


def draw(rng: random.Random, regime: str) -> Pair:
    return REGIMES[regime](rng)


def labels_pairs() -> list[Pair]:
    return [Pair(LABELS_ORIGINAL, rep) for rep in LABELS_REPLICATIONS]


def far_apart_pair() -> Pair:
    return Pair(*FAR_APART)


def similar_precision_conflict_pair() -> Pair:
    return Pair(*SIMILAR_PRECISION_CONFLICT)


def _records(pair: Pair) -> list[dict]:
    return [
        {"id": "orig", "role": "original", "effect_type": "smd",
         "estimate": pair.original[0], "se": pair.original[1]},
        {"id": "rep", "role": "replication", "effect_type": "smd",
         "estimate": pair.replication[0], "se": pair.replication[1]},
    ]


def write_records(path: Path, pair: Pair, fmt: str) -> Path:
    """Write the pair as a JSON array or a CSV table; floats at full precision."""
    records = _records(pair)
    if fmt == "json":
        path = path.with_suffix(".json")
        path.write_text(json.dumps(records), encoding="utf-8")
        return path
    path = path.with_suffix(".csv")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["id", "role", "effect_type", "estimate", "se", "n"])
    for rec in records:
        writer.writerow([rec["id"], rec["role"], rec["effect_type"],
                         repr(rec["estimate"]), repr(rec["se"]), ""])
    path.write_text(out.getvalue(), encoding="utf-8")
    return path


def write_config(path: Path, config: dict) -> Path | None:
    if not config:
        return None
    path.write_text(json.dumps(config), encoding="utf-8")
    return path
