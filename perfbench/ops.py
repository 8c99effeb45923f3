"""Seeded operation lists for the benchmark workloads.

An operation is a plain dict: its ``kind`` (one of KINDS), its scale, and
the kind's extra inputs.  The same seed always gives the same list.  Kinds
are dealt in shuffled blocks of eight, one of each kind per block, so every
kind keeps exactly its one-in-eight share of any run that stops at a block
boundary.  Stdlib only.
"""

from __future__ import annotations

import hashlib
import json
import random

KINDS = (
    "rectangle",
    "box",
    "fence",
    "can",
    "can-dual",
    "rect-semicircle",
    "ellipse-semicircle",
    "curve",
)
BLOCK = len(KINDS)

# The CLI flag that carries each kind's scale parameter.
SCALE_FLAG = {
    "rectangle": "--fence",
    "box": "--volume",
    "fence": "--fence",
    "can": "--volume",
    "can-dual": "--surface-area",
    "rect-semicircle": "--radius",
    "ellipse-semicircle": "--radius",
    "curve": "--fence",
}

BASES = ("circle", *range(3, 13))

# Timed requests draw their scale log-uniformly from this range of decades.
TIMED_DECADES = (-3.0, 6.0)
# The edge probe covers the whole range the CLI accepts.
EDGE_LOW = 1e-320
EDGE_HIGH = 1e308


def _op(rng: random.Random, kind: str, scale: float, max_points: int) -> dict:
    op = {"kind": kind, "scale": scale}
    if kind in ("fence", "curve"):
        op["v"] = rng.randint(2, 50)
        op["h"] = rng.randint(2, 50)
    if kind in ("can", "can-dual"):
        op["base"] = rng.choice(BASES)
    if kind == "curve":
        op["points"] = rng.randint(2, max_points)
    return op


def blocks(seed: int, max_points: int):
    """Endless shuffled blocks of all eight kinds at well-conditioned scales."""
    rng = random.Random(seed)
    while True:
        kinds = list(KINDS)
        rng.shuffle(kinds)
        yield [_op(rng, kind, 10.0 ** rng.uniform(*TIMED_DECADES), max_points)
               for kind in kinds]


def edge_probe(seed: int) -> list[dict]:
    """Each kind at both ends of the accepted range and at one seeded scale
    drawn log-uniformly over all of it."""
    rng = random.Random(seed ^ 0x5EED)
    out = []
    for kind in KINDS:
        drawn = 10.0 ** rng.uniform(-320.0, 308.0)
        for scale in (EDGE_LOW, EDGE_HIGH, drawn):
            out.append(_op(rng, kind, scale, 10001))
    return out


def cli_argv(op: dict) -> list[str]:
    """The ``optishape`` arguments for one operation (no program name)."""
    kind = op["kind"]
    if kind == "verify":
        return ["verify", "--format", "json"]
    if kind == "curve":
        head = ["curve", "fence"]
    else:
        head = ["solve", kind]
    argv = head + [SCALE_FLAG[kind], repr(op["scale"])]
    if "v" in op:
        argv += ["--v-segments", str(op["v"]), "--h-segments", str(op["h"])]
    if "base" in op:
        argv += ["--base", str(op["base"])]
    if "points" in op:
        argv += ["--points", str(op["points"])]
    return argv


def encode(op: dict) -> bytes:
    """Canonical bytes of one operation; ``digest`` hashes these in order."""
    return json.dumps(op, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def digest(ops) -> str:
    """Short hash that identifies an operation list."""
    h = hashlib.sha256()
    for op in ops:
        h.update(encode(op))
    return h.hexdigest()[:16]
