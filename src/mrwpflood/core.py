"""Scenario parameters, shared conventions and RNG plumbing.

Conventions fixed here once and relied on everywhere else:

* time is an integer step counter; an agent travels exactly ``v`` length
  units of Manhattan path per step,
* ``log`` means the natural logarithm in every envelope formula,
* all arithmetic is double precision and threshold comparisons are exact
  (``>=`` / ``<=``, no epsilon fudging),
* randomness comes from numpy PCG64 generators keyed by ``(seed, index)``
  through :func:`derive_substream`; identical keys give identical draw
  sequences, which is what makes reruns bit-stable and lets the array
  stepping engine match each agent stepped alone exactly.  Each agent
  draws from its substream without a ``Generator``: the PCG64 states
  are seeded for all agents in one array pass (:func:`pcg64_states`) and
  advanced in arrays (:func:`pcg64_random3`), bit for bit as
  ``derive_substream(seed, i)`` would draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import NamedTuple

import numpy as np

#: Identifier of the deterministic generator construction, embedded in all
#: output files so results can be tied to the stream definition.
RNG_ALGORITHM_ID = "numpy-pcg64-seedseq(seed,index)"

#: Default speed-envelope constant: v must not exceed R divided by this.
SPEED_ENVELOPE_DEFAULT = 3.0 * (1.0 + math.sqrt(5.0))

#: Default radius-envelope constant in R >= c1 * L * sqrt(log n / n), the
#: ``WorldParams`` default; the scenarios use ``experiments.SCENARIO_C1``.
RADIUS_ENVELOPE_DEFAULT = 200.0

# Reserved substream indices.  Agents use their own id (0 .. n-1); all
# infrastructure draws live far above any realistic population size so the
# two ranges can never collide.
_RESERVED_BASE = 2**48
INIT_STREAM_INDEX = _RESERVED_BASE
SOURCE_STREAM_INDEX = _RESERVED_BASE + 1
MONITOR_STREAM_INDEX = _RESERVED_BASE + 2


class Point(NamedTuple):
    """A position in the closed square [0, L]^2."""

    x: float
    y: float


def json_dict(report) -> dict:
    """JSON form of a dataclass: its fields, less the names in the class's
    ``JSON_SKIP``, plus the attributes named in its ``JSON_EXTRA``, each
    converted by :func:`json_value`."""
    skip = getattr(report, "JSON_SKIP", ())
    names = [f.name for f in fields(report) if f.name not in skip]
    names += getattr(report, "JSON_EXTRA", ())
    return {name: json_value(getattr(report, name)) for name in names}


def json_value(value):
    """JSON form of a value, recursively: a dataclass becomes its own
    ``json_dict``, a dict keeps its keys, a tuple or list becomes a list,
    and a non-finite float becomes ``None``."""
    if is_dataclass(value):
        return json_dict(value)
    if isinstance(value, dict):
        return {key: json_value(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [json_value(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True)
class WorldParams:
    """Immutable description of one simulated world.

    n       number of agents (>= 1)
    L       side of the square arena (> 0)
    R       transmission radius (> 0)
    v       constant agent speed per step (>= 0)
    seed    64-bit seed from which every substream is derived
    c1      radius-envelope constant: R >= c1 * L * sqrt(log n / n).  The
            default, RADIUS_ENVELOPE_DEFAULT = 200, is not the
            experiments.SCENARIO_C1 = 2.5 of make_params and the CLI; a bare
            WorldParams at those radii reports radius_ok False, so
            run_flood caps it at FALLBACK_MAX_STEPS.  Pass c1 to match.
    c2      speed-envelope constant: v <= R / c2
    eta     core-density constant: every central-cell core should hold at
            least eta * log n agents
    """

    n: int
    L: float
    R: float
    v: float
    seed: int = 0
    c1: float = RADIUS_ENVELOPE_DEFAULT
    c2: float = SPEED_ENVELOPE_DEFAULT
    eta: float = 0.02

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name in ("c1", "c2", "eta", "L", "R", "v"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if not self.R > 0:
            raise ValueError(f"R must be positive, got {self.R}")
        if self.v < 0:
            raise ValueError(f"v must be >= 0, got {self.v}")
        if not self.c1 > 0 or not self.c2 > 0:
            raise ValueError("envelope constants c1 and c2 must be positive")
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")

    @property
    def radius_threshold(self) -> float:
        """Smallest radius the envelope allows: c1 * L * sqrt(log n / n)."""
        return self.c1 * self.L * math.sqrt(math.log(self.n) / self.n)

    @property
    def speed_limit(self) -> float:
        """Largest speed the envelope allows: R / c2."""
        return self.R / self.c2

    to_json_dict = json_dict


@dataclass(frozen=True)
class AssumptionReport:
    """Advisory evaluation of the two operating-regime envelopes.

    Slacks are signed: negative slack means the corresponding inequality is
    violated.  Violations never abort anything; they are recorded so that
    runs outside the analysed regime are visibly flagged.
    """

    radius_ok: bool
    speed_ok: bool
    radius_slack: float
    speed_slack: float

    @property
    def all_ok(self) -> bool:
        return self.radius_ok and self.speed_ok


def check_assumptions(p: WorldParams) -> AssumptionReport:
    """Evaluate R >= c1*L*sqrt(log n / n) and v <= R/c2 with exact compares."""
    thr = p.radius_threshold
    lim = p.speed_limit
    return AssumptionReport(
        radius_ok=p.R >= thr,
        speed_ok=p.v <= lim,
        radius_slack=p.R - thr,
        speed_slack=lim - p.v,
    )


def derive_substream(seed: int, index: int) -> np.random.Generator:
    """Deterministic, statistically independent substream for (seed, index).

    Two calls with the same pair return generators producing identical draw
    sequences; different pairs give independent draws.  Agents use their
    own id as index, infrastructure draws use the reserved indices above.
    """
    if index < 0:
        raise ValueError(f"substream index must be >= 0, got {index}")
    entropy = (seed & 0xFFFF_FFFF_FFFF_FFFF, index)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx), which
# seedseq_words reproduces for many entropy rows at once.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFF_FFFF


def entropy_words(value: int) -> list[int]:
    """The uint32 words SeedSequence reads from a non-negative integer."""
    if value < 0:
        raise ValueError("expected non-negative integer")  # numpy's message
    return [value >> s & _MASK32 for s in range(0, max(int(value).bit_length(), 1), 32)]


def seedseq_words(entropy, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words)`` for every row, as a
    ``(rows, n_words)`` uint32 array, in whole-array uint32 arithmetic.
    ``entropy`` lists a row's words, each a scalar or one per row."""
    columns = (np.array(word, np.uint32, ndmin=1) for word in entropy)
    entropy = list(np.broadcast_arrays(*columns))
    hash_const, mult = _INIT_A, _MULT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(w) for w in (entropy + [0 * entropy[0]] * _POOL_SIZE)[:_POOL_SIZE]]
    # every pool word into every other, then each word past the pool into all
    for src in range(max(len(entropy), _POOL_SIZE)):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value = pool[src] if src < _POOL_SIZE else entropy[src]
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(value)
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    hash_const, mult = _INIT_B, _MULT_B  # generate_state hashes with these
    words = [hashmix(pool[k % _POOL_SIZE]) for k in range(n_words)]
    return np.stack(words, axis=1).astype("<u4", copy=False)


def substream_seeds(seed: int, indices) -> np.ndarray:
    """PCG64 seed words of the substream ``(seed, i)`` for each ``i`` in
    ``indices``, as a ``(len(indices), 4)`` uint64 array.

    Row ``r`` equals ``SeedSequence((seed mod 2**64, indices[r]))
    .generate_state(4, np.uint64)``, so :func:`pcg64_states` of the row
    draws what ``derive_substream(seed, indices[r])`` draws.  Indices must
    lie in [0, 2**32); a larger one would add an entropy word.
    """
    index = np.asarray(indices).ravel()
    if index.size and (index.min() < 0 or index.max() > _MASK32):
        raise ValueError("substream_seeds takes indices in [0, 2**32)")
    entropy = entropy_words(seed & 0xFFFF_FFFF_FFFF_FFFF) + [index.astype(np.uint32)]
    return seedseq_words(entropy, 8).view("<u8").astype(np.uint64)


def substream_states(seeds: np.ndarray, index: int) -> np.ndarray:
    """:func:`pcg64_states` of ``derive_substream(s, index)`` for each
    64-bit seed ``s`` of ``seeds``; a seed below 2**32 is one word, not two."""
    low, high = np.ascontiguousarray(seeds, "<u8").view("<u4").reshape(-1, 2).T
    words = seedseq_words([low, high, *entropy_words(index)], 8)
    short = np.flatnonzero(high == 0)
    words[short] = seedseq_words([low[short], *entropy_words(index)], 8)
    return pcg64_states(words.view("<u8"))


# numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG, state <- a * state
# + inc mod 2**128, whose output is a permutation (XSL-RR) of each new state.
# Every integer constant is a uint64, so the arithmetic is the same under
# numpy 1.x casting and under NEP 50.
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_U1, _U11, _U32, _U58, _U63 = (np.uint64(k) for k in (1, 11, 32, 58, 63))
_SEED_CHUNK = 2048  # rows seeded at a time, so every temporary stays in cache


def _limb_matrix(pairs) -> np.ndarray:
    """Matrix of the maps ``(s, inc) -> A * s + C * inc mod 2**128``, one
    per pair ``(A, C)``, on 16-bit limbs.

    A state row ``[s_hi, s_lo, inc_hi, inc_lo]`` viewed as ``<u2`` is 16
    limbs ``x``; its limb at 128-bit position ``i`` adds ``x * (M << 16 i)``
    for multiplier ``M``, and the 32-bit chunk ``q`` of ``M << 16 i`` is the
    entry in row ``(q, pair)``.  So ``matrix @ x`` gives ``d_q`` with ``A *
    s + C * inc = sum_q d_q 2**(32 q) mod 2**128``.  Entries are below
    2**32 and limbs below 2**16, so each ``d_q`` is an integer below 2**52,
    exact in double precision whatever the order of summation.
    """
    positions = (4, 5, 6, 7, 0, 1, 2, 3)  # the hi word's limbs, then the lo's
    return np.array(
        [
            [(mult << 16 * i >> 32 * q) & _MASK32 for mult in pair for i in positions]
            for q in range(4)
            for pair in pairs
        ],
        dtype=np.float64,
    )


def _jump(k: int) -> tuple[int, int]:
    """k LCG steps take ``s`` to ``a**k * s + (1 + a + ... + a**(k-1)) * inc``."""
    return pow(_PCG_MULT, k, 2**128), sum(pow(_PCG_MULT, j, 2**128) for j in range(k))


# seeding, a * (inc + initstate) + inc, is linear in (initstate, inc)
_SEED = _limb_matrix([(_PCG_MULT, _PCG_MULT + 1)])
_STEP3 = _limb_matrix([_jump(1), _jump(2), _jump(3)])


def _advance(x: np.ndarray, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of ``A * s + C * inc mod 2**128`` for each pair of
    ``matrix`` (axis 0) and each ``[s | inc][hi | lo]`` row of ``x`` (axis 1).

    The product is taken as ``matrix @ limbs.T``, so it comes out ordered
    by chunk, pair and row, and every shift and add below runs on
    contiguous rows."""
    limbs = x.astype("<u8", copy=False).view("<u2").reshape(len(x), 16)
    d = (matrix @ limbs.T).astype(np.uint64).reshape(4, -1, len(x))
    carry = (d[0] >> _U32) + d[1]  # (d_0 + d_1 * 2**32) >> 32
    return (carry >> _U32) + d[2] + (d[3] << _U32), d[0] + (d[1] << _U32)


def pcg64_states(words: np.ndarray) -> np.ndarray:
    """PCG64 states seeded by rows of :func:`substream_seeds`, as an
    ``(m, 2, 2)`` uint64 array indexed ``[row][state | inc][hi | lo]``.

    This is numpy's ``pcg64_set_seed``: ``initstate = words[0]:words[1]``
    and ``initseq = words[2]:words[3]`` (high:low), ``inc = initseq << 1 |
    1``, and two LCG steps from state 0 with ``initstate`` added after the
    first, which leave ``a * (inc + initstate) + inc``.
    """
    words = np.asarray(words, dtype=np.uint64).reshape(-1, 4)
    states = np.empty((len(words), 2, 2), dtype=np.uint64)
    for start in range(0, len(words), _SEED_CHUNK):
        w = words[start : start + _SEED_CHUNK]
        chunk = states[start : start + _SEED_CHUNK]
        chunk[:, 0] = w[:, :2]
        chunk[:, 1, 0] = w[:, 2] << _U1 | w[:, 3] >> _U63
        chunk[:, 1, 1] = w[:, 3] << _U1 | _U1
        hi, lo = _advance(chunk, _SEED)
        chunk[:, 0, 0], chunk[:, 0, 1] = hi[0], lo[0]
    return states


def pcg64_items(states: np.ndarray) -> np.ndarray:
    """The C-contiguous PCG64 ``states`` as a 1-D array of 32-byte items,
    one per generator, sharing their memory: numpy gathers and scatters
    such items several times faster than rows of the 3-D array."""
    if not states.flags.c_contiguous:
        raise ValueError("PCG64 states must be C-contiguous")
    return states.reshape(len(states), 4).view("V32")[:, 0]


def pcg64_random3(states: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Three uniform doubles from each generator ``states[rows]``, as an
    ``(len(rows), 3)`` array, and advance those states by three steps.

    Row ``r`` draws what ``Generator(PCG64(...)).random(3)`` draws from the
    same state: the next three states come from one jump each, ``a**k * s
    + (1 + ... + a**(k-1)) * inc``; each is output as ``rotr64(hi ^ lo, hi
    >> 58)``, whose top 53 bits times 2**-53 give the double.  ``rows``
    must not repeat a row.  ``states`` is the ``(m, 2, 2)`` state array or
    its :func:`pcg64_items` view, which a caller drawing often builds once.
    """
    items = states if states.ndim == 1 else pcg64_items(states)
    picked = items[rows]
    x = picked.view(np.uint64).reshape(-1, 2, 2)
    hi, lo = _advance(x, _STEP3)
    x[:, 0, 0], x[:, 0, 1] = hi[2], lo[2]
    items[rows] = picked
    out = hi ^ lo
    rot = hi >> _U58
    out = out >> rot | out << (-rot & _U63)
    return ((out >> _U11) * 2.0**-53).T
