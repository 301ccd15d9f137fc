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
  stepping engine match each agent stepped alone exactly.  Agent streams
  are seeded for all agents in one array pass (:func:`substream_seeds`)
  and each is built at its agent's first arrival
  (:func:`seeded_substream`), identical to ``derive_substream(seed, i)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

#: Identifier of the deterministic generator construction, embedded in all
#: output files so results can be tied to the stream definition.
RNG_ALGORITHM_ID = "numpy-pcg64-seedseq(seed,index)"

#: Default speed-envelope constant: v must not exceed R divided by this.
SPEED_ENVELOPE_DEFAULT = 3.0 * (1.0 + math.sqrt(5.0))

#: Default radius-envelope constant in R >= c1 * L * sqrt(log n / n).
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


@dataclass(frozen=True)
class WorldParams:
    """Immutable description of one simulated world.

    n       number of agents (>= 1)
    L       side of the square arena (> 0)
    R       transmission radius (> 0)
    v       constant agent speed per step (>= 0)
    seed    64-bit seed from which every substream is derived
    c1      radius-envelope constant: R >= c1 * L * sqrt(log n / n).  The
            default, RADIUS_ENVELOPE_DEFAULT = 200, is not the 2.5 that
            make_params, the CLI config and the README use; a bare
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

    @property
    def assumptions_hold(self) -> bool:
        return self.R >= self.radius_threshold and self.v <= self.speed_limit

    def to_dict(self) -> dict:
        """Plain-dict form used when embedding the config in output files."""
        return {
            "n": self.n,
            "L": self.L,
            "R": self.R,
            "v": self.v,
            "seed": self.seed,
            "c1": self.c1,
            "c2": self.c2,
            "eta": self.eta,
        }


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
    sequences; different pairs give independent streams.  Agents use their
    own id as index, infrastructure draws use the reserved indices above.
    """
    if index < 0:
        raise ValueError(f"substream index must be >= 0, got {index}")
    entropy = (seed & 0xFFFF_FFFF_FFFF_FFFF, index)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx), which
# substream_seeds reproduces for many indices at once.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFF_FFFF


def substream_seeds(seed: int, indices) -> np.ndarray:
    """PCG64 seed words of the substreams ``(seed, i)`` for each ``i`` in
    ``indices``, as a ``(len(indices), 4)`` uint64 array.

    Row ``r`` equals ``SeedSequence((seed mod 2**64, indices[r]))
    .generate_state(4, np.uint64)``: numpy's pool hash and mix, run in
    whole-array uint32 arithmetic, so :func:`seeded_substream` of the row
    draws what ``derive_substream(seed, indices[r])`` draws.  Indices must
    lie in [0, 2**32); a larger one would add an entropy word.
    """
    index = np.asarray(indices).ravel()
    if index.size and (index.min() < 0 or index.max() > _MASK32):
        raise ValueError("substream_seeds takes indices in [0, 2**32)")
    seed &= 0xFFFF_FFFF_FFFF_FFFF
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full(index.size, w, dtype=np.uint32) for w in words]
    entropy.append(index.astype(np.uint32))
    entropy += [np.zeros(index.size, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = np.empty((index.size, 2 * _POOL_SIZE), dtype="<u4")
    hash_const = _INIT_B
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, k] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Seed sequence that hands PCG64 one row of :func:`substream_seeds`."""

    def __init__(self, words: np.ndarray):
        self.words = np.ascontiguousarray(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != self.words.size or np.dtype(dtype) != np.uint64:
            raise ValueError("stored seed words are 4 uint64 values")
        return self.words


def seeded_substream(words: np.ndarray) -> np.random.Generator:
    """The generator seeded by one row of :func:`substream_seeds`."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))
