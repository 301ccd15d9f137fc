"""Scenario parameters, shared conventions and RNG plumbing.

Conventions fixed here once and relied on everywhere else:

* time is an integer step counter; an agent travels exactly ``v`` length
  units of Manhattan path per step,
* ``log`` means the natural logarithm in every envelope formula,
* all arithmetic is double precision and threshold comparisons are exact
  (``>=`` / ``<=``, no epsilon fudging),
* randomness comes from one keyed 64-bit hash (:func:`keyed_hash`): every
  draw is a pure function of the seed and integer words, so reruns are
  bit-stable.  Agent ``a``'s ``j``-th trip hashes ``(seed, a, j)``
  (:func:`trip_draws`), so the array engine matches each agent stepped
  alone exactly; the infrastructure streams and derived seeds are hash
  words too (:func:`derive_substream`, :func:`derived_seed`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import NamedTuple

import numpy as np

#: Identifier of the deterministic generator construction, embedded in all
#: output files so results can be tied to the stream definition.
RNG_ALGORITHM_ID = "splitmix64-keyed(seed,counter)+numpy-pcg64"

#: Default speed-envelope constant: v must not exceed R divided by this.
SPEED_ENVELOPE_DEFAULT = 3.0 * (1.0 + math.sqrt(5.0))

#: Default radius-envelope constant in R >= c1 * L * sqrt(log n / n), the
#: ``WorldParams`` default; the scenarios use ``experiments.SCENARIO_C1``.
RADIUS_ENVELOPE_DEFAULT = 200.0

# Reserved substream indices, at the top of the one-word index range, far
# above the indices that callers take for draws of their own.
_RESERVED_BASE = 2**32 - 2**8
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


def complex_rows(a: np.ndarray) -> np.ndarray:
    """A C-contiguous ``(m, 2)`` float64 array as a 1-D complex view, one
    item per row.

    numpy gathers and scatters 16-byte items of a 1-D array several times
    faster than rows of a 2-D one; complex subtraction is the subtraction
    of each column, bit for bit."""
    return a.view(np.complex128)[:, 0]


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


# The one keyed hash (:func:`keyed_hash`): SplitMix64's output function
# (Steele, Lea and Flood, OOPSLA 2014) at a Weyl counter.  Every constant is
# a uint64, so the arithmetic is the same under numpy 1.x casting and NEP 50.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # odd: the Weyl step
_MIX = tuple(np.uint64(k) for k in (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31))
_U3, _U11, _U34 = np.uint64(3), np.uint64(11), np.uint64(34)

# Counter layout under one seed; the top bits keep the three uses apart.
#   agent trips      agent << 34 | 3 j + k    agent < 2**29, trip j < 2**32
#   substream words  2**63 | index << 2 | w   index < 2**32, w = 0 .. 3
#   derived seeds    3 * 2**62 + word         word < 2**62
_AGENT_LIMIT = 2**29
_SUBSTREAM = 2**63
_DERIVED = 3 * 2**62
_DRAW = np.arange(3, dtype=np.uint64)  # destination x, destination y, coin


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer on a uint64 array, in place: xor-shifts and
    odd multiplies, each a bijection, so the whole is one."""
    s1, m1, s2, m2, s3 = _MIX
    z ^= z >> s1
    z *= m1
    z ^= z >> s2
    z *= m2
    z ^= z >> s3
    return z


@functools.lru_cache(maxsize=64)
def _seed_start(seed: int) -> np.uint64:
    return (_mix(np.array([seed % 2**64], dtype=np.uint64)) + _GAMMA)[0]


def keyed_hash(seed, counter) -> np.ndarray:
    """One uint64 per element of ``counter``: output number ``counter`` of
    SplitMix64 (Steele, Lea and Flood) seeded with ``mix(seed mod 2**64)``,
    that is ``mix(mix(seed) + GAMMA * (counter + 1))``, with ``mix`` its
    finalizer and ``GAMMA`` its odd Weyl step.  ``seed`` is an int or a
    uint64 array that broadcasts with ``counter``.

    Under one seed, distinct counters are distinct Weyl points, as times an
    odd ``GAMMA`` is a bijection mod 2**64, and ``mix`` is one too, so they
    never give one value.  Mixing the seed first keeps nearby seeds from
    walking the same points a fixed offset apart.  As in counter-based
    generators (Salmon et al., SC'11), a draw needs its key alone.
    """
    if isinstance(seed, int):
        start = _seed_start(seed)
    else:  # the first Weyl point of each seed's generator
        start = _mix(np.array(seed, dtype=np.uint64, ndmin=1)) + _GAMMA
    return _mix(start + _GAMMA * np.array(counter, dtype=np.uint64, ndmin=1))


def trip_draws(seed: int, agents, trips) -> np.ndarray:
    """The three uniforms in [0, 1) of trip ``trips[r]`` of agent
    ``agents[r]`` (destination x, destination y and path coin), as an
    ``(m, 3)`` array: draw ``k`` of trip ``j`` of agent ``a`` is the top 53
    bits times 2**-53 of the hash of counter ``a << 34 | 3 j + k``.

    A trip's draws depend only on (seed, agent, trip), so agents drawn in
    any order or grouping draw the same.  Agents lie in [0, 2**29) and
    trips in [0, 2**32), so no two (agent, trip, draw) share a counter.
    """
    base = np.asarray(agents).astype(np.uint64) << _U34
    base |= np.asarray(trips).astype(np.uint64) * _U3
    return (keyed_hash(seed, base[:, None] + _DRAW) >> _U11) * 2.0**-53


def derived_seed(seed: int, *words):
    """A 64-bit seed from ``seed`` and integer words in [0, 2**62): the
    hash chained one word at a time, ``h = keyed_hash(h, 3 * 2**62 +
    word)`` from ``h = seed``.  An array word gives an array of seeds."""
    h = seed
    for word in words:
        word = np.asarray(word)
        if word.size and (word.min() < 0 or word.max() >= 2**62):
            raise ValueError("derived_seed takes words in [0, 2**62)")
        h = keyed_hash(h, word.astype(np.uint64) + np.uint64(_DERIVED))
        h = int(h[0]) if word.ndim == 0 else h
    return h


def substream_words(seed, index: int) -> np.ndarray:
    """The four hash words of substream ``(seed, index)``, for an int seed
    as a ``(4,)`` uint64 array, for a uint64 array of seeds one row each.
    Indices are one 32-bit word."""
    if not 0 <= index < 2**32:
        raise ValueError(f"substream index must be in [0, 2**32), got {index}")
    counters = np.uint64(_SUBSTREAM | index << 2) + np.arange(4, dtype=np.uint64)
    seeds = seed if isinstance(seed, int) else np.asarray(seed, dtype=np.uint64)[..., None]
    return keyed_hash(seeds, counters)


def substream_state(words) -> dict:
    """numpy's PCG64 state whose 128-bit state is ``words[0]:words[1]``
    (high:low) and whose increment is ``words[2]:words[3]``, made odd."""
    s_hi, s_lo, inc_hi, inc_lo = (int(w) for w in words)
    state = {"state": s_hi << 64 | s_lo, "inc": inc_hi << 64 | inc_lo | 1}
    return {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}


def derive_substream(seed: int, index: int) -> np.random.Generator:
    """The generator of substream ``(seed, index)``: numpy's PCG64 at the
    :func:`substream_state` of its :func:`substream_words`.  Equal pairs
    draw equal sequences, distinct pairs independent ones."""
    bit_generator = np.random.PCG64(0)  # the state set next replaces all of it
    bit_generator.state = substream_state(substream_words(seed, index))
    return np.random.Generator(bit_generator)
