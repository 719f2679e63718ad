"""Randomness substrate used by agents and by the scheduler.

The paper's model gives every agent access to independent uniformly random
bits, pre-written on a read-only tape.  Two ingredients of the protocol draw
on that randomness:

* ``1/2``-geometric random variables (the number of fair-coin flips up to and
  including the first head), used for ``logSize2`` and for the per-epoch
  ``gr`` values whose maxima are averaged; and
* ordinary fair coin flips, used to pick roles.

Appendix B of the paper shows how to remove the explicit random bits and use
the *synthetic coin* given by the scheduler's symmetric choice of
sender/receiver; that variant (:mod:`repro.core.synthetic_coin`) builds its
geometric random variables from those flips itself.

All randomness in the library flows through :class:`RandomSource`, which wraps
a single :class:`numpy.random.Generator` so that entire simulations are
reproducible from one integer seed.  The whole library therefore draws from
one generator family (PCG64 via :func:`numpy.random.default_rng`), the same
family the array engines and backends use — there is no stdlib
``random.Random`` stream left to keep in sync, and the ``repro check``
determinism lint (rule D301) enforces that no module reintroduces one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

__all__ = [
    "RandomSource",
    "UniformSampler",
    "geometric",
    "max_of_geometrics",
    "spawn_seed",
]


class UniformSampler(Protocol):
    """Anything with a ``random() -> float in [0, 1)`` method.

    Satisfied by :class:`numpy.random.Generator`, :class:`RandomSource` and
    (for callers bridging legacy generators) :class:`random.Random`.
    """

    def random(self) -> float: ...


def spawn_seed(base_seed: int, *spawn_key: int) -> int:
    """Derive a collision-free child seed from a base seed and an index key.

    The harness used to seed run ``j`` at size index ``i`` with
    ``base_seed + 1000 i + j``, which collides as soon as ``j >= 1000`` and
    across sweeps whose base seeds differ by a multiple of 1000.  This helper
    instead hashes ``(base_seed, *spawn_key)`` through
    :class:`numpy.random.SeedSequence` spawning — distinct keys yield
    statistically independent streams, and distinct key *lengths* occupy
    disjoint domains, so e.g. ``spawn_seed(s, i, j)`` and
    ``spawn_seed(s, i, j, arm)`` never alias.

    Every sweep (each workload kind: finite-state, vector, sequential, CRN)
    and the termination and table experiments derive their per-trial seeds
    through this one function, so serial and parallel execution of the same
    sweep see identical seeds.

    Parameters
    ----------
    base_seed:
        Sweep-level seed (any Python int).
    spawn_key:
        Non-negative trial coordinates, typically ``(size_index, run_index)``.

    Returns
    -------
    int
        A seed in ``[0, 2**64)`` suitable for :func:`numpy.random.default_rng`.
    """
    from numpy.random import SeedSequence

    if any(part < 0 for part in spawn_key):
        raise ValueError(f"spawn_key parts must be non-negative, got {spawn_key}")
    # SeedSequence entropy must be non-negative; fold negative base seeds in.
    entropy = base_seed & 0xFFFFFFFFFFFFFFFF
    sequence = SeedSequence(entropy=entropy, spawn_key=tuple(spawn_key))
    return int(sequence.generate_state(2, "uint32").view("uint64")[0])


def geometric(rng: UniformSampler, p: float = 0.5) -> int:
    """Sample a ``p``-geometric random variable (support ``{1, 2, ...}``).

    Following the paper's definition (Appendix D.2): the number of consecutive
    coin flips until and including the first head, when each flip is a head
    with probability ``p``.  For ``p = 1/2`` the expectation is 2.

    Parameters
    ----------
    rng:
        Source of uniform randomness (anything with ``random()``).
    p:
        Success probability of each flip, in ``(0, 1]``.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"success probability must be in (0, 1], got {p}")
    count = 1
    while rng.random() >= p:
        count += 1
    return count


def max_of_geometrics(rng: UniformSampler, count: int, p: float = 0.5) -> int:
    """Sample the maximum of ``count`` i.i.d. ``p``-geometric random variables.

    This is the quantity ``M = max_i G_i`` whose expectation is approximately
    ``log2 n`` for ``count = n`` and ``p = 1/2`` (Eisenberg [28]); the
    approximate-counting protocol of Alistarh et al. [2] and the first stage
    of the paper's main protocol both compute it in a distributed fashion.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    return max(geometric(rng, p) for _ in range(count))


@dataclass
class RandomSource:
    """Seeded randomness shared by a simulation.

    A single :class:`numpy.random.Generator` instance backs every draw so that
    a run is fully determined by its seed.  Protocols receive the
    :class:`RandomSource` (not the raw generator) so that the draws they are
    allowed to make are the ones the model grants: fair bits and geometric
    variables.

    Attributes
    ----------
    seed:
        Seed used to initialise the underlying generator.  ``None`` draws
        fresh OS entropy (non-reproducible).
    """

    seed: int | None = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    # -- draws available to agents (the model's read-only random tape) ------

    def fair_bit(self) -> int:
        """Return a uniformly random bit (0 or 1)."""
        return int(self._rng.integers(0, 2))

    def fair_coin(self) -> bool:
        """Return ``True`` with probability exactly 1/2."""
        return bool(self._rng.integers(0, 2))

    def geometric(self, p: float = 0.5) -> int:
        """Sample a ``p``-geometric random variable (see :func:`geometric`)."""
        return geometric(self._rng, p)

    def max_of_geometrics(self, count: int, p: float = 0.5) -> int:
        """Sample the maximum of ``count`` i.i.d. geometric variables."""
        return max_of_geometrics(self._rng, count, p)

    # -- draws used by the scheduler ----------------------------------------

    def uniform_pair(self, n: int) -> tuple[int, int]:
        """Return an ordered pair of distinct agent indices, uniform over pairs.

        The first element is the receiver and the second the sender, matching
        the convention of :class:`repro.types.InteractionPair`.
        """
        if n < 2:
            raise ValueError(f"need at least two agents to interact, got n={n}")
        receiver = int(self._rng.integers(n))
        sender = int(self._rng.integers(n - 1))
        if sender >= receiver:
            sender += 1
        return receiver, sender

    def randrange(self, upper: int) -> int:
        """Return a uniform integer in ``range(upper)``."""
        return int(self._rng.integers(upper))

    def random(self) -> float:
        """Return a uniform float in ``[0, 1)``."""
        return float(self._rng.random())

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._rng.shuffle(items)

    def sample_indices(self, n: int, k: int) -> list[int]:
        """Sample ``k`` distinct indices from ``range(n)`` without replacement."""
        if k > n:
            raise ValueError(f"cannot sample {k} distinct indices from range({n})")
        return [int(index) for index in self._rng.choice(n, size=k, replace=False)]

    def spawn(self) -> "RandomSource":
        """Derive an independent child source (useful for parallel sweeps)."""
        return RandomSource(seed=int(self._rng.integers(2**63)))

    def raw(self) -> np.random.Generator:
        """Expose the underlying generator (escape hatch for numpy bridging)."""
        return self._rng
