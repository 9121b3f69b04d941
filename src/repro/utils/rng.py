"""Deterministic random-number management.

Every stochastic component in the library accepts either an integer seed or a
:class:`RandomState`.  Components never touch the global numpy RNG, so any
experiment can be replayed exactly from its seed.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

SeedLike = Union[int, "RandomState", np.random.Generator, None]


class RandomState:
    """A thin, seedable wrapper around :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        Integer seed, ``None`` for an OS-entropy seed, an existing
        ``RandomState`` (shared, not copied), or a raw numpy ``Generator``.
    """

    def __init__(self, seed: SeedLike = None):
        if isinstance(seed, RandomState):
            self._generator = seed._generator
            self._seed = seed._seed
        elif isinstance(seed, np.random.Generator):
            self._generator = seed
            self._seed = None
        else:
            self._seed = seed
            self._generator = np.random.default_rng(seed)

    @property
    def seed(self) -> Optional[int]:
        """The seed this state was created from (``None`` if unknown)."""
        return self._seed

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._generator

    # -- convenience passthroughs -------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._generator.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._generator.normal(loc, scale, size)

    def integers(self, low: int, high: Optional[int] = None, size=None):
        return self._generator.integers(low, high, size)

    def choice(self, a, size=None, replace: bool = True, p=None):
        return self._generator.choice(a, size=size, replace=replace, p=p)

    def permutation(self, x):
        return self._generator.permutation(x)

    def shuffle(self, x) -> None:
        self._generator.shuffle(x)

    def random(self, size=None):
        return self._generator.random(size)

    def exponential(self, scale: float = 1.0, size=None):
        return self._generator.exponential(scale, size)

    def poisson(self, lam: float = 1.0, size=None):
        return self._generator.poisson(lam, size)

    def spawn(self, n: int) -> List["RandomState"]:
        """Derive ``n`` statistically independent child states."""
        children = self._generator.spawn(n)
        return [RandomState(child) for child in children]

    def fork(self) -> "RandomState":
        """An explicitly independent child for state that crosses a process
        or pickle boundary.

        ``RandomState(existing)`` *shares* the underlying generator by
        design — two configs built from one state interleave draws from a
        single stream.  That sharing does not survive pickling: each
        separately pickled copy rehydrates its own generator frozen at the
        shared stream's state, so the copies silently re-draw the *same*
        values instead of interleaving (``tests/test_utils_rng.py`` pins the
        divergence).  Any state that is about to be shipped to a worker must
        therefore stop sharing *explicitly*: call :meth:`fork` (or
        :meth:`derive` with a stable per-worker tag) and ship the child.

        Successive forks of one parent yield distinct, reproducible children
        (numpy's seed-sequence spawning); the parent's own stream is not
        advanced.
        """
        return RandomState(self._generator.spawn(1)[0])

    def derive(self, tag: str) -> "RandomState":
        """Derive a child state deterministically from a string tag.

        Unlike :meth:`spawn`, deriving the same tag twice from states built
        with the same seed yields identical child streams, which makes the
        per-subsystem seeding reproducible regardless of call order.
        """
        if self._seed is None:
            return self.spawn(1)[0]
        tag_hash = abs(hash_string(tag)) % (2**31)
        return RandomState((int(self._seed) * 1_000_003 + tag_hash) % (2**63 - 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomState(seed={self._seed!r})"


def hash_string(text: str) -> int:
    """A stable (non-salted) string hash usable for seed derivation."""
    value = 2166136261
    for char in text.encode("utf-8"):
        value ^= char
        value = (value * 16777619) % (2**64)
    return value


def as_random_state(seed: SeedLike) -> RandomState:
    """Coerce a seed-like value into a :class:`RandomState`."""
    if isinstance(seed, RandomState):
        return seed
    return RandomState(seed)
