"""Seeded random generator derivation.

Every source of randomness in the package is derived from one root seed
plus a string label, so independent subsystems (init, shuffling, shot
sampling, synthesis) get decorrelated streams that are reproducible across
runs and platforms.
"""

import hashlib

import numpy as np

__all__ = ["spawn_rng"]


def _label_words(label: str) -> list[int]:
    # 128 bits of the label hash, as four uint32 words for SeedSequence.
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def spawn_rng(seed: int, label: str) -> np.random.Generator:
    """Return a PCG64 generator keyed by ``(seed, label)``."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFF] + _label_words(label)))

