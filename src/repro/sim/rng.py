"""Seeded, named random-number streams.

Experiments must be reproducible run-to-run *and* statistically varied
rep-to-rep (the paper repeats every scenario 10 times and reports standard
deviations). :class:`RngRegistry` derives an independent stream per
(component, replication) pair from one master seed, so adding a new random
consumer never perturbs the draws of existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from a master seed and a name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Hands out independent ``random.Random`` streams keyed by name.

    >>> rngs = RngRegistry(master_seed=42)
    >>> a = rngs.stream("link-jitter")
    >>> b = rngs.stream("cpu-noise")

    The same name always returns the same stream object, and the draws of
    one stream are unaffected by how often other streams are consumed.
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (cached) RNG stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.master_seed, name))
        return self._streams[name]
