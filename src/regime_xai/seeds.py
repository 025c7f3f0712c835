"""Deterministic seed derivation shared by the explanation and experiment layers.

Child seeds are derived by hashing the parent seed together with structural
indices (window index, row index, ...), so each window and each explained row
draws from a seed of its own, and no row's draws depend on another row's.
"""

import hashlib


def derive_seed(*parts: int) -> int:
    """A stable 32-bit child seed from one or more integer parts (order-sensitive)."""
    digest = hashlib.sha256(",".join(str(int(p)) for p in parts).encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")
