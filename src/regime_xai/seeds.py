"""Deterministic seed derivation shared by the explanation and experiment layers.

Child seeds are derived by hashing the parent seed together with structural
indices (window index, row index, ...), so each window and each explained row
draws from a seed of its own, and no row's draws depend on another row's.
"""

import hashlib


def derive_seed(*parts: int) -> int:
    """Derive a stable 32-bit child seed from integer parts (order-sensitive)."""
    if not parts:
        raise ValueError("derive_seed needs at least one part")
    digest = hashlib.sha256(",".join(str(int(p)) for p in parts).encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")
