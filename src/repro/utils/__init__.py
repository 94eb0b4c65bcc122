"""Shared utilities: deterministic RNG derivation and argument validation."""

from repro.utils.rng import derive_rng, derive_seed
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)

__all__ = [
    "derive_rng",
    "derive_seed",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_type",
]
