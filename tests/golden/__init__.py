"""Committed digests of the library's own past outputs (the golden gate)."""
