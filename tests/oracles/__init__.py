"""Test-only oracles: retired implementations kept to anchor bit-identity."""
