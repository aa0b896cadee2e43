"""Deterministic simulation engine for the two-player externality bandit game."""

__version__ = "0.1.0"
