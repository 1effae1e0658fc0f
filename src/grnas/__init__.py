"""Gumbel-based categorical gradient estimators and bimodal fusion architecture search."""

__version__ = "0.1.0"

__all__ = ["__version__"]
