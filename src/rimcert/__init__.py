"""Certified cyclicity checks for rim-surgered surface complements."""

__version__ = "0.1.0"
