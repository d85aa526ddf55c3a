"""Single-lead f-wave analysis: extraction, DAF estimation, classification."""

__version__ = "0.1.0"
