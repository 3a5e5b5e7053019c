"""Post-hoc rare-class rescue for white blood cell classifiers."""

__version__ = "0.1.0"
