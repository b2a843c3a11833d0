"""Multi-objective PSO with an interval-distance stopping rule."""

__version__ = "0.1.0"
