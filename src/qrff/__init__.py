"""Gaussian process regression three ways: exact, random Fourier features, and
the quantum-assisted pipeline, evaluated exactly in closed form and tested
against its circuits on the dense statevector simulator in ``qrff.qsim``."""

__version__ = "0.1.0"
