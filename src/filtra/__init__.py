"""Exact verification of Hilbert coefficient inequalities for admissible
filtrations on concrete Noetherian local rings.

The package root imports nothing: each caller imports the submodule it
uses, so ``import filtra.config`` validates a job without loading the
algebra engine."""

__version__ = "0.1.0"
