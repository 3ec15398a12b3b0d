"""Adaptive dictatorship tests on the boolean hypercube.

The acceptance probabilities of the four-query basic test and of the
hypergraph test are computed exactly (from Fourier and Gowers identities),
spectrally and by Monte Carlo; ``python -m dictatest`` runs them, the Gowers
inner products and the influential-pair decoder as seeded experiments with
CSV or JSON reports.

Each name lives in the module that defines it: ``functions`` (truth tables
and the folded view), ``fourier``, ``families`` (function specs and family
files), ``testers`` (the basic and hypergraph tests), ``gowers``, ``stats``,
``rng``, ``errors`` and ``cli``.  Importing the package loads none of them."""

__version__ = "0.1.0"
