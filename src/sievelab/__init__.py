"""Instrumented line-sieving laboratory.

Build a table of (a - b*m) * F(a, b) values, remove all prime factors
up to a bound with three different strategies, and account for every
division attempt exactly.  Brute-force oracles recompute the per-(b, l)
costs from hit-set sizes and must agree with the measured ledgers.

The package root holds only the version; import from the modules:
arith, poly, roots, engine, oracle, experiments and cli.
"""

__version__ = "0.1.0"
