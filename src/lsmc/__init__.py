"""Regression-based Monte Carlo pricing of Bermudan options.

The classical least-squares estimator makes its exercise decisions with
fitted continuation values that have already seen each path's own future; the
leave-one-out variant replaces them with closed-form self-excluded
predictions, removing that look-ahead bias for O(NM) extra work.  The package
bundles the estimators, exact GBM simulation, reference oracles, and the
experiment harness that measures the bias and its M/N convergence.

Import what you need from its module (`lsmc.harness`, `lsmc.engine`, ...);
the package re-exports nothing.
"""

__version__ = "0.1.0"
