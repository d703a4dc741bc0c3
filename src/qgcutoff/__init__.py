"""Certified bounds on the total-variation distance between convolution powers
of central states and the Haar state, for free unitary quantum groups and free
wreath products of a finite group by the quantum permutation group.

Subpackage layout:

- ``numerics``: log-domain sums, the ``q`` function and the one ``u_n``
  evaluator ``u_seq`` (log |u_n| as float arrays), Wallis integrals,
  lambda-moments.
- ``structures``: finite groups and positive-definite states on them, measures
  on the circle and their exact moments.
- ``words``: irreducible-character words for both families: the block
  vectors the mixture engine sums over, closed-form word counts, and the
  closed-form walk expectations used by the lower bounds.
- ``bounds``: the series engine computing certified intervals around the
  upper-bound series, Chebyshev lower bounds, thresholds, cutoff profiles.
- ``verify``: grid verification of the supporting analytic inequalities, with
  negative controls.
- ``cli``: command-line interface.
"""

from . import bounds, cli, numerics, structures, verify, words

__all__ = ["numerics", "structures", "words", "bounds", "verify", "cli"]
__version__ = "0.1.0"
