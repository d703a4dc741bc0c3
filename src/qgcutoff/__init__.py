"""Certified bounds on the total-variation distance between convolution powers
of central states and the Haar state, for free unitary quantum groups and free
wreath products of a finite group by the quantum permutation group.

Subpackage layout:

- ``numerics``: the ``q`` function and the one ``u_n`` evaluator ``u_seq``
  (log |u_n| as float arrays), Wallis integrals, lambda-moments.
- ``structures``: finite groups and positive-definite states on them, measures
  on the circle and their exact moments.
- ``words``: irreducible-character words for both families: closed-form
  word counts and the closed-form walk expectations used by the lower
  bounds.
- ``bounds``: the series engine computing certified intervals around the
  upper-bound series, Chebyshev lower bounds, thresholds, cutoff profiles.
- ``verify``: grid verification of the supporting analytic inequalities, with
  negative controls.
- ``cli``: command-line interface, run as ``python -m qgcutoff.cli``; the
  package does not import it, so runpy finds it unloaded and does not warn.
"""

from . import bounds, numerics, structures, verify, words

__all__ = ["numerics", "structures", "words", "bounds", "verify", "cli"]
__version__ = "0.1.0"
