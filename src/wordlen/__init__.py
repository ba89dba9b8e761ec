"""Subword complexity, periodic decompositions, power avoidance, and length
bounds for matrix algebras over prime fields.

The package exports the names of the README's library example; every other
public name is imported from its module (``wordlen.words``,
``wordlen.structure``, ``wordlen.verify`` and so on).
"""

from .algebra import GeneratorSet, length_trace, liw
from .bounds import best_main_bound, pappacena_exceeds_main
from .linalg import FMatrix, PrimeField, shift_to_invertible
from .powers import avoids, max_factor_exponent, verify_tc
from .structure import minimal_qpt
from .words import Alphabet, complexity_profile, parse_word

__version__ = "0.1.0"
