"""Finite Markov chain toolkit.

Provides the classical machinery of Section 2 of the paper:

* :class:`~repro.markov.ctmc.ContinuousTimeMarkovChain` — generator
  validation, irreducibility/ergodicity checks, stationary
  distributions (GTH or direct solve), transient analysis.
* :class:`~repro.markov.dtmc.DiscreteTimeMarkovChain` — the same for
  stochastic matrices.
* :func:`~repro.markov.uniformization.uniformize` — the uniformization
  construction of Section 2.4, mapping a CTMC to an equivalent DTMC
  ``P = Q / q_max + I`` that preserves the stationary vector, and
  :func:`~repro.markov.uniformization.poisson_window`, the truncated
  Poisson weights every uniformized series sums against.
* :mod:`~repro.markov.absorbing` — fundamental-matrix analysis of
  absorbing chains (absorption probabilities, mean absorption times),
  used to extract effective-quantum distributions in Theorem 4.3.
"""

from repro.markov.absorbing import (
    absorption_probabilities,
    expected_time_to_absorption,
    fundamental_matrix,
)
from repro.markov.birthdeath import (
    birth_death_stationary,
    mm1_mean_jobs,
    mmc_erlang_c,
    mmc_mean_jobs,
    mmck_blocking_probability,
)
from repro.markov.ctmc import ContinuousTimeMarkovChain
from repro.markov.dtmc import DiscreteTimeMarkovChain
from repro.markov.firstpassage import (
    first_passage_ph,
    hitting_probabilities,
    mean_hitting_times,
)
from repro.markov.uniformization import (
    poisson_window,
    transient_distribution,
    uniformization_rate,
    uniformize,
)

__all__ = [
    "ContinuousTimeMarkovChain",
    "DiscreteTimeMarkovChain",
    "uniformize",
    "uniformization_rate",
    "transient_distribution",
    "poisson_window",
    "fundamental_matrix",
    "absorption_probabilities",
    "expected_time_to_absorption",
    "birth_death_stationary",
    "mm1_mean_jobs",
    "mmc_mean_jobs",
    "mmc_erlang_c",
    "mmck_blocking_probability",
    "mean_hitting_times",
    "hitting_probabilities",
    "first_passage_ph",
]
