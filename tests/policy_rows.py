"""The likelihood row a test hands ``Policy.observe``.

A policy acts on two rows each step: ``step(offered, best_arms)`` takes
each state's best offered arm, ``model.best_arms(offered)``, and
``observe(reward, likelihoods)`` the reward's scaled likelihood in each
state.  The harness reads both from tables it builds once per run; a
test that steps a policy by hand builds the likelihood row here, with
the library's own functions, which give a table row's bits.  This module
is imported by tests only and is not a test file.
"""

from latentbandits.belief import likelihoods_from_log, reward_log_likelihoods


def likelihoods(model, arm, reward):
    """Each state's scaled likelihood of ``reward`` on ``arm``."""
    return likelihoods_from_log(reward_log_likelihoods(model, arm, float(reward)))
