"""A single-set backward pass written date by date from the engine's parts.

The engine steps every pass through one stacked date loop and keeps no
per-date record.  This loop repeats the pass for one path set with the same
calls (payout_matrix, design_matrix, factor_stack, fit_leading,
loo_predictions, continue_mask), so its final values and flip counts equal
those of step_set's stack bit for bit, and it hands the tests the per-date regression
internals of the leave-one-out value vector.
"""

from typing import NamedTuple

import numpy as np

from lsmc.contracts import design_matrix
from lsmc.engine import BackwardStack, continue_mask, payout_matrix, step_set
from lsmc.regression import factor_stack, fit_leading, loo_predictions


class DateRecord(NamedTuple):
    """One regression date of the leave-one-out value vector."""

    date_index: int
    payout: np.ndarray
    response: np.ndarray
    fitted: np.ndarray
    loo_fitted: np.ndarray
    leverage: np.ndarray
    rank: int


class ReferencePass(NamedTuple):
    """Final per-path values and chronological flip counts of the classical
    and leave-one-out vectors, and the date records, latest date first."""

    lsm: np.ndarray
    loo: np.ndarray
    lsm_flips: tuple[int, ...]
    loo_flips: tuple[int, ...]
    dates: list[DateRecord]


def reference_backward(paths, payoff, basis) -> ReferencePass:
    z = payout_matrix(paths, payoff)
    value = np.repeat(z[:, -1:], 2, axis=1)  # column 0 classical, column 1 leave-one-out
    flips, dates = [], []
    for i in range(paths.n_dates - 2, -1, -1):
        zi = z[:, i, None]
        x = design_matrix(basis, paths.values[:, i, :], z[:, i])
        fit = fit_leading(factor_stack(x[None]), value[None], basis.m)
        fitted, loo = fit.fitted[0], loo_predictions(fit)[0]
        keep_full, keep_loo = continue_mask(zi, fitted), continue_mask(zi, loo)
        flips.append(np.count_nonzero(keep_full != keep_loo, axis=0))
        dates.append(DateRecord(i, z[:, i], value[:, 1], fitted[:, 1], loo[:, 1],
                                fit.leverage[0], int(fit.rank[0])))
        value = np.where(np.column_stack([keep_full[:, 0], keep_loo[:, 1]]), value, zi)
    lsm_flips, loo_flips = (tuple(int(f) for f in column) for column in np.array(flips[::-1]).T)
    return ReferencePass(value[:, 0], value[:, 1], lsm_flips, loo_flips, dates)


def checked_reference(paths, payoff, basis) -> tuple[BackwardStack, ReferencePass]:
    """step_set's stack and the reference pass, once the pass is seen to give
    the engine's LSM and LOOLSM values (with ==), flip counts and ranks."""
    stack = step_set(paths, payoff, basis)
    reference = reference_backward(paths, payoff, basis)
    assert (reference.lsm == stack.value[0, :, 0]).all()
    assert (reference.loo == stack.value[0, :, 1]).all()
    assert (reference.lsm_flips, reference.loo_flips) == (
        tuple(stack.flips[0, 0]), tuple(stack.flips[0, 1])
    )
    assert tuple(d.rank for d in reversed(reference.dates)) == tuple(stack.ranks[0])
    return stack, reference
