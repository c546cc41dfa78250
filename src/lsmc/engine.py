"""Backward-induction pricing: classical, leave-one-out, and two-pass estimators.

All payouts are discounted to valuation time 0 before the induction, so the
path value vector V needs no re-discounting between dates.  Every regression
uses all simulation paths with the payoff among the regressors; exercise at
maturity is forced and exercise at time 0 is forbidden.  The leave-one-out
estimator differs from the classical one only in which prediction enters the
exercise decision, so one backward pass carries both: each date's design
matrix is factorized once and both value vectors are projected through it.
Given an exercise policy fitted on other paths, the same pass also values the
two-pass estimator on that design matrix, and the maturity payout it starts
from is the European Monte Carlo result.  step_back is the one date loop of
every pass, for experiment 1 and `lsmc price` as for experiment 2, and fits
only through factor_stack and fit_leading; tests/reference.py repeats it for
one set, date by date, and must match its values and flips bit for bit.
Every caller reads its prices and diagnostics off the stepped BackwardStack.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .contracts import BasisSpec, PayoffSpec, design_matrix, discounted_payout
from .errors import NumericalError
from .market import PathSet
from .regression import StackFactorization, factor_stack, fit_leading
from .regression import loo_fallback_mask, loo_predictions

MODE_LSM = "LSM"
MODE_LOOLSM = "LOOLSM"
MODE_LSM2 = "LSM2"
MODE_EUROPEAN = "EUROPEAN"


@dataclass(frozen=True, eq=False)
class ExercisePolicy:
    """Regression coefficients per exercise date t_1 .. t_{I-1}, their basis,
    and the numerical rank of the fit behind each date's coefficients."""

    coefficients: tuple[np.ndarray, ...]
    basis: BasisSpec
    ranks: tuple[int, ...]

    @classmethod
    def fitted(cls, stack: BackwardStack, basis: BasisSpec) -> ExercisePolicy:
        """The classical policy that set 0 of a stepped stack fitted on basis."""
        return cls(tuple(stack.betas[0]), basis, tuple(int(r) for r in stack.ranks[0]))


def continue_mask(z, c):
    """True where the option is held past the date (elementwise on arrays).

    Continuation wins ties (c == z), and a zero payout always continues:
    every payoff is non-negative, so a negative fitted continuation value
    there is a regression artifact, never a reason to exercise worthless paths.
    """
    return (c >= z) | (z == 0.0)


def payout_matrix(paths: PathSet, payoff: PayoffSpec) -> np.ndarray:
    """(N, I) discounted payout of every path at every exercise date, the
    transposed view of a date-major buffer."""
    z = np.empty((paths.n_dates, paths.n_paths))
    for i, t in enumerate(paths.times):
        z[i] = discounted_payout(payoff, paths.values[:, i, :], float(t), paths.rate)
    return z.T


def spread(values: np.ndarray) -> tuple[float, float]:
    """Sample standard deviation (ddof=1) and standard error of the mean, NaN below 2 values."""
    if values.size < 2:
        return float("nan"), float("nan")
    std = float(values.std(ddof=1))
    return std, float(std / np.sqrt(values.size))


def std_error(per_path: np.ndarray, antithetic: bool) -> float:
    """Standard error of the mean; antithetic pairs are dependent, so the
    estimate is taken over the N/2 pair averages."""
    if antithetic:
        per_path = per_path.reshape(-1, 2).mean(axis=1)
    return spread(per_path)[1]


def step_set(
    paths: PathSet,
    payoff: PayoffSpec,
    basis: BasisSpec,
    policy: ExercisePolicy | None = None,
) -> BackwardStack:
    """One path set stepped back to date 0 as a one-set stack.

    Each date replaces a value with the payout wherever its decision
    prediction falls below it: the fitted value for MODE_LSM, its
    leave-one-out correction for MODE_LOOLSM.  Given a policy fitted on other
    paths, the stack's held row follows its decisions with no regression:
    the two-pass estimator MODE_LSM2.  The stack's european row is the
    European Monte Carlo payout, and ExercisePolicy.fitted reads its
    classical policy.
    """
    if basis.case != payoff.kind:
        raise ValueError(f"basis built for {basis.case!r}, payoff is {payoff.kind!r}")
    fitted_for = (paths.n_dates - 1, basis.terms)
    if policy is not None and (len(policy.coefficients), policy.basis.terms) != fitted_for:
        raise ValueError(
            f"a policy for {len(policy.coefficients)} date(s) on basis {policy.basis.labels}"
            f" cannot value {fitted_for[0]} date(s) on basis {basis.labels}"
        )
    if paths.n_paths <= basis.m:
        warnings.warn(
            f"{paths.n_paths} paths for {basis.m} regressors; estimates will be unstable",
            RuntimeWarning,
            stacklevel=2,
        )

    z = payout_matrix(paths, payoff)
    stack = BackwardStack(z, paths.n_paths, basis.m, policy)
    step_back(paths, z, basis, [[stack]])
    return stack


def step_back(
    paths: PathSet, z: np.ndarray, basis: BasisSpec, groups: list[list[BackwardStack]]
) -> None:
    """Step every stack back from the last date before maturity to date 0.

    z is the paths' payout matrix and basis the widest of the stacks' bases.
    Per date: one design matrix at that basis for all the paths, one
    factorization per group (a list of stacks that cut the paths into the
    same sets of n), and each stack's step on its leading m columns.  Each
    stack's busy_s gains its step time and an equal share of its group's
    factorization time.
    """
    for i in range(paths.n_dates - 2, -1, -1):
        x = design_matrix(basis, paths.values[:, i, :], z[:, i])
        for group in groups:
            shape = group[0].european.shape
            xg, zi = x.reshape(*shape, basis.m), z[:, i].reshape(shape)
            t0 = time.perf_counter()
            factor = factor_stack(xg)
            share = (time.perf_counter() - t0) / len(group)
            for stack in group:
                t0 = time.perf_counter()
                stack.step(i, zi, xg[..., : stack.m], factor)
                stack.busy_s += time.perf_counter() - t0 + share
            del factor  # so the next group is factored without this one alive
        del x  # so the next date's matrix is built without this one alive


class BackwardStack:
    """The consecutive sets of n paths that cover a payout matrix z, part-way through the pass.

    Each step regresses one earlier date, latest first, for every set at once
    on m basis columns; means reads off each set's prices once date 0 is
    done.  Column 0 of value follows the classical decisions, column 1 the
    leave-one-out ones, and held, kept only when a policy is given, the
    policy's.  busy_s totals the time step_back spends on this stack.
    """

    def __init__(self, z: np.ndarray, n: int, m: int, policy: ExercisePolicy | None = None) -> None:
        self.european = z[:, -1].reshape(-1, n)
        n_sets, n_dates = self.european.shape[0], z.shape[1]
        self.m, self.policy = m, policy
        self.busy_s = 0.0
        # each column is stored contiguously, so every elementwise step
        # runs over whole rows of N paths instead of an innermost axis of 2
        self.value = np.empty((n_sets, 2, n)).transpose(0, 2, 1)
        self.value[...] = self.european[..., None]
        self.betas = np.empty((n_sets, n_dates - 1, m))
        self.ranks = np.zeros((n_sets, n_dates - 1), dtype=int)
        self.flips = np.zeros((n_sets, 2, n_dates - 1), dtype=int)
        self.fallbacks = np.zeros(n_sets, dtype=int)
        if policy is not None:
            self.held = self.european.copy()

    def step(self, i: int, zi: np.ndarray, x: np.ndarray, factor: StackFactorization) -> None:
        """Date i: zi is its (n_sets, n) payout, x its (n_sets, n, m) design stack
        and factor that of a stack, x or wider, whose leading m columns are x."""
        fit = fit_leading(factor, self.value, x.shape[-1])
        if not fit.rank.all():
            raise NumericalError(f"rank-zero regression at exercise date index {i}")
        c_loo = loo_predictions(fit)
        self.fallbacks += loo_fallback_mask(fit).sum(axis=-1)

        keep_full = continue_mask(zi[..., None], fit.fitted)
        keep_loo = continue_mask(zi[..., None], c_loo)
        self.flips[..., i] = np.count_nonzero(keep_full != keep_loo, axis=-2)
        np.copyto(self.value[..., 0], zi, where=~keep_full[..., 0])
        np.copyto(self.value[..., 1], zi, where=~keep_loo[..., 1])
        if self.policy is not None:
            c = x @ self.policy.coefficients[i]
            np.copyto(self.held, zi, where=~continue_mask(zi, c))
        self.betas[:, i] = fit.beta[..., 0]
        self.ranks[:, i] = fit.rank

    def means(self, exact_euro: float | None = None) -> np.ndarray:
        """(n_sets, 2) LSM and LOOLSM price of each set once date 0 is done,
        with the LSM2 price as a third column when the stack follows a policy.

        Given the exact European price, each path first moves by exact_euro
        minus its European payout: the control variate, which moves each
        price by the set's European pricing error and cancels in differences.
        Each mean runs over a contiguous row of n paths, as a lone set's does.
        """
        value = self.value.transpose(0, 2, 1)
        if self.policy is not None:
            value = np.concatenate([value, self.held[:, None, :]], axis=1)
        if exact_euro is not None:
            value = value + (exact_euro - self.european[:, None, :])
        return value.mean(axis=-1)
