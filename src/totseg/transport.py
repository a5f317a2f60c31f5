"""Pseudo-label codes from entropy- and prior-regularized optimal transport.

Given a frame-by-cluster score matrix S (B x K), both solvers here find the
coupling Q on the equal-partition polytope

    rows of Q sum to 1/B,  columns of Q sum to 1/K,

that maximizes the transported score minus a regularizer:

  * ``sinkhorn_ot``  solves  max <Q, S> + eps * H(Q)
    (entropy regularization), whose optimum is a diagonal scaling of
    exp(S / eps);
  * ``sinkhorn_tot`` solves  max <Q, S> - rho * KL(Q || T)
    for a fixed positive prior T, whose optimum is a diagonal scaling of
    T * exp(S / rho). The Gaussian ``temporal_prior`` concentrates mass
    near the diagonal so codes respect temporal order.

Both reduce to Sinkhorn-Knopp: alternately rescale rows and columns of the
kernel to hit the marginals. Scaling runs in the exp domain on a shifted
kernel, and the scalings are folded back into log potentials f, g whenever
they grow large (stabilized scaling, Schmitzer 2019), so small eps or rho
cannot overflow. A sweep is one row update followed by one column update;
after a column update the column marginals are exact, so the reported error
is dominated by the rows.

A solve with a positive tolerance finishes with Newton steps instead
(Sinkhorn-Newton, Brauer, Clason, Lorenz & Wirth 2017): after three sweeps
it solves the row potentials in closed form and steps on the K column
potentials with a K x K linear solve and Armijo backtracking, which takes a
few steps where sweeps take tens to thousands. A step that fails (singular
Hessian, no descent, too long a move, stalled backtracking) returns the
solve to plain sweeps from the last accepted coupling, within the same
budget. A fixed-budget solve (tolerance 0, the training default) runs
sweeps only.

Codes are targets, not variables: callers must not backpropagate through
the returned matrix, and nothing here is differentiable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .numerics import as_matrix

# Scalings past _ABSORB_ABOVE are folded into the log potentials; the test
# runs every _ABSORB_EVERY sweeps. A sweep multiplies u by at most K and v by
# at most B (a row or column of the coupling holds at most all the mass), so
# between two tests neither can get near overflow for any B, K below 1e30.
_ABSORB_ABOVE = 1e50
_ABSORB_EVERY = 8

# With a positive tolerance, Newton steps on the column dual follow the
# first _NEWTON_AFTER sweeps. A step that would move a log potential by more
# than _NEWTON_MAX_STEP fails rather than being shortened: the dual is a sum
# of log-sum-exps, whose quadratic model holds only over moves of order one,
# and a solve that far from its optimum (sharp kernels, unreachable
# polytopes) is left to plain sweeps before it spends budget on Newton
# steps. So is a step whose Armijo backtracking halved it _NEWTON_HALVINGS
# times.
_NEWTON_AFTER = 3
_NEWTON_MAX_STEP = 2.0
_NEWTON_HALVINGS = 10
_ARMIJO = 1e-4

# The widest temporal prior whose variance sigma**2 is a finite float.
MAX_SIGMA = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class TransportConfig:
    """Knobs shared by both solvers and the temporal prior.

    Attributes:
        epsilon: Entropy weight for the plain solver.
        rho: Prior (KL) weight for the temporally regularized solver.
        sigma: Width of the Gaussian temporal prior, in normalized
            diagonal-distance units, at most ``MAX_SIGMA``.
        iterations: Budget of sweeps plus Newton steps per solve.
        marginal_tolerance: If positive, finish with Newton steps and stop
            early once both marginal errors fall below it.
    """

    epsilon: float = 0.05
    rho: float = 0.07
    sigma: float = 2.5
    iterations: int = 3
    marginal_tolerance: float = 0.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.sigma > MAX_SIGMA:
            raise ValueError(
                f"sigma must be at most {MAX_SIGMA:.6g} (a finite square), "
                f"got {self.sigma}"
            )
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.marginal_tolerance < 0:
            raise ValueError(
                f"marginal_tolerance must be >= 0, got {self.marginal_tolerance}"
            )


@dataclass(frozen=True)
class CodeMatrix:
    """A solved coupling plus how well it sits on the polytope.

    Attributes:
        values: B x K nonnegative matrix; rows aim at 1/B, columns at 1/K.
        row_error: max abs deviation of row sums from 1/B after the last sweep.
        col_error: max abs deviation of column sums from 1/K.
        sweeps: Number of row+column sweeps actually performed.
        newton_steps: Number of accepted Newton steps on the column dual;
            ``sweeps + newton_steps`` never exceeds the solve's budget.
    """

    values: np.ndarray
    row_error: float
    col_error: float
    sweeps: int
    newton_steps: int


def marginal_error(q) -> tuple[float, float]:
    """Max abs deviation of (row sums, column sums) from 1/B and 1/K."""
    q = as_matrix(q)
    rows, cols = q.shape
    row_err = float(np.abs(q.sum(axis=1) - 1.0 / rows).max())
    col_err = float(np.abs(q.sum(axis=0) - 1.0 / cols).max())
    return row_err, col_err


def temporal_prior(num_frames: int, num_clusters: int, sigma: float) -> np.ndarray:
    """Gaussian prior peaked along the normalized diagonal.

    Entry (i, j) for 1-based i, j is  N(d; 0, sigma)  with

        d = |i/B - j/K| / sqrt(1/B^2 + 1/K^2),

    the perpendicular-style distance of position (i/B, j/K) from the main
    diagonal of the unit square. Frames early in a video therefore prefer
    low cluster indices and late frames high ones.

    Args:
        num_frames: B, number of rows.
        num_clusters: K, number of columns.
        sigma: Positive width; larger flattens the prior toward uniform.

    Returns:
        B x K positive matrix (not normalized to any marginal).
    """
    if num_frames < 1 or num_clusters < 1:
        raise ValueError(
            f"prior needs positive dimensions, got {num_frames} x {num_clusters}"
        )
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    b, k = num_frames, num_clusters
    i = np.arange(1, b + 1, dtype=np.float64)[:, None] / b
    j = np.arange(1, k + 1, dtype=np.float64)[None, :] / k
    distance = np.abs(i - j) / np.sqrt(1.0 / b**2 + 1.0 / k**2)
    return np.exp(-(distance**2) / (2.0 * sigma**2)) / (sigma * np.sqrt(2.0 * np.pi))


def sinkhorn_ot(
    scores,
    epsilon: float,
    iterations: int = 3,
    tolerance: float = 0.0,
) -> CodeMatrix:
    """Entropy-regularized codes: diagonal scaling of exp(scores / epsilon).

    Args:
        scores: B x K matrix of frame-cluster similarities, finite.
        epsilon: Positive entropy weight.
        iterations: Budget of sweeps plus Newton steps.
        tolerance: Optional early-stop threshold on both marginal errors;
            a positive one finishes the solve with Newton steps.

    Returns:
        CodeMatrix with the scaled coupling and final marginal errors.

    Raises:
        NumericalError: If the kernel is not usable (non-finite scores).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    log_kernel = as_matrix(scores) / epsilon
    return _scale_to_polytope(
        log_kernel, iterations, tolerance, f"entropic kernel (epsilon={epsilon})"
    )


def sinkhorn_tot(
    scores,
    prior,
    rho: float,
    iterations: int = 3,
    tolerance: float = 0.0,
) -> CodeMatrix:
    """Prior-regularized codes: diagonal scaling of prior * exp(scores / rho).

    Args:
        scores: B x K matrix of frame-cluster similarities, finite.
        prior: B x K nonnegative prior coupling (zero entries stay zero).
        rho: Positive weight of the KL pull toward the prior.
        iterations: Budget of sweeps plus Newton steps.
        tolerance: Optional early-stop threshold on both marginal errors;
            a positive one finishes the solve with Newton steps.

    Returns:
        CodeMatrix with the scaled coupling and final marginal errors.

    Raises:
        NumericalError: If the kernel has NaNs or rows/columns of zeros.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    scores = as_matrix(scores)
    prior = as_matrix(prior)
    if prior.shape != scores.shape:
        raise ValueError(
            f"prior shape {prior.shape} does not match scores shape {scores.shape}"
        )
    if np.any(prior < 0):
        raise ValueError("prior must be nonnegative")
    with np.errstate(divide="ignore"):
        log_kernel = scores / rho + np.log(prior)
    return _scale_to_polytope(
        log_kernel, iterations, tolerance, f"prior-weighted kernel (rho={rho})"
    )


def _scale_to_polytope(
    log_kernel: np.ndarray,
    iterations: int,
    tolerance: float,
    context: str,
) -> CodeMatrix:
    """Stabilized exp-domain Sinkhorn-Knopp onto rows=1/B, columns=1/K.

    The coupling is held as Q = diag(u) exp(log_kernel + f 1' + 1 g') diag(v)
    with absorbed log potentials f, g. The first shift makes every row and
    column of the kernel peak at exactly 1; v starts at exp(-g), so the
    first sweep is the plain one from zero potentials. Every
    ``_ABSORB_EVERY`` sweeps, if u or v has grown past ``_ABSORB_ABOVE``,
    the scalings are folded into f, g and the kernel is rebuilt. The row
    error after a sweep reuses the product the next row update needs (the
    columns are exact after a column update), so stopping on ``tolerance``
    costs three small ufuncs and happens at the first sweep within it.

    With ``tolerance > 0`` and budget left after ``_NEWTON_AFTER`` sweeps
    (Sinkhorn-Newton, Brauer, Clason, Lorenz & Wirth 2017), the scalings are
    folded into the kernel and the loop takes Newton steps on the K column
    potentials instead, the row potentials following in closed form (see
    ``_newton_step``); near the optimum each step squares the error. Each
    accepted step counts against ``iterations`` like a sweep. The first
    step that fails hands the last accepted coupling back to plain sweeps
    for the rest of the budget, which is how unreachable polytopes (zero
    patterns in a prior) and sharp kernels far from their optimum end.
    With ``tolerance == 0`` no Newton step runs and the iterates are the
    plain ones.

    -inf entries (zero kernel mass) are legal; NaN / +inf are not, and an
    all-zero row or column makes the marginals unreachable.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    # A row's max is NaN or +inf exactly when the row holds one, and -inf
    # when the row is empty; an empty column is the one with g = +inf.
    row_peak = log_kernel.max(axis=1)
    if np.isnan(row_peak).any() or np.isposinf(row_peak).any():
        raise NumericalError(f"non-finite values in {context}")
    if np.isneginf(row_peak).any():
        raise NumericalError(f"empty row or column in {context}")
    f = -row_peak
    g = -(log_kernel + f[:, None]).max(axis=0)
    if np.isposinf(g).any():
        raise NumericalError(f"empty row or column in {context}")

    b, k = log_kernel.shape
    row_target = 1.0 / b
    col_target = 1.0 / k
    kernel = np.exp(log_kernel + f[:, None] + g[None, :])
    v = np.exp(-g)
    # On operands this small, ndarray.dot costs about half of what @ does.
    kv = kernel.dot(v)
    sweeps = newton_steps = 0
    newton = False
    while sweeps + newton_steps < iterations:
        if newton:
            step = _newton_step(kernel, kv, col_sums, row_target, col_target)
            if step is not None:
                kernel, log_u, shift = step
                f += log_u
                g += shift
                newton_steps += 1
                kv = kernel.sum(axis=1)
                col_sums = kernel.sum(axis=0)
                if (
                    np.abs(kv - row_target).max() <= tolerance
                    and np.abs(col_sums - col_target).max() <= tolerance
                ):
                    break
                continue
            newton = False
        u = row_target / kv
        v = col_target / u.dot(kernel)
        kv = kernel.dot(v)
        sweeps += 1
        if tolerance > 0:
            if np.abs(u * kv - row_target).max() <= tolerance:
                break
            if sweeps == _NEWTON_AFTER and sweeps < iterations:
                # Fold the scalings and the next row update into the kernel,
                # so that it holds a coupling with exact rows.
                u = row_target / kv
                f += np.log(u)
                g += np.log(v)
                kernel = u[:, None] * kernel * v[None, :]
                u = np.ones(b)
                v = np.ones(k)
                kv = kernel.sum(axis=1)
                col_sums = kernel.sum(axis=0)
                newton = True
                continue
        if sweeps % _ABSORB_EVERY == 0 and max(u.max(), v.max()) > _ABSORB_ABOVE:
            f += np.log(u)
            g += np.log(v)
            kernel = np.exp(log_kernel + f[:, None] + g[None, :])
            u = np.ones(b)
            v = np.ones(k)
            kv = kernel.sum(axis=1)
    q = u[:, None] * kernel * v[None, :]
    row_err, col_err = marginal_error(q)
    return CodeMatrix(
        values=q,
        row_error=row_err,
        col_error=col_err,
        sweeps=sweeps,
        newton_steps=newton_steps,
    )


def _newton_step(
    coupling: np.ndarray,
    row_sums: np.ndarray,
    col_sums: np.ndarray,
    row_target: float,
    col_target: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """One safeguarded Newton step on the column dual, or None if it fails.

    ``coupling`` Q has rows summing to ``row_sums`` (row_target up to
    rounding) and columns to ``col_sums``. Scaling its columns by exp(h) and
    then its rows back to row_target gives every coupling of the same
    kernel; h = 0 is Q itself. The step minimizes the convex dual

        D(h) = row_target * sum(log(Q exp(h))) - col_target * sum(h),

    whose gradient is col_sums - col_target and whose Hessian
    diag(col_sums) - B Q'Q is the Laplacian of the column graph weighted by
    B Q'Q. It is built from those off-diagonal weights, which involve no
    cancellation, and made invertible by adding col_target to every entry:
    that fixes the null direction 1, which does not change the coupling.

    The step fails when the Hessian is singular, the direction is not one
    of descent, it would move a potential by more than
    ``_NEWTON_MAX_STEP`` (outside the region where the quadratic model of
    D can be trusted), the dual value is not finite, or Armijo
    backtracking stalls. Otherwise it returns the new coupling (rows
    exact), log of its row scaling and the step in h, to be folded into
    the potentials.
    """
    grad = col_sums - col_target
    weights = coupling.T.dot(coupling) / row_target
    np.fill_diagonal(weights, 0.0)
    hessian = np.diag(weights.sum(axis=1)) - weights + col_target
    try:
        direction = np.linalg.solve(hessian, -grad)
    except np.linalg.LinAlgError:
        return None
    slope = float(grad.dot(direction))
    if not (slope < 0.0 and np.abs(direction).max() <= _NEWTON_MAX_STEP):
        return None
    t = 1.0
    for _ in range(_NEWTON_HALVINGS):
        shift = t * direction
        # D(shift) - D(0) from the relative growth of each row total, so
        # that it still resolves steps whose decrease is below the rounding
        # of D itself.
        growth = coupling.dot(np.expm1(shift)) / row_sums
        log_growth = np.log1p(growth)
        decrease = row_target * log_growth.sum() - col_target * shift.sum()
        if not math.isfinite(decrease):
            return None
        if decrease <= _ARMIJO * t * slope:
            row_scale = row_target / (row_sums * (1.0 + growth))
            scaled = row_scale[:, None] * coupling * np.exp(shift)[None, :]
            return scaled, np.log(row_scale), shift
        t *= 0.5
    return None
