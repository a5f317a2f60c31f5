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

Both solvers also take an n x B x K stack of equal-sized blocks, each its
own problem on its own polytope, and scale them together as batched
matrix products (as Cuturi 2013 batches Sinkhorn distances). The blocks
sweep together, then step together, with one batched K x K solve per
Newton round and an Armijo step length per block. The blocks whose step
fails in a round sweep on together, and each block leaves the stack at
the sweep or step where it would stop alone. A stack therefore returns
exactly the solves of its blocks one by one, with one set of numpy calls
per sweep or step of a group instead of one per block. Training solves
the video blocks of a batch as one stack.

Codes are targets, not variables: callers must not backpropagate through
the returned matrix, and nothing here is differentiable.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .numerics import _row_max

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

    For a stack of n blocks the errors are the worst block's and the counts
    are totals over the blocks; each block's own counts are those of its
    solve alone.

    Attributes:
        values: B x K nonnegative matrix (n x B x K for a stack); rows aim
            at 1/B, columns at 1/K.
        row_error: max abs deviation of row sums from 1/B after the last sweep.
        col_error: max abs deviation of column sums from 1/K.
        sweeps: Number of row+column sweeps actually performed.
        newton_steps: Number of accepted Newton steps on the column dual;
            ``sweeps + newton_steps`` never exceeds the solve's budget
            (n times the budget for a stack).
    """

    values: np.ndarray
    row_error: float
    col_error: float
    sweeps: int
    newton_steps: int


def _as_blocks(values) -> np.ndarray:
    """Coerce input to a float64 C-ordered B x K matrix or n x B x K stack."""
    blocks = np.ascontiguousarray(values, dtype=np.float64)
    if blocks.ndim not in (2, 3):
        raise ValueError(
            f"expected a B x K matrix or an n x B x K stack, got array of shape "
            f"{blocks.shape}"
        )
    return blocks


def marginal_error(q) -> tuple[float, float]:
    """Max abs deviation of (row sums, column sums) from 1/B and 1/K.

    For an n x B x K stack of couplings, the largest over its blocks.
    """
    q = _as_blocks(q)
    rows, cols = q.shape[-2:]
    row_err = float(np.abs(q.sum(axis=-1) - 1.0 / rows).max())
    col_err = float(np.abs(q.sum(axis=-2) - 1.0 / cols).max())
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
        scores: B x K matrix of frame-cluster similarities, finite, or an
            n x B x K stack of such blocks, each solved on its own.
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
    log_kernel = _as_blocks(scores) / epsilon
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
        scores: B x K matrix of frame-cluster similarities, finite, or an
            n x B x K stack of such blocks, each solved on its own.
        prior: B x K nonnegative prior coupling (zero entries stay zero),
            shared by every block of a stack, or one per block.
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
    scores = _as_blocks(scores)
    prior = _as_blocks(prior)
    if prior.shape not in (scores.shape, scores.shape[-2:]):
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


class _Blocks:
    """Solver state of the blocks of a stack that run in one group.

    ``index`` holds their positions in the stack. Every other attribute has
    one row per block: the coupling diag(u) kernel diag(v), whose absorbed
    log potentials are f and g; kv, the product of kernel and v (in the
    Newton phase, where u and v are ones, the row sums); and col_gap, the
    kernel's column sums minus 1/K in the Newton phase. The blocks of a
    group have taken the same number of sweeps and of Newton steps, which
    the solver counts once for the group.
    """

    def __init__(self, **arrays: np.ndarray) -> None:
        self.__dict__.update(arrays)

    def take(self, rows: np.ndarray) -> _Blocks:
        """The blocks at positions ``rows`` of this state."""
        return _Blocks(**{name: array[rows] for name, array in vars(self).items()})


def _scale_to_polytope(
    log_kernel: np.ndarray,
    iterations: int,
    tolerance: float,
    context: str,
) -> CodeMatrix:
    """Stabilized exp-domain Sinkhorn-Knopp onto rows=1/B, columns=1/K.

    ``log_kernel`` is one B x K block or an n x B x K stack of blocks, each
    solved on its own polytope by batched products over its group. A block
    leaves its group only by stopping or by failing a Newton step, so the
    blocks of a group share their counts of sweeps and Newton steps, while
    each keeps its own stop test and fallback: every block's result equals
    its solve as a stack of one bit for bit.

    A block's coupling is Q = diag(u) exp(log_kernel + f 1' + 1 g') diag(v)
    with absorbed log potentials f, g. The first shift makes every row and
    column of the kernel peak at exactly 1; v starts at exp(-g), so the
    first sweep is the plain one from zero potentials. Every
    ``_ABSORB_EVERY`` sweeps, if u or v has grown past ``_ABSORB_ABOVE``,
    the scalings are folded into f, g and the kernel is rebuilt. The row
    error after a sweep reuses the product the next row update needs (the
    columns are exact after a column update), so stopping on ``tolerance``
    costs a few small ufuncs and happens at the first sweep within it.

    The solve runs in phases. All blocks first sweep: ``_NEWTON_AFTER``
    times if ``tolerance > 0`` leaves budget after them, otherwise for the
    whole of ``iterations``. In the Newton phase (Sinkhorn-Newton, Brauer,
    Clason, Lorenz & Wirth 2017) the scalings are folded into the kernel
    and the blocks step on the K column potentials instead, the row
    potentials following in closed form (see ``_newton_step``); near the
    optimum each step squares the error. Each accepted step counts against
    ``iterations`` like a sweep. The blocks whose step fails in a round
    take their last accepted coupling back to plain sweeps for the rest of
    the budget, which is how unreachable polytopes (zero patterns in a
    prior) and sharp kernels far from their optimum end; the other blocks
    then step on. With ``tolerance == 0`` no Newton step runs and the
    iterates are the plain ones.

    -inf entries (zero kernel mass) are legal; NaN / +inf are not, and an
    all-zero row or column makes the marginals unreachable.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    shape = log_kernel.shape
    log_kernel = log_kernel.reshape((-1,) + shape[-2:])
    # A row's max is NaN or +inf exactly when the row holds one, and -inf
    # when the row is empty; an empty column is the one with g = +inf.
    row_peak = _row_max(log_kernel.reshape(-1, shape[-1])).reshape(log_kernel.shape[:2])
    if not np.isfinite(row_peak).all():
        if np.isnan(row_peak).any() or np.isposinf(row_peak).any():
            raise NumericalError(f"non-finite values in {context}")
        raise NumericalError(f"empty row or column in {context}")
    f = -row_peak
    g = -(log_kernel + f[:, :, None]).max(axis=1)
    if not np.isfinite(g).all():
        raise NumericalError(f"empty row or column in {context}")

    n, b, k = log_kernel.shape
    row_target = 1.0 / b
    col_target = 1.0 / k
    values = np.empty_like(log_kernel)
    sweeps = np.empty(n, dtype=np.int64)
    newton_steps = np.empty(n, dtype=np.int64)

    def finish(
        blocks: _Blocks | None, done: np.ndarray | None, swept: int, steps: int
    ) -> _Blocks | None:
        """Write out the blocks where ``done`` holds (all if it is None)
        after ``swept`` sweeps and ``steps`` Newton steps; the others run on."""
        if blocks is None:
            return None
        rest = None
        if done is not None:
            rows = np.flatnonzero(done)
            if rows.size < blocks.index.size:
                rest = blocks.take(np.flatnonzero(~done))
                blocks = blocks.take(rows)
        values[blocks.index] = blocks.u[:, :, None] * blocks.kernel * blocks.v[:, None, :]
        sweeps[blocks.index] = swept
        newton_steps[blocks.index] = steps
        return rest

    def sweep(blocks: _Blocks, swept: int, steps: int, budget: int) -> _Blocks | None:
        """Plain sweeps until ``swept + steps`` reaches ``budget``; the
        blocks that have not stopped by then, if any."""
        while swept + steps < budget:
            blocks.u = row_target / blocks.kv
            blocks.v = col_target / np.matmul(blocks.u[:, None, :], blocks.kernel)[:, 0, :]
            blocks.kv = np.matmul(blocks.kernel, blocks.v[:, :, None])[:, :, 0]
            swept += 1
            if tolerance > 0:
                error = np.abs(blocks.u * blocks.kv - row_target).max(axis=1)
                if error.min() <= tolerance:
                    blocks = finish(blocks, error <= tolerance, swept, steps)
                    if blocks is None:
                        return None
            if swept % _ABSORB_EVERY == 0:
                grown = np.flatnonzero(
                    np.maximum(blocks.u.max(axis=1), blocks.v.max(axis=1)) > _ABSORB_ABOVE
                )
                if grown.size:
                    blocks.f[grown] += np.log(blocks.u[grown])
                    blocks.g[grown] += np.log(blocks.v[grown])
                    blocks.kernel[grown] = np.exp(
                        log_kernel[blocks.index[grown]]
                        + blocks.f[grown][:, :, None]
                        + blocks.g[grown][:, None, :]
                    )
                    blocks.u[grown] = 1.0
                    blocks.v[grown] = 1.0
                    blocks.kv[grown] = blocks.kernel[grown].sum(axis=2)
        return blocks

    kernel = np.exp(log_kernel + f[:, :, None] + g[:, None, :])
    v = np.exp(-g)
    blocks = _Blocks(
        index=np.arange(n),
        kernel=kernel,
        f=f,
        g=g,
        v=v,
        kv=np.matmul(kernel, v[:, :, None])[:, :, 0],
    )
    # Every block not yet written out has taken `first` sweeps and `steps`
    # Newton steps.
    first = _NEWTON_AFTER if tolerance > 0 and _NEWTON_AFTER < iterations else iterations
    blocks = sweep(blocks, 0, 0, first)
    steps = 0
    if blocks is not None and first < iterations:
        # Fold the scalings and the next row update into the kernel, so
        # that it holds a coupling with exact rows.
        u = row_target / blocks.kv
        blocks.f += np.log(u)
        blocks.g += np.log(blocks.v)
        blocks.kernel = u[:, :, None] * blocks.kernel * blocks.v[:, None, :]
        blocks.u = np.ones_like(u)
        blocks.v = np.ones_like(blocks.v)
        blocks.kv = blocks.kernel.sum(axis=2)
        blocks.col_gap = blocks.kernel.sum(axis=1) - col_target
    while blocks is not None and first + steps < iterations:
        failed, kernel, log_u, shift = _newton_step(
            blocks.kernel, blocks.kv, blocks.col_gap, row_target
        )
        if failed is not None:
            back = sweep(blocks.take(np.flatnonzero(failed)), first, steps, iterations)
            finish(back, None, iterations - steps, steps)
            if failed.all():
                blocks = None
                break
            blocks = blocks.take(np.flatnonzero(~failed))
        blocks.kernel = kernel
        blocks.f += log_u
        blocks.g += shift
        blocks.kv = kernel.sum(axis=2)
        blocks.col_gap = kernel.sum(axis=1) - col_target
        steps += 1
        # Rows are exact up to rounding after a step, so the columns decide
        # first whether any block may be done.
        done = np.abs(blocks.col_gap).max(axis=1) <= tolerance
        if done.any():
            done &= np.abs(blocks.kv - row_target).max(axis=1) <= tolerance
            if done.any():
                blocks = finish(blocks, done, first, steps)
    finish(blocks, None, first, steps)
    row_err, col_err = marginal_error(values)
    return CodeMatrix(
        values=values.reshape(shape),
        row_error=row_err,
        col_error=col_err,
        sweeps=int(sweeps.sum()),
        newton_steps=int(newton_steps.sum()),
    )


def _newton_step(
    coupling: np.ndarray,
    row_sums: np.ndarray,
    grad: np.ndarray,
    row_target: float,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
    """One safeguarded Newton step on the column dual of each block of a stack.

    ``coupling`` holds n B x K blocks Q. Each has rows summing to its row
    of ``row_sums`` (row_target = 1/B up to rounding) and column sums
    col_sums, whose excess over col_target = 1/K is its row of ``grad``.
    Scaling the columns of Q by exp(h) and then its rows back to row_target
    gives every coupling of the same kernel; h = 0 is Q itself. The step
    minimizes the convex dual

        D(h) = row_target * sum(log(Q exp(h))) - col_target * sum(h),

    whose gradient is ``grad`` and whose Hessian
    diag(col_sums) - B Q'Q is the Laplacian of the column graph weighted by
    B Q'Q. It is built from those off-diagonal weights, which involve no
    cancellation, and made invertible by adding col_target to every entry:
    that fixes the null direction 1, which does not change the coupling.

    A block's step fails when its Hessian is singular, the direction is
    not one of descent, it would move a potential by more than
    ``_NEWTON_MAX_STEP`` (outside the region where the quadratic model of
    D can be trusted), the dual value is not finite, or Armijo
    backtracking stalls. Each block backtracks on its own step length.

    Returns:
        (failed, scaled, log_row_scale, shift): the mask of blocks whose
        step failed, or None if none did, and for the other blocks in
        order the new coupling (rows exact), the log of its row scaling
        and the step in h, to be folded into the potentials.
    """
    n, b, k = coupling.shape
    col_target = 1.0 / k
    weights = np.matmul(coupling.transpose(0, 2, 1), coupling) / row_target
    weights.reshape(n, k * k)[:, :: k + 1] = 0.0
    hessian = -weights
    hessian.reshape(n, k * k)[:, :: k + 1] = weights.sum(axis=2)
    hessian += col_target
    try:
        direction = np.linalg.solve(hessian, -grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # A singular Hessian fails the whole batched solve, but only its own
        # block's step may fail: solve the blocks one by one.
        direction = np.full((n, k), np.nan)
        for i in range(n):
            with contextlib.suppress(np.linalg.LinAlgError):
                direction[i] = np.linalg.solve(hessian[i], -grad[i])
    slope = np.matmul(grad[:, None, :], direction[:, :, None])[:, 0, 0]
    # The blocks still backtracking: all of them, as a slice, until one
    # drops out.
    rows = slice(None)
    if not (slope.max() < 0.0 and np.abs(direction).max() <= _NEWTON_MAX_STEP):
        rows = np.flatnonzero(
            (slope < 0.0) & (np.abs(direction).max(axis=1) <= _NEWTON_MAX_STEP)
        )
    lengths = np.zeros(n)
    t = 1.0
    for _ in range(_NEWTON_HALVINGS):
        shift = t * direction[rows]
        growth = _row_growth(coupling[rows], row_sums[rows], shift)
        # D(shift) - D(0) from the relative growth of each row total, so
        # that it still resolves steps whose decrease is below the rounding
        # of D itself.
        decrease = row_target * np.log1p(growth).sum(axis=1) - (
            col_target * shift.sum(axis=1)
        )
        finite = np.isfinite(decrease)
        met = finite & (decrease <= _ARMIJO * t * slope[rows])
        if isinstance(rows, slice):
            if met.all():
                return (None,) + _step(coupling, row_sums, shift, growth, row_target)
            rows = np.arange(n)
        lengths[rows[met]] = t
        rows = rows[finite & ~met]
        if rows.size == 0:
            break
        t *= 0.5
    accepted = lengths > 0.0
    coupling = coupling[accepted]
    row_sums = row_sums[accepted]
    shift = lengths[accepted, None] * direction[accepted]
    growth = _row_growth(coupling, row_sums, shift)
    failed = None if accepted.all() else ~accepted
    return (failed,) + _step(coupling, row_sums, shift, growth, row_target)


def _row_growth(coupling: np.ndarray, row_sums: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Relative growth of each row total when the columns grow by exp(shift)."""
    return np.matmul(coupling, np.expm1(shift)[:, :, None])[:, :, 0] / row_sums


def _step(
    coupling: np.ndarray,
    row_sums: np.ndarray,
    shift: np.ndarray,
    growth: np.ndarray,
    row_target: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coupling after a step (rows exact), the log of its row scaling, the step."""
    row_scale = row_target / (row_sums * (1.0 + growth))
    scaled = row_scale[:, :, None] * coupling * np.exp(shift)[:, None, :]
    return scaled, np.log(row_scale), shift
