"""Independent reference implementations the tests check against.

Everything here favors obvious-over-fast: plain loops, exhaustive
enumeration, arbitrary-precision arithmetic, or scipy's general-purpose
constrained optimizer. Nothing imports from the package under test, so a
bug cannot hide on both sides of a comparison. ``traced_peak`` is the one
measurement: the memory tests read allocation through it.
"""

from __future__ import annotations

import itertools
import tracemalloc
import warnings

import mpmath
import numpy as np
from scipy.optimize import minimize


def softmax_rows_highprec(matrix: np.ndarray, temperature: float, dps: int = 80) -> np.ndarray:
    """Row softmax at ``dps`` decimal digits, rounded to float64 at the end.

    No max subtraction: mpmath simply evaluates exp(1000/0.1) exactly
    enough, which is the point of using it as the overflow oracle.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    out = np.zeros_like(matrix)
    with mpmath.workdps(dps):
        for i, row in enumerate(matrix):
            exps = [mpmath.exp(mpmath.mpf(float(v)) / temperature) for v in row]
            total = mpmath.fsum(exps)
            out[i] = [float(e / total) for e in exps]
    return out


def transport_objective(q: np.ndarray, scores: np.ndarray, prior: np.ndarray, reg: float) -> float:
    """<Q, S> - reg * sum Q * (log Q - log T), with 0*log(0) read as 0.

    With T = all-ones this is the entropy-regularized objective; with a
    Gaussian prior it is the prior-regularized one (constants that do not
    depend on Q are deliberately left out, so only differences of this
    value between two couplings are meaningful).
    """
    q = np.asarray(q, dtype=np.float64)
    safe_q = np.maximum(q, 1e-300)
    log_t = np.log(np.maximum(np.asarray(prior, dtype=np.float64), 1e-300))
    return float((q * scores).sum() - reg * (q * (np.log(safe_q) - log_t)).sum())


def polytope_maximum(scores: np.ndarray, prior: np.ndarray, reg: float) -> tuple[np.ndarray, float]:
    """Maximize the transport objective over the equal-partition polytope.

    SLSQP on the flattened coupling with the analytic jacobian; equality
    constraints pin every row sum to 1/B and the first K-1 column sums to
    1/K (the last column is implied). SLSQP can stall just short of the
    optimum on near-degenerate instances, so the solve restarts from its
    own clipped answer until the objective stops improving.

    Returns:
        (Q at the optimum, maximal objective value).
    """
    scores = np.asarray(scores, dtype=np.float64)
    prior = np.asarray(prior, dtype=np.float64)
    b, k = scores.shape
    flat_s = scores.ravel()
    flat_log_t = np.log(np.maximum(prior, 1e-300)).ravel()

    def fun(x: np.ndarray) -> float:
        q = np.maximum(x, 1e-300)
        return float(-(flat_s * q).sum() + reg * (q * (np.log(q) - flat_log_t)).sum())

    def jac(x: np.ndarray) -> np.ndarray:
        q = np.maximum(x, 1e-300)
        return -flat_s + reg * (np.log(q) - flat_log_t + 1.0)

    rows_a = np.zeros((b, b * k))
    for i in range(b):
        rows_a[i, i * k : (i + 1) * k] = 1.0
    cols_a = np.zeros((k - 1, b * k))
    for j in range(k - 1):
        cols_a[j, j::k] = 1.0
    a_eq = np.vstack([rows_a, cols_a])
    targets = np.concatenate([np.full(b, 1.0 / b), np.full(k - 1, 1.0 / k)])
    constraints = [
        {"type": "eq", "fun": lambda x: a_eq @ x - targets, "jac": lambda x: a_eq}
    ]
    bounds = [(1e-15, 1.0)] * (b * k)

    x0 = np.full(b * k, 1.0 / (b * k))
    best_val = np.inf
    best_x = x0
    for _ in range(20):
        with warnings.catch_warnings():
            # SLSQP warns when it clips iterates to the box; that clipping is
            # exactly what the bounds are for, so the notice is just noise.
            warnings.simplefilter("ignore", RuntimeWarning)
            res = minimize(
                fun,
                x0,
                jac=jac,
                method="SLSQP",
                bounds=bounds,
                constraints=constraints,
                options={"maxiter": 1000, "ftol": 1e-16},
            )
        val = fun(res.x)
        if val < best_val - 1e-13:
            best_val = val
            best_x = res.x
            x0 = np.maximum(res.x, 1e-15)
        else:
            break
    return best_x.reshape(b, k), -best_val


def log_domain_sinkhorn(log_kernel: np.ndarray, iterations: int) -> np.ndarray:
    """Coupling after ``iterations`` Sinkhorn sweeps on log potentials.

    Targets rows=1/B, columns=1/K. Every sweep recomputes both potentials
    with a max-shifted logsumexp (f first, then g, starting from zero
    potentials), so nothing can overflow whatever the scale of
    ``log_kernel``; -inf entries stay zero mass.
    """

    def logsumexp_rows(matrix: np.ndarray) -> np.ndarray:
        peak = matrix.max(axis=1)
        finite_peak = np.where(np.isfinite(peak), peak, 0.0)
        with np.errstate(divide="ignore"):
            out = finite_peak + np.log(np.exp(matrix - finite_peak[:, None]).sum(axis=1))
        return np.where(np.isfinite(peak), out, -np.inf)

    log_kernel = np.asarray(log_kernel, dtype=np.float64)
    b, k = log_kernel.shape
    f = np.zeros(b)
    g = np.zeros(k)
    for _ in range(iterations):
        f = -np.log(b) - logsumexp_rows(log_kernel + g[None, :])
        g = -np.log(k) - logsumexp_rows(log_kernel.T + f[None, :])
    return np.exp(f[:, None] + log_kernel + g[None, :])


def sinkhorn_newton_one_block(
    log_kernel: np.ndarray, iterations: int, tolerance: float, absorb_above: float = 1e50
) -> tuple[np.ndarray, int, int]:
    """(coupling, sweeps, Newton steps) of the one-block solver, step by step.

    The package's stabilized exp-domain scaling with a Sinkhorn-Newton
    finish, written for one B x K block in 2-D numpy calls and Python
    scalars: three sweeps, then safeguarded Newton steps on the column dual
    with Armijo backtracking until the first one fails, then sweeps again;
    every eighth sweep, scalings past ``absorb_above`` (the package's
    ``_ABSORB_ABOVE``) fold into the log potentials. It runs the same
    floating-point operations in the same order as the package, so the
    package's results, for one block or for each block of a stack, must
    equal it bit for bit.
    """
    b, k = log_kernel.shape
    row_target, col_target = 1.0 / b, 1.0 / k
    f = -log_kernel.max(axis=1)
    g = -(log_kernel + f[:, None]).max(axis=0)
    kernel = np.exp(log_kernel + f[:, None] + g[None, :])
    u, v = np.ones(b), np.exp(-g)
    kv = kernel.dot(v)
    col_sums = None
    sweeps = steps = 0
    newton = False
    while sweeps + steps < iterations:
        if newton:
            # One Newton step on the column dual, or newton = False.
            grad = col_sums - col_target
            weights = kernel.T.dot(kernel) / row_target
            np.fill_diagonal(weights, 0.0)
            hessian = np.diag(weights.sum(axis=1)) - weights + col_target
            try:
                direction = np.linalg.solve(hessian, -grad)
            except np.linalg.LinAlgError:
                direction = None
            newton = False
            if direction is not None:
                slope = float(grad.dot(direction))
                if slope < 0.0 and np.abs(direction).max() <= 2.0:
                    t = 1.0
                    for _ in range(10):
                        shift = t * direction
                        growth = kernel.dot(np.expm1(shift)) / kv
                        decrease = row_target * np.log1p(growth).sum() - col_target * shift.sum()
                        if not np.isfinite(decrease):
                            break
                        if decrease <= 1e-4 * t * slope:
                            newton = True
                            break
                        t *= 0.5
            if newton:
                row_scale = row_target / (kv * (1.0 + growth))
                kernel = row_scale[:, None] * kernel * np.exp(shift)[None, :]
                f += np.log(row_scale)
                g += shift
                steps += 1
                kv, col_sums = kernel.sum(axis=1), kernel.sum(axis=0)
                if (
                    np.abs(kv - row_target).max() <= tolerance
                    and np.abs(col_sums - col_target).max() <= tolerance
                ):
                    break
                continue
        u = row_target / kv
        v = col_target / u.dot(kernel)
        kv = kernel.dot(v)
        sweeps += 1
        if tolerance > 0:
            if np.abs(u * kv - row_target).max() <= tolerance:
                break
            if sweeps == 3 and sweeps < iterations:
                u = row_target / kv
                f += np.log(u)
                g += np.log(v)
                kernel = u[:, None] * kernel * v[None, :]
                u, v = np.ones(b), np.ones(k)
                kv, col_sums = kernel.sum(axis=1), kernel.sum(axis=0)
                newton = True
                continue
        if sweeps % 8 == 0 and max(u.max(), v.max()) > absorb_above:
            f += np.log(u)
            g += np.log(v)
            kernel = np.exp(log_kernel + f[:, None] + g[None, :])
            u, v = np.ones(b), np.ones(k)
            kv = kernel.sum(axis=1)
    return u[:, None] * kernel * v[None, :], sweeps, steps


def viterbi_bruteforce(log_probs: np.ndarray) -> tuple[np.ndarray, float]:
    """Best ordered segmentation by enumerating all boundary placements.

    Tries every way to cut F frames into K nonempty consecutive runs
    labeled 0..K-1 in order. Ties on the path score go to the
    lexicographically largest boundary tuple, which is the same thing as
    staying in the current cluster whenever advancing is not strictly
    better.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    frames, clusters = lp.shape
    assert frames >= clusters
    best_score = -np.inf
    best_bounds: tuple[int, ...] | None = None
    for bounds in itertools.combinations(range(1, frames), clusters - 1):
        edges = (0,) + bounds + (frames,)
        score = 0.0
        for cluster in range(clusters):
            score += lp[edges[cluster] : edges[cluster + 1], cluster].sum()
        if best_bounds is None or score > best_score or (
            score == best_score and bounds > best_bounds
        ):
            best_score = score
            best_bounds = bounds
    edges = (0,) + best_bounds + (frames,)
    labels = np.repeat(np.arange(clusters), np.diff(edges))
    return labels, float(best_score)


def viterbi_loop(log_probs: np.ndarray) -> tuple[np.ndarray, float]:
    """Fixed-order Viterbi as two Python loops over frames.

    best[t, k] is the top score of frames t..F-1 given frame t sits in
    cluster k and the path still has to reach K-1, filled from the last
    frame back. The label walk then runs forward and advances only when
    advancing is strictly better, so every boundary goes as late as the
    optimum allows. Returns (labels, best[0, 0]).
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    f, k = lp.shape
    assert f >= k
    best = np.full((f, k), -np.inf)
    best[f - 1, k - 1] = lp[f - 1, k - 1]
    for t in range(f - 2, -1, -1):
        advance = np.concatenate([best[t + 1, 1:], [-np.inf]])
        best[t] = lp[t] + np.maximum(best[t + 1], advance)

    labels = np.empty(f, dtype=np.int64)
    labels[0] = 0
    cluster = 0
    for t in range(1, f):
        if cluster + 1 < k and best[t, cluster + 1] > best[t, cluster]:
            cluster += 1
        labels[t] = cluster
    return labels, float(best[0, 0])


def assignment_bruteforce(counts: np.ndarray) -> int:
    """Max total matched frames over all injective cluster-to-action maps."""
    counts = np.asarray(counts)
    num_pred, num_gt = counts.shape
    if num_pred <= num_gt:
        return max(
            sum(int(counts[i, perm[i]]) for i in range(num_pred))
            for perm in itertools.permutations(range(num_gt), num_pred)
        )
    return max(
        sum(int(counts[perm[j], j]) for j in range(num_gt))
        for perm in itertools.permutations(range(num_pred), num_gt)
    )


def finite_difference(fn, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function at x."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for idx in range(flat_x.size):
        original = flat_x[idx]
        flat_x[idx] = original + step
        high = fn(x)
        flat_x[idx] = original - step
        low = fn(x)
        flat_x[idx] = original
        flat_g[idx] = (high - low) / (2.0 * step)
    return grad


def max_relative_error(approx: np.ndarray, exact: np.ndarray, floor: float = 1e-6) -> float:
    """Max elementwise |approx - exact| / max(|exact|, floor)."""
    approx = np.asarray(approx, dtype=np.float64).ravel()
    exact = np.asarray(exact, dtype=np.float64).ravel()
    return float(np.max(np.abs(approx - exact) / np.maximum(np.abs(exact), floor)))


def nearest_mean_accuracy(catalog) -> float:
    """Frame accuracy of classifying every frame by its nearest true mean.

    Only meaningful for synthetic catalogs, whose ``true_means`` rows are
    indexed by action id.
    """
    means = catalog.true_means
    correct = 0
    total = 0
    for video in catalog.videos:
        frames = video.load_features()
        distances = ((frames[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        predicted = distances.argmin(axis=1)
        correct += int((predicted == video.labels).sum())
        total += video.labels.size
    return correct / total


def f1_by_frame_counting(
    mapped_pred, gt, overlap: str = "gt", threshold: float = 0.5
) -> float:
    """Segment F1 recomputed with per-frame sets instead of intervals.

    Segments are rebuilt by a plain scan and overlaps counted through set
    intersections; the matching rule is the stated one (each ground-truth
    segment claims the unused same-label predicted segment with the
    highest ratio, counting when the ratio exceeds the threshold).
    """

    def scan_segments(labels) -> list[tuple[int, frozenset[int]]]:
        labels = list(labels)
        segments = []
        start = 0
        for pos in range(1, len(labels) + 1):
            if pos == len(labels) or labels[pos] != labels[start]:
                segments.append((labels[start], frozenset(range(start, pos))))
                start = pos
        return segments

    pred_segments = scan_segments(mapped_pred)
    gt_segments = scan_segments(gt)
    used = [False] * len(pred_segments)
    true_positives = 0
    for gt_label, gt_frames in gt_segments:
        best_idx = -1
        best_ratio = threshold
        for idx, (pred_label, pred_frames) in enumerate(pred_segments):
            if used[idx] or pred_label != gt_label:
                continue
            inter = len(gt_frames & pred_frames)
            if overlap == "gt":
                ratio = inter / len(gt_frames)
            else:
                ratio = inter / len(gt_frames | pred_frames)
            if ratio > best_ratio:
                best_ratio = ratio
                best_idx = idx
        if best_idx >= 0:
            used[best_idx] = True
            true_positives += 1
    precision = true_positives / len(pred_segments)
    recall = true_positives / len(gt_segments)
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def two_buffer_cross_entropy(scores, codes, temperature: float) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy and its score gradient, one fresh array per step.

    The shifted scores, their exponentials, the log-probabilities and the
    gradient each get their own array; ``codes`` is a B x K matrix, as for
    ``losses.cross_entropy``, or a length-B vector of target columns, as
    ``losses.temporal_coherence`` scores its diagonal.
    The floating-point operations are the package's, in the same order,
    so the two must agree bit for bit.
    """
    shifted = np.asarray(scores, dtype=np.float64) / temperature
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    mass = exps.sum(axis=1, keepdims=True)
    p = exps / mass
    log_p = shifted - np.log(mass)
    b = p.shape[0]
    if np.ndim(codes) == 1:
        hits = (np.arange(b), np.asarray(codes))
        p[hits] -= 1.0
        return float(-log_p[hits].sum() / b), p / (b * temperature)
    q = np.asarray(codes, dtype=np.float64)
    row_mass = q.sum(axis=1, keepdims=True)
    return float(-(q * log_p).sum() / b), (row_mass * p - q) / (b * temperature)


def read_labels_line_by_line(path, name_to_id: dict[str, int]) -> np.ndarray:
    """Ground-truth ids, one ``str.splitlines`` line at a time.

    Raises:
        ValueError: Carrying the message the package's ``DataError`` must
            carry for the same file.
    """
    ids = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        name = line.strip()
        if not name:
            continue
        if name not in name_to_id:
            raise ValueError(f"{path}:{lineno}: unknown action name {name!r}")
        ids.append(name_to_id[name])
    return np.asarray(ids, dtype=np.int64)


def read_predictions_line_by_line(path) -> np.ndarray:
    """Prediction ids, ``int`` of one ``bytes.splitlines`` line at a time.

    Raises:
        ValueError: Carrying the message the package's ``DataError`` must
            carry for the same file.
    """
    lines = path.read_bytes().splitlines()
    try:
        ids = np.asarray([int(line) for line in lines if line.strip()], dtype=np.int64)
    except ValueError:
        raise ValueError(f"{path}: prediction lines must be integer cluster ids") from None
    except OverflowError:
        raise ValueError(f"{path}: prediction ids must be below 2**63") from None
    if ids.size and ids.min() < 0:
        raise ValueError(f"{path}: prediction ids must be >= 0, got {int(ids.min())}")
    return ids


def encoder_backward_allocating(
    inputs: np.ndarray,
    hidden: np.ndarray,
    outputs: np.ndarray,
    w2: np.ndarray,
    grad_outputs: np.ndarray,
) -> dict[str, np.ndarray]:
    """The two-layer sigmoid MLP's backward pass, one fresh array per line.

    Each pre-activation gradient is one expression of the cached forward
    arrays; nothing is overwritten. The floating-point operations are the
    package's, in the same order, so the two must agree bit for bit.
    """
    da2 = grad_outputs * outputs * (1.0 - outputs)
    dh = da2 @ w2.T
    da1 = dh * hidden * (1.0 - hidden)
    return {
        "w1": inputs.T @ da1,
        "b1": da1.sum(axis=0),
        "w2": hidden.T @ da2,
        "b2": da2.sum(axis=0),
    }


def normalize_rows_allocating(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows and their norms (1 for a zero row) from ``np.linalg.norm``."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms = np.where(norms == 0.0, 1.0, norms)
    return matrix / norms, norms


def normalize_rows_backward_allocating(
    grad_normalized: np.ndarray, normalized: np.ndarray, norms: np.ndarray
) -> np.ndarray:
    """(g - (g . zhat) zhat) / |z| per row, as one expression."""
    along = (grad_normalized * normalized).sum(axis=1, keepdims=True)
    return (grad_normalized - along * normalized) / norms


def traced_peak(call) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``call()`` runs, above
    what was traced when it started.

    Tracing that is already running (``python -X tracemalloc``) is kept
    running; otherwise it is started for the call and stopped after it.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
