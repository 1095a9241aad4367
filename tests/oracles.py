"""Earlier implementations, kept verbatim as oracles for the tests.

The dense second-moment matrix X'X / n, which the band fits replaced; the
input checks of CholeskyFactor, norm_l1, norm_linf, norm_fro and
as_data_matrix as they were before each took one pass (norm_fro with the
power-of-two rescale it has since gained where a finite matrix's squares
overflow); the graphical MLE
in its clique form, the algorithm independent of the banded regression
that competitors.graphical_mle_banded now is, one Cholesky factorization
and one cho_solve per clique and separator, added into a dense matrix; the
posterior-mode grid's fallback as it was when it factored a bandwidth once
for its rows and again inside _regress; the nested coefficients with the
blocks-last row recursion for the inverse factors inside their loop; the band norm's
extreme eigenvalue by plain bisection, one midpoint per Cholesky test;
the back-substitution on a stack of factors, along the rows of its
(p, ...) arrays, before it moved to blocks-last copies; the nested
factor's residual variances and log determinants as the factorization
computed both, before the log determinants waited for their first read;
compose with its scratch band negated and then divided; mcd._compose_bands
on a (p + 2k, 2k + 1) scratch band, one row per coordinate, before its
slots moved to contiguous rows; and, from before
mcd._add_block_inverses summed every block inverse into bands, the exact
posterior mean with its inverse predecessor blocks scattered into the
dense compose by np.add.at; and, from before linalg._bands read a square
matrix's band once, the lower band copied diagonal by diagonal, the
symmetry test's loop over the diagonals, and norm_spectral's front end on
a symmetric input, with its finiteness check over the concatenated
diagonals and its lower and upper bandwidths, here read off np.nonzero;
and population_coefficients with a covariance matrix's band
gathered through index arrays, before it was written through the Gram
band's two strided views.
"""

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpbtrf

from bandchol import linalg, stats
from bandchol.bayes import _predecessor_factors, ig_cdf
from bandchol.errors import BandcholError, DegenerateResidual, SingularDesign
from bandchol.linalg import (
    BAND_BISECTION_LIMIT,
    SYM_SCAN_RATIO,
    SYM_TOL,
    _band_norm,
    _dense_extremes,
)
from bandchol.mcd import CholeskyFactor, _dense_symmetric
from bandchol.mcd import compose as mcd_compose
from bandchol.stats import _predecessor_blocks, gram_band


def check_finite(m, name="matrix"):
    """Convert to a float ndarray, rejecting NaN and infinity."""
    out = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def cholesky_factor_checks(a, d):
    """CholeskyFactor.__post_init__: the checked (a, d) it stores."""
    a = check_finite(a, "coefficient band")
    d = check_finite(d, "innovation variances")
    if a.ndim != 2 or d.shape != (a.shape[0],):
        raise ValueError("coefficient band must have shape (p, k) and d shape (p,)")
    p, k = a.shape
    if k >= p:
        raise ValueError(f"coefficient band must have fewer than p = {p} columns, got {k}")
    # row j < k has k - j slots before the first coordinate
    slots = np.arange(k)
    if np.any(a[:k][slots[:, None] + slots < k] != 0.0):
        raise ValueError("coefficient band must be zero before the first coordinate")
    if np.any(d <= 0.0):
        raise ValueError("innovation variances must be positive")
    return a, d


def norm_l1(m):
    """Maximum absolute column sum."""
    m = check_finite(m)
    return float(np.max(np.sum(np.abs(m), axis=0))) if m.size else 0.0


def norm_linf(m):
    """Maximum absolute row sum."""
    m = check_finite(m)
    return float(np.max(np.sum(np.abs(m), axis=1))) if m.size else 0.0


def norm_fro(m):
    """Frobenius norm. Where the squares of a finite matrix overflow, its
    entries are divided by 2^e, the power of two just above the largest one,
    and the norm of the quotient is multiplied by 2^e; only a norm above the
    largest float overflows, and warns as the unscaled sum does."""
    m = check_finite(m)
    with np.errstate(over="ignore"):
        out = np.sqrt(np.sum(m * m))
    if m.ndim == 2 and not np.isfinite(out):
        e = int(np.frexp(np.max(np.abs(m)))[1])
        with np.errstate(over="ignore"):
            out = np.ldexp(np.sqrt(np.sum(np.ldexp(m, -e) ** 2)), e)
        if np.isfinite(out):
            return float(out)
    return float(np.sqrt(np.sum(m * m)))


def as_data_matrix(x):
    """Validate an n x p data matrix of finite floats."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"data must be a 2-D matrix, got ndim={x.ndim}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"data must be nonempty, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("data contains non-finite entries")
    return x


def gram_matrix(x):
    """Raw second-moment matrix X'X / n; ValueError when it overflows."""
    x = as_data_matrix(x)
    # checked after the symmetrization, whose sum can overflow too
    with np.errstate(over="ignore", invalid="ignore"):
        g = x.T @ x / x.shape[0]
        g = (g + g.T) / 2.0
    if not np.all(np.isfinite(g)):
        raise ValueError("second moments X'X/n overflow; rescale the data")
    return g


class SingularClique(BandcholError):
    """A clique block of the sample covariance was not invertible."""

    def __init__(self, clique):
        self.clique = int(clique)
        super().__init__(f"sample covariance block of clique {self.clique} is singular")


def graphical_mle_loop(data, k):
    """The k-banded graphical MLE in its clique form, one clique and one
    separator at a time (Lauritzen 1996): padded clique-block inverses of the
    sample second moments minus padded separator-block inverses.
    SingularClique(c) names the first clique c, else the first separator
    after clique c, without a Cholesky factor."""
    x = as_data_matrix(data)
    n, p = x.shape
    if k < 0:
        raise ValueError("bandwidth k must be nonnegative")
    keff = min(k, p - 1)
    if n <= keff + 1:
        raise ValueError(f"need n > min(k, p-1) + 1, got n={n}, k={k}")
    band = gram_band(x, keff).band
    # clique c = {c, ..., c + keff} is the block of column c + keff
    blocks = _predecessor_blocks(band, keff)
    omega = np.zeros((p, p))
    ncliques = p - keff
    width = keff + 1
    eye = np.eye(width)
    for c in range(ncliques):
        sl = slice(c, c + width)
        try:
            low = np.linalg.cholesky(blocks[c + keff])
        except np.linalg.LinAlgError:
            raise SingularClique(c + 1) from None
        omega[sl, sl] += cho_solve((low, True), eye)
    if keff >= 1:
        eye_sep = np.eye(keff)
        for c in range(ncliques - 1):
            sl = slice(c + 1, c + 1 + keff)
            try:
                low = np.linalg.cholesky(blocks[c + keff, 1:, 1:])
            except np.linalg.LinAlgError:
                raise SingularClique(c + 1) from None
            omega[sl, sl] -= cho_solve((low, True), eye_sep)
    return (omega + omega.T) / 2.0


def regress_nested_twice(stat, k_values):
    """stats._regress_nested, whose fallback factored each untrusted
    bandwidth for its rows and again inside _regress."""
    p = stat.p
    keffs = np.minimum(k_values, p - 1)
    nested = stats._factor_nested(stat, int(keffs[-1]))
    if nested.trusted:
        return nested.dhat[keffs], nested.logdet[keffs], None
    dhat = np.empty((len(k_values), p))
    logdet = np.empty((len(k_values), p))
    for i, k in enumerate(k_values):
        factor = stats._factor_nested(stat, int(keffs[i]))
        if not factor.trusted:
            try:
                stats._regress(stat, int(k))
            except (SingularDesign, DegenerateResidual) as err:
                return dhat[:i], logdet[:i], err
        dhat[i], logdet[i] = factor.dhat[-1], factor.logdet[-1]
    return dhat, logdet, None


def nested_coefficients(factor):
    """stats._nested_coefficients with the blocks-last row recursion of
    linalg._invert_lower inside its loop, each inverse row added into the
    coefficients as soon as it is computed."""
    kmax = factor.shape[1] - 1
    low = np.ascontiguousarray(factor[:, :kmax, :kmax].transpose(1, 2, 0))
    l = np.ascontiguousarray(factor[:, kmax, :kmax].T)
    m = np.zeros(low.shape)
    coef = np.empty((kmax, factor.shape[0], kmax))
    acc = np.zeros((kmax, factor.shape[0]))
    for i in range(kmax):
        row = m[i, :i + 1]
        row[i] = 1.0
        row[:i] -= np.einsum("sc,src->rc", low[i, :i], m[:i, :i])
        row /= low[i, i]
        acc[:i + 1] += l[i] * row
        coef[i] = acc.T
    return coef


def top_eigenvalue_bisection(minus_band, lo, hi, tol, start):
    """linalg._top_eigenvalue by plain bisection: each dpbtrf of
    mid * I - A moves one end of the bracket to its midpoint; the start
    vector and first trial point are not read."""
    work = np.empty_like(minus_band, order="F")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        work[...] = minus_band
        work[0] += mid
        if dpbtrf(work, lower=1, overwrite_ab=1)[1] == 0:
            hi = mid
        else:
            lo = mid
    return hi


def solve_lower_transposed(low, x):
    """linalg._solve_lower_transposed, slot by slot on the last axis of x."""
    for i in range(low.shape[-1] - 1, -1, -1):
        x[..., i] /= low[:, i, i]
        x[..., :i] -= low[:, i, :i] * x[..., i, None]
    return x


def nested_dhat_logdet(band, kmax):
    """The dhat and logdet rows of stats._factor_nested at width kmax, both
    from prefix sums along the rows of the (p, K+1, K+1) factors, or None
    where the Cholesky factorization fails."""
    blocks = stats._nearest_first_blocks(band, kmax)
    try:
        low = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        return None
    diag = np.diagonal(low, axis1=1, axis2=2)
    gjj, l = blocks[:, kmax, kmax], low[:, kmax, :kmax]
    dhat = np.vstack([gjj, gjj - np.cumsum(l ** 2, axis=1).T])
    logdet = np.vstack([np.zeros_like(gjj), 2.0 * np.cumsum(np.log(diag[:, :kmax]), axis=1).T])
    return dhat, logdet


def compose(factor):
    """mcd.compose with its scratch band negated and then divided."""
    p, k = factor.a.shape
    b = np.zeros((p + 2 * k, 2 * k + 1))
    b[:p, 0] = 1.0
    b[:p, 1:k + 1] = -factor.a[:, ::-1]
    b[:p, :k + 1] /= np.sqrt(factor.d)[:, None]
    s0, s1 = b.strides
    left = np.ndarray((k + 1, p, k + 1), buffer=b, strides=(s0, s0, s0 + s1))
    right = np.ndarray((k + 1, p, k + 1), buffer=b, strides=(s0 + s1, s0, s0 + s1))
    return _dense_symmetric(np.einsum("sct,sct->sc", left, right))


def compose_bands(factor):
    """mcd._compose_bands with b[m, t] = B[m, m-t], the slots t of a row m
    next to each other, reduced over t along the last axis of its views."""
    p, k = factor.a.shape
    # b[m, t] = B[m, m-t] for B = D^{-1/2} (I - A), zero left of column 0,
    # past slot k and past the last row
    b = np.zeros((p + 2 * k, 2 * k + 1))
    root = np.sqrt(factor.d)
    b[:p, 0] = 1.0 / root
    # a / (-root) is -(a / root) exactly
    np.divide(factor.a[:, ::-1], -root[:, None], out=b[:p, 1:k + 1])
    # omega[c+s, c] = sum_t B[c+s+t, c+s] * B[c+s+t, c]
    #              = sum_t b[c+s+t, t] * b[c+s+t, t+s],
    # for every offset s at once from two strided views of b; the terms that
    # leave the band or the matrix read its zeros
    s0, s1 = b.strides
    left = np.ndarray((k + 1, p, k + 1), buffer=b, strides=(s0, s0, s0 + s1))
    right = np.ndarray((k + 1, p, k + 1), buffer=b, strides=(s0 + s1, s0, s0 + s1))
    return np.einsum("sct,sct->sc", left, right)


def posterior_mean_scatter(model):
    """bayes.posterior_mean_omega, its inverse blocks added into the dense
    compose by np.add.at."""
    p, keff = model.ahat.shape
    gain = ig_cdf(model.M, model.ig_shape + 1.0, model.ig_rate) / model.trunc_mass
    omega = mcd_compose(CholeskyFactor(a=model.ahat,
                                       d=model.ig_rate / model.ig_shape / gain))
    m = linalg._invert_lower(_predecessor_factors(model)).transpose(2, 0, 1)
    # slot a of column j is coordinate j - keff + a; padded slots (< 0) are left out
    at = np.arange(p)[:, None] + np.arange(-keff, 0)
    r, c = np.broadcast_arrays(at[:, :, None], at[:, None, :])
    real = (r >= 0) & (c >= 0)
    np.add.at(omega, (r[real], c[real]), (m.swapaxes(1, 2) @ m)[real] / model.n)
    return omega


def _lower_band(m, b):
    """The lower band of a square m in LAPACK storage: row d holds diagonal
    -d, padded with zeros at the end; Fortran order, as dpbtrf reads it."""
    p = m.shape[0]
    band = np.zeros((b + 1, p), order="F")
    for d in range(b + 1):
        band[d, :p - d] = np.diagonal(m, -d)
    return band


def bandwidths(m):
    """The lower and upper bandwidth of a square m, the largest i - j and
    j - i over its nonzero entries m[i, j], NaN and infinities included, and
    0 when there are none."""
    rows, cols = np.nonzero(m)
    return int(np.max(rows - cols, initial=0)), int(np.max(cols - rows, initial=0))


def _symmetric_within(m, width):
    """is_symmetric for a square m with no nonzero entry more than width
    diagonals off the main one.

    Outside that band m and m.T are both exactly zero, so the largest entry
    and the largest |m - m.T| are found on the 2 * width + 1 diagonals in
    it, in O(p * width). A wide band takes the dense formula, which is then
    the cheaper one.
    """
    if SYM_SCAN_RATIO * width > m.shape[0]:
        scale = np.max(np.abs(m))
        return scale == 0.0 or np.max(np.abs(m - m.T)) <= SYM_TOL * scale
    scale = np.max(np.abs(np.diagonal(m)))
    asym = 0.0
    for d in range(1, width + 1):
        below, above = np.diagonal(m, -d), np.diagonal(m, d)
        scale = max(scale, np.max(np.abs(below)), np.max(np.abs(above)))
        asym = max(asym, np.max(np.abs(below - above)))
    return scale == 0.0 or asym <= SYM_TOL * scale


def norm_spectral_symmetric(m):
    """linalg.norm_spectral of a square matrix up to its general branch:
    the norm of a symmetric m, and None for any other."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("norm_spectral expects a matrix")
    if m.size == 0:
        return 0.0
    p = m.shape[0]
    if p != m.shape[1]:
        check_finite(m)
    else:
        lower, upper = bandwidths(m)
        width = max(lower, upper)
        # only zeros lie off the band: a narrow one is checked on its diagonals
        check_finite(m if SYM_SCAN_RATIO * width > p else
                     np.concatenate([np.diagonal(m, d) for d in range(-width, width + 1)]))
        if _symmetric_within(m, width):
            if BAND_BISECTION_LIMIT * lower * lower <= p ** 3:
                return _band_norm(_lower_band(m, lower))
            lo, hi = _dense_extremes(m)
            return max(-lo, hi)
    return None


def dense_to_band(m, w):
    """The padded row band of width w, gram_band's layout, of a dense symmetric
    matrix m, in O(p w)."""
    p = m.shape[0]
    band = np.zeros((p + w, 2 * w + 1))
    band[:w, w] = 1.0
    rows, offsets = np.indices((p, 2 * w + 1))
    cols = rows + offsets - w
    inside = (cols >= 0) & (cols < p)
    band[w:][inside] = m[rows[inside], cols[inside]]
    return band


def population_coefficients(sigma, k):
    """stats.population_coefficients, fitting dense_to_band of sigma."""
    sigma = linalg._spd_factor(sigma, "covariance matrix")[0]
    linalg._integer("k", k, 0)
    band = dense_to_band(sigma, min(k, sigma.shape[0] - 1))
    ahat, dhat = stats._regress(stats.GramBand(np.inf, band), k)
    return CholeskyFactor(a=ahat, d=dhat)
