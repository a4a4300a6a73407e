"""Form-factor terms S_n and the singular probe integral.

The 2n-dimensional integrals live on (0,1)^{2n} with endpoint weights
x^(-1/2)(1-x)^(1/2) on the x axes and y^(1/2)(1-y)^(-1/2)(1-kappa y)^(-1/2)
on the y axes.  The substitution x = sin^2(pi t / 2) absorbs both endpoint
exponents, leaving smooth transformed axes that a single Gauss-Legendre
node set handles for every axis.  Dimensions beyond four (n >= 3) switch
to importance-sampled Monte Carlo with Beta-distributed coordinates, drawn
from uniforms alone and evaluated in fixed chunks (_mc_core), so memory
does not grow with the sample count.

lint_integral owns the G-node rule of the Vandermonde form (Sn2), and s_n
evaluates it through lint_integral.  For n = 2 the rule is
summed by the moment engine at every kappa: 1/(1 - kappa^2 u)^(l+1) is
expanded as a geometric series in u = x1 x2 y1 y2, and each power reduces
to one-dimensional node sums, the moments B_m (_bm_chunk), in O(G^3 M)
instead of the O(G^4) tensor sum.  As m grows, x^(m+1) drives the small
nodes to nothing, and each chunk of moments runs on the nodes left after
dropping the smallest ones whose whole share of B_m is proven below 2^-52
of the sum of the moduli of its terms (_bm_drop): at G = 64, all 64 nodes
at m < 256 and 12 at m = 4096.  The B_m are cached per (kappa, n, G)
and shared by every order l, so S_2 and the probe integral at every ell
reuse one set.  This is the same G-node rule summed in another order, not
a finer one: the summed rule agrees with the tensor sum to ~1e-15
relative, and near a resonant direction (kappa^n approaching the positive
real axis) it resolves the spike no better than the tensor product.
Each single B_m is accurate to rounding too, ~1e-15 relative against the
brute-force tuple sum at G = 12 up to m = 2000: its x side is formed
about the top node, which dominates as m grows and so cannot cancel.
For real kappa the nodes, the moments and the sums are float64.  n = 1
keeps its O(G^2) tensor sum.  The Cauchy-determinant form (Sn1) keeps the
pointwise tensor sum (_tensor_core), so comparing the two forms stays an
independent cross-check.
"""
from __future__ import annotations

import cmath
import math
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import numpy.random  # numpy loads it lazily: import it here, not in the first Monte Carlo call

from .errors import ConvergenceError, DomainError, PrecisionWarning

_TINY = 1e-300
_SERIES_M_CAP = 1 << 18
# series tolerance: the series stands in for the plain G-node sum
_GAUSS_RTOL = 1e-14


@dataclass(frozen=True)
class QuadratureSpec:
    """How to evaluate one of the multiple integrals.

    tensor_gauss is accepted only for n <= 2 (dimension 2n <= 4);
    monte_carlo works for any n and is the only route beyond n = 2.
    tensor_gauss means the nodes_per_dim-node Gauss-Legendre rule on every
    axis, at every kappa; for n = 2 the Vandermonde form is summed by the
    moment engine and the Cauchy-determinant form by the pointwise tensor
    sum.
    The seed feeds a counter-based generator that is read in fixed-size
    chunks, so a given (seed, mc_samples, n) triple yields an identical
    sample stream regardless of how callers schedule the work.
    """

    method: str = "tensor_gauss"
    nodes_per_dim: int = 64
    mc_samples: int = 200_000
    seed: int = 12345
    target_rel_error: float = 1e-9

    def __post_init__(self):
        if self.method not in ("tensor_gauss", "monte_carlo"):
            raise DomainError(f"unknown quadrature method {self.method!r}")
        if self.nodes_per_dim < 2:
            raise DomainError("nodes_per_dim must be >= 2")
        if self.mc_samples < 2:
            raise DomainError("mc_samples must be >= 2")
        if not self.target_rel_error > 0:
            raise DomainError("target_rel_error must be positive")

    def check_method(self, n: int):
        if self.method == "tensor_gauss" and n > 2:
            raise DomainError(
                "tensor_gauss is limited to n <= 2; use monte_carlo for "
                f"n = {n}"
            )


@dataclass(frozen=True)
class SnResult:
    n: int
    kappa: complex
    value: complex
    rel_error_est: float
    form: str


def _check_kappa(kappa: complex) -> complex:
    kappa = complex(kappa)
    if not cmath.isfinite(kappa):
        raise DomainError(f"kappa must be finite, got {kappa}")
    if abs(kappa) >= 1:
        raise DomainError(f"|kappa| must be < 1, got {abs(kappa):.6g}")
    return kappa


@lru_cache(maxsize=32)
def _gauss01(G: int):
    t, w = np.polynomial.legendre.leggauss(G)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _real(kappa: complex):
    """kappa as a float when its imaginary part is exactly 0, else as is.

    Real kappa then keeps the node weights, the tensor sum and the moment
    engine in float64, as fredholm._det_at does for real k.
    """
    return kappa.real if kappa.imag == 0.0 else kappa


@lru_cache(maxsize=64)
def _axis_nodes(G: int, kappa: complex):
    """Nodes on (0,1) plus weights with the axis densities folded in.

    wx carries dx * Lambda_1(x); wy carries dy / Lambda_1(y).  Both are
    smooth after x = sin^2(pi t / 2): the half-power endpoint factors
    cancel against the substitution Jacobian, and sqrt(1 - kappa x) is
    analytic on the node range because Re(1 - kappa x) > 1 - |kappa| > 0.
    The weights are float64 for real kappa and complex otherwise.
    """
    t, w = _gauss01(G)
    s2 = np.sin(np.pi * t / 2.0) ** 2
    c2 = 1.0 - s2
    root = np.sqrt(1.0 - _real(kappa) * s2)
    wx = w * np.pi * c2 * root
    wy = w * np.pi * s2 / root
    for arr in (s2, wx, wy):
        arr.setflags(write=False)
    return s2, wx, wy


def _prefactor(kappa: complex, n: int, form: str) -> complex:
    if form == "Sn2":
        return kappa ** (n * (n + 1)) / (math.factorial(n) ** 2 * math.pi ** (2 * n))
    if form == "Sn1":
        return kappa ** (2 * n) / (math.factorial(n) ** 2 * math.pi ** (2 * n))
    raise DomainError(f"unknown form {form!r}")


def _tensor_core(kappa: complex, n: int, power: int, G: int, form: str = "Sn2"):
    """Raw 2n-dimensional integral with resonant exponent `power`.

    The axis weights already carry the Lambda_1 densities, so this is the
    plain weighted tensor sum of the remaining smooth factor, in float64
    for real kappa.
    """
    kappa = _real(kappa)
    x, wx, wy = _axis_nodes(G, kappa)
    if n == 1:
        # for n = 1 both forms reduce to the same pair factor 1/den^2
        U = np.outer(x, x)
        den = 1.0 - kappa * U
        val = np.sum((wx[:, None] * wy[None, :]) * U / den ** power / (den * den))
        return complex(val)
    if n != 2:
        raise DomainError("tensor_gauss is limited to n <= 2")
    kn = kappa * kappa
    X2 = x[:, None, None]
    Y1 = x[None, :, None]
    Y2 = x[None, None, :]
    W = wx[:, None, None] * wy[None, :, None] * wy[None, None, :]
    yy = (Y2 - Y1) ** 2
    total = 0.0 + 0.0j
    for a in range(G):
        x1 = x[a]
        u = (x1 * X2) * (Y1 * Y2)
        first = u / (1.0 - kn * u) ** power
        if form == "Sn2":
            num = (X2 - x1) ** 2 * yy
            den = (1.0 - kappa * x1 * Y1) * (1.0 - kappa * x1 * Y2)
            den = den * (1.0 - kappa * X2 * Y1)
            den = den * (1.0 - kappa * X2 * Y2)
            core = num / (den * den)
        else:
            c11 = 1.0 / (1.0 - kappa * x1 * Y1)
            c12 = 1.0 / (1.0 - kappa * x1 * Y2)
            c21 = 1.0 / (1.0 - kappa * X2 * Y1)
            c22 = 1.0 / (1.0 - kappa * X2 * Y2)
            det = c11 * c22 - c12 * c21
            core = det * det
        total += wx[a] * np.sum(W * first * core)
    return complex(total)


def _refined_nodes(G: int) -> int:
    return int(math.ceil(1.5 * G))


# ---------------------------------------------------------------------------
# Monte Carlo path (any n; the production route for n >= 3)

# samples per Monte Carlo chunk: each chunk is drawn and evaluated whole,
# so the working set stays near cache size and memory is flat in mc_samples
_MC_CHUNK = 8192


def _draw_points(rng, m: int, n: int):
    """m points of n coordinates each, X ~ Beta(1/2, 3/2), Y ~ Beta(3/2, 1/2).

    Returned as (n, m) arrays, one row per coordinate.  X = U cos^2(pi V)
    with U, V uniform: cos^2(pi V) has the arcsine law Beta(1/2, 1/2), and
    Beta(1/2, 1/2) Beta(1, 1) = Beta(1/2, 3/2) for independent factors.
    Y = 1 - U' cos^2(pi V') likewise: four uniforms per coordinate pair
    and no rejection loop.  Points with a coordinate outside (0, 1) (U = 0
    is possible) or two coincident coordinates are redrawn; redraws
    continue the same deterministic stream.
    """

    def draw(k):
        U = rng.random((4, n, k))
        c = np.cos(np.pi * U[1])
        X = U[0] * (c * c)
        c = np.cos(np.pi * U[3])
        return X, 1.0 - U[2] * (c * c)

    X, Y = draw(m)
    for _ in range(100):
        bad = np.any((X <= 0.0) | (X >= 1.0) | (Y <= 0.0) | (Y >= 1.0), axis=0)
        for i in range(n):
            for j in range(i + 1, n):
                bad |= (X[i] == X[j]) | (Y[i] == Y[j])
        cnt = int(np.count_nonzero(bad))
        if cnt == 0:
            break
        X[:, bad], Y[:, bad] = draw(cnt)
    return X, Y


def _mc_core(kappa: complex, n: int, power: int, spec: QuadratureSpec, form: str):
    """Raw integral estimate and standard error by importance sampling.

    The Beta(1/2, 3/2) and Beta(3/2, 1/2) proposal densities absorb the
    endpoint weights exactly; each axis contributes the Beta normalization
    pi/2, restored here as (pi/2)^(2n).  The samples are drawn and
    evaluated in chunks of _MC_CHUNK, one stream for the whole run, and
    each chunk's mean and centred sum of squares are merged by Chan's
    pairwise formula, so memory is O(chunk) at any mc_samples.  Sn2 forms
    the Vandermonde factor prod_{i<j} (x_j - x_i)(y_j - y_i) in real
    arithmetic, divides it by the pair product prod_{i,j} (1 - kappa x_i
    y_j) and squares the ratio; Sn1 takes the Cauchy determinant of each
    chunk's (chunk, n, n) matrices from the same draws.  The smooth factor
    is prod_i sqrt((1 - kappa x_i)/(1 - kappa y_i)), equal to the ratio of
    the two root products since both have positive real part.
    """
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    m = spec.mc_samples
    kn = kappa**n
    done, mean, m2 = 0, 0j, 0.0
    while done < m:
        c = min(_MC_CHUNK, m - done)
        X, Y = _draw_points(rng, c, n)
        u = np.prod(X, axis=0) * np.prod(Y, axis=0)
        vals = u / (1.0 - kn * u) ** power
        if form == "Sn2":
            vdm = np.ones(c)
            pair = np.ones(c, dtype=complex)
            for i in range(n):
                for j in range(n):
                    pair *= 1.0 - kappa * (X[i] * Y[j])
                    if i < j:
                        vdm *= (X[j] - X[i]) * (Y[j] - Y[i])
            core = vdm / pair
        else:
            A = 1.0 - kappa * (X.T[:, :, None] * Y.T[:, None, :])
            core = np.linalg.det(1.0 / A)
        vals = vals * (core * core)
        for i in range(n):
            vals *= np.sqrt((1.0 - kappa * X[i]) / (1.0 - kappa * Y[i]))
        # Chan et al.: merge this chunk's mean and centred sum of squares
        cmean = complex(vals.mean())
        d = vals - cmean
        total = done + c
        delta = cmean - mean
        mean += delta * (c / total)
        m2 += float(np.vdot(d, d).real) + abs(delta) ** 2 * (done * c / total)
        done = total
    scale = (math.pi / 2.0) ** (2 * n)
    se = math.sqrt(m2 / m) / math.sqrt(m)
    return mean * scale, se * scale


# ---------------------------------------------------------------------------
# Moment series for the n = 2 probe integral

_BM_LOCK = threading.Lock()
_BM_CACHE: OrderedDict = OrderedDict()
# total moments kept (8 bytes each for real kappa, 16 for complex): the
# README ray j = 4..10 stores 32512, S_2 at kappa = 0.5 stores 16 per node
# count, and one series reaches at most 2^18
_BM_CACHE_MOMENTS = 1 << 18


@lru_cache(maxsize=64)
def _bm_drop(kappa: complex, G: int, m0: int, m1: int) -> int:
    """How many of the smallest nodes _bm_chunk drops for m in [m0, m1).

    The nodes ascend, and the same nodes leave both axes.  Write
    p_x(a) = |wx_a| x_a^(m+1) and p_y(a) = |wy_a| x_a^(m+1); S_x, S_y for
    their sums over all nodes and D_x, D_y over the dropped ones; cmax and
    cmin for the largest and smallest |C| on the grid.  Every tuple term
    of B_m is at most cmax^8 p_x(a) p_x(b) p_y(i) p_y(j) in modulus, so
    dropping changes B_m by at most

        E_m = 2 cmax^8 (D_x S_x S_y^2 + D_y S_y S_x^2).

    A kept x pair (a, b) and y pair (i, j) give four tuple terms, so the
    sum T_m of all term moduli, the rounding scale of any evaluation of
    B_m, is at least

        R_m = 4 cmin^8 p_x(a) p_x(b) (x_a - x_b)^2 p_y(i) p_y(j) (x_i - x_j)^2.

    The count returned keeps E_m <= 2^-52 R_m at every column m0..m1+1,
    with the pairs that are best at column m1+1, and stops below both
    pairs, so at least two nodes stay.  The test costs O(G^2 + (G - t)
    (m1 - m0)), t the lower pair node: for any split of ascending nodes
    the shares D/S and S/K (K: the sum from node t up) only fall as m
    grows, so both are read at column m0, and only the nodes from t up are
    summed at every column.  The test is exact at m0 and overstates E_m
    after it; against the exact test at every column it keeps at most one
    node more on the test grid.  Cached so that _bm_prefix reads the count
    of the chunk it has just computed.
    """
    kappa = _real(kappa)
    x, wx, wy = _axis_nodes(G, kappa)
    absC = np.abs(1.0 / (1.0 - kappa * np.outer(x, x)))
    scale = 2.0**-51 * (absC.min() / absC.max()) ** 8
    logx = np.log(x)
    d2 = (x[:, None] - x[None, :]) ** 2
    first = np.exp(logx * (m0 + 1))
    last = np.exp(logx * (m1 + 2))

    def best_pair(w):
        p = np.abs(w) * last
        return np.unravel_index(np.argmax(np.triu(np.outer(p, p) * d2, 1)), (G, G))

    (a, b), (i, j) = best_pair(wx), best_pair(wy)
    t = min(a, i)
    # one row per column m, the nodes from t up
    Xp = np.exp(np.arange(m0 + 1, m1 + 3)[:, None] * logx[t:])

    def shares(w, a, b):
        """Dropped share D/S at m0 per count 1..t; R / (bound on S)^2 per column."""
        w = np.abs(w)
        D = np.cumsum(w * first)
        K = Xp @ w[t:]
        R = w[a] * w[b] * d2[a, b] * Xp[:, a - t] * Xp[:, b - t]
        return D[:t] / D[-1], R / (K * (D[-1] / K[0])) ** 2

    with np.errstate(divide="ignore", invalid="ignore"):
        hx, rx = shares(wx, a, b)
        hy, ry = shares(wy, i, j)
        # E_m / (2 cmax^8) <= S_x^2 S_y^2 (hx + hy); NaN (all x^(m+1)
        # underflowing) fails the test and keeps every node
        fits = hx + hy <= scale * np.min(rx * ry)
    return int(t if fits.all() else np.argmin(fits))


def _bm_chunk(kappa: complex, n: int, G: int, m0: int, m1: int) -> np.ndarray:
    """B_m for m in [m0, m1): the u^m moments of the non-resonant factor.

    n = 2 only.  Each u^m moment factorizes into one-dimensional node sums
    with f_m(x) = wx x^(m+1) and g_m(y) = wy y^(m+1), and C(x, y) =
    1/(1 - kappa x y).  The Vandermonde numerator is kept, about a shift
    s: with h(x) = C^2(x, y1) C^2(x, y2) and R_k = sum_x (x - s)^k h f_m,
    the x-side double sum carrying (x1 - x2)^2 = ((x1 - s) - (x2 - s))^2
    is 2 (R_0 R_2 - R_1^2).  The matrix CC2[(y1, y2), x] = C^2(x, y1)
    C^2(x, y2) times the columns f_m, (x - s) f_m and (x - s)^2 f_m gives
    the three, one product each, which keeps at most three pairs x chunk
    arrays live at once.  B_m sums the x side against
    g_m(y1) g_m(y2) (y1 - y2)^2 over y1 < y2, doubled by symmetry.
    Nothing divides by kappa, so small |kappa| loses no digits.
    Everything is BLAS-shaped in the m direction, and in float64 for real
    kappa.

    The shift is the top node, s = x[-1].  As m grows x^(m+1) lets a few
    top nodes dominate; with s = 0 the difference R_0 R_2 - R_1^2 then
    cancels to about 1e-8 of its terms, but the top node adds nothing to
    R_1 and R_2, so it cannot cancel, and each B_m is accurate to
    rounding: within 1e-13 relative (4e-15 seen) of the brute-force tuple
    sum at G = 12 up to m = 2000, and the same to 1e-14 however the
    moments are chunked.

    The kernel runs on the nodes _bm_drop keeps, on both axes, and the top
    node is always kept.  The part of B_m it leaves out is proven below
    2^-52 of the sum of the moduli of its terms, the scale of the
    rounding error of any double-precision evaluation, so this is the same
    G-node rule to rounding: on the test grid it equals the full-node
    kernel to 1e-15 relative.  A 256-moment chunk keeps all 64 nodes of
    G = 64 at m = 0, 25 at m = 256 and 12 at m = 4096.
    """
    c = _bm_drop(kappa, G, m0, m1)
    kappa = _real(kappa)
    x, wx, wy = (v[c:] for v in _axis_nodes(G, kappa))
    C2 = (1.0 / (1.0 - kappa * np.outer(x, x))) ** 2
    d = x - x[-1]
    Xp = np.exp(np.log(x)[:, None] * np.arange(m0 + 1, m1 + 1))
    f = wx[:, None] * Xp
    i, j = np.triu_indices(len(x), 1)
    # C2 is symmetric, so its rows i, j give CC2 with one gathered copy
    CC2 = C2[i]
    CC2 *= C2[j]
    # one product per R_k: at most three pairs x chunk arrays live at once
    xside = CC2 @ f
    xside *= CC2 @ ((d * d)[:, None] * f)
    R1 = CC2 @ (d[:, None] * f)
    R1 *= R1
    xside -= R1
    del R1
    yside = (wy[i] * wy[j] * (x[i] - x[j]) ** 2)[:, None] * Xp[i]
    yside *= Xp[j]
    return 4.0 * np.einsum("pm,pm->m", yside, xside)


def _bm_prefix(kappa: complex, n: int, G: int, upto: int) -> np.ndarray:
    """Cached B_m array covering m = 0..upto-1, extended on demand.

    Keys are evicted least recently used first once the cache holds more
    than _BM_CACHE_MOMENTS moments; the key just stored always stays.
    A chunk is as long as 256 G(G-1)/2 array entries allow, the size of
    one full-node 256-moment chunk: the kernel holds at most three arrays
    of kept pairs x chunk entries and the node selection up to G x chunk.
    The kept count of the chunk before sizes the next, since fewer nodes
    stay as m grows.  The arrays are float64 for real kappa.
    """
    key = (kappa, n, G)
    with _BM_LOCK:
        have = _BM_CACHE.get(key)
        if have is not None:
            _BM_CACHE.move_to_end(key)
    if have is not None and len(have) >= upto:
        return have
    start = 0 if have is None else len(have)
    parts = [] if have is None else [have]
    # ~35 MB per complex array at G = 128, half that for real kappa
    entries = 256 * (G * (G - 1) // 2)
    kept = G
    m0 = start
    while m0 < upto:
        m1 = min(upto, m0 + entries // max(G, kept * (kept - 1) // 2))
        parts.append(_bm_chunk(kappa, n, G, m0, m1))
        kept = G - _bm_drop(kappa, G, m0, m1)
        m0 = m1
    full = np.concatenate(parts)
    with _BM_LOCK:
        _BM_CACHE[key] = full
        _BM_CACHE.move_to_end(key)
        stored = sum(len(v) for v in _BM_CACHE.values())
        while stored > _BM_CACHE_MOMENTS and len(_BM_CACHE) > 1:
            stored -= len(_BM_CACHE.popitem(last=False)[1])
    return full


def _lint_series(kappa: complex, n: int, ell: int, G: int, rtol: float) -> complex:
    """Probe value at order ell via the m expansion (n = 2).

    1/(1 - kappa^n u)^(ell+1) = sum_m binom(m+ell, ell) (kappa^n u)^m turns
    the integral into sum_m binom(m+ell, ell) kappa^(n m) B_m, the same
    G-node rule as _tensor_core summed in another order.  The summed length
    starts at 16 moments (S_2 at |kappa| = 0.5 needs about 23) and doubles
    until the tail estimate drops below rtol relative to the sum, so it
    overshoots the length it needs by at most 2x.  For real kappa the sum
    runs in float64, since kappa^2 > 0.
    """
    kn = _real(kappa) ** n
    q = abs(kn)
    if q >= 1.0:
        raise DomainError("|kappa^n| must be < 1")
    total = 0.0
    m0, m1 = 0, 16
    while True:
        bm = _bm_prefix(kappa, n, G, m1)[m0:m1]
        mm = np.arange(m0, m1)
        # at kappa = 0 only the m = 0 term survives (and log 0 is undefined)
        powers = np.exp(mm * np.log(kn)) if q > 0.0 else (mm == 0) * 1.0
        # binom(m+ell, ell) as a running product over l = 1..ell
        binom = np.ones(m1 - m0)
        for e in range(1, ell + 1):
            binom = binom * (mm + e) / e
        t = powers * bm * binom
        total += t.sum()
        ratio = q * (1.0 + ell / max(1.0, float(mm[-1])))
        if ratio < 1.0:
            tail = abs(t[-1]) * ratio / (1.0 - ratio)
            if tail <= rtol * max(abs(total), _TINY):
                return complex(total)
        if m1 >= _SERIES_M_CAP:
            raise ConvergenceError(
                f"moment series did not converge within {_SERIES_M_CAP} terms "
                f"at kappa={kappa}",
                best=complex(total),
                gap=rtol,
            )
        m0, m1 = m1, min(2 * m1, _SERIES_M_CAP)


# ---------------------------------------------------------------------------
# Public operations

def s_n(kappa: complex, n: int, spec: QuadratureSpec, form: str = "Sn2") -> SnResult:
    """One form-factor term S_n.

    Parameters
    ----------
    kappa : complex, |kappa| < 1
    n : int, >= 1
    spec : QuadratureSpec
    form : {"Sn2", "Sn1"}
        Vandermonde form (default) or Cauchy-determinant form.  The two
        must agree within combined error estimates.  With tensor_gauss,
        Sn2 is lint_integral at ell = 0 (for n = 2 the moment engine: the
        same node rule as the tensor sum, series truncated at 1e-14
        relative), while Sn1 evaluates the Cauchy determinant pointwise in
        the tensor sum, so the comparison stays an independent cross-check.

    Returns
    -------
    SnResult with a relative error estimate (node refinement gap between
    nodes_per_dim and 1.5 nodes_per_dim for tensor quadrature, standard
    error for Monte Carlo).  At kappa = 0 the prefactor vanishes and the
    result is exactly 0 with error estimate 0, without quadrature.
    """
    kappa = _check_kappa(kappa)
    if n < 1:
        raise DomainError("n must be >= 1")
    if form not in ("Sn1", "Sn2"):
        raise DomainError(f"unknown form {form!r}")
    spec.check_method(n)
    if kappa == 0:
        # the prefactor vanishes; no quadrature needed
        return SnResult(n=n, kappa=kappa, value=0j, rel_error_est=0.0, form=form)
    pref = _prefactor(kappa, n, form)
    if spec.method == "tensor_gauss":
        nodes = (spec.nodes_per_dim, _refined_nodes(spec.nodes_per_dim))
        if form == "Sn2":
            coarse, fine = (
                lint_integral(kappa, n, 0, replace(spec, nodes_per_dim=G))
                for G in nodes
            )
        else:
            coarse, fine = (_tensor_core(kappa, n, 1, G, form) for G in nodes)
        value = pref * fine
        rel = abs(fine - coarse) / max(abs(fine), _TINY)
    else:
        raw, se = _mc_core(kappa, n, 1, spec, form)
        value = pref * raw
        rel = se / max(abs(raw), _TINY)
        if rel > spec.target_rel_error:
            warnings.warn(
                f"monte carlo standard error {rel:.2e} exceeds target "
                f"{spec.target_rel_error:.2e} at n={n}, kappa={kappa}",
                PrecisionWarning,
                stacklevel=2,
            )
    value = _realify(value, kappa)
    return SnResult(n=n, kappa=kappa, value=value, rel_error_est=rel, form=form)


def _realify(value: complex, kappa: complex):
    """Collapse numerically-real results for real kappa in [0, 1)."""
    if kappa.imag == 0.0 and kappa.real >= 0.0:
        if abs(value.imag) <= 1e-12 * max(1.0, abs(value)):
            return complex(value.real, 0.0)
    return value


def _sn_sum(kappa: complex, n_max: int, spec: QuadratureSpec):
    """Sum of S_n for n <= n_max, its summed error estimate and dropped tail.

    Returns (total, sum of rel_error_est * |S_n|, tail), where the tail
    estimate is |S_{n_max}| * |kappa|^(2(n_max+1)).
    """
    total = 0.0 + 0.0j
    err = 0.0
    for n in range(1, n_max + 1):
        last = s_n(kappa, n, spec)
        total += last.value
        err += last.rel_error_est * abs(last.value)
    tail = abs(last.value) * abs(kappa) ** (2 * (n_max + 1))
    return total, err, tail


def lint_integral(kappa: complex, n: int, ell: int, spec: QuadratureSpec) -> complex:
    """The probe integral: S_n integrand with first-factor power ell+1.

    At ell = 0 this is exactly the Vandermonde-form S_n integral without
    its constant prefactor, and for n = 2 it shares cached moments with
    s_n at equal (kappa, G).  This is the only place that picks how the
    Vandermonde-form rule is evaluated, and resonant points are not a
    special case:

    * spec.method == "monte_carlo": Monte Carlo.
    * Otherwise the nodes_per_dim-node Gauss rule at every kappa: for
      n = 2 summed by the moment series to relative tolerance 1e-14, for
      n = 1 by the O(G^2) tensor sum.  The moments run on fewer nodes as
      m grows, dropping only nodes whose share of B_m is proven below
      2^-52 of its terms' moduli: the same G-node rule to rounding.

    The series needs more moments as |kappa^2| -> 1 and raises
    ConvergenceError past 2^18 of them; the ray toward -1 reaches
    r = 1 - 2^-14.  Near that ray's end the G-node rule itself limits the
    accuracy: G = 64 is within 2e-13 relative of G = 96 and 128 up to
    r = 1 - 2^-10, then 1.5e-10 at 2^-11, 2.4e-9 at 2^-12, ~2e-8 at 2^-13
    and ~1.3e-7 at 2^-14, so use 96 nodes past 2^-10.
    """
    kappa = _check_kappa(kappa)
    if n < 1:
        raise DomainError("n must be >= 1")
    if ell < 0:
        raise DomainError("ell must be >= 0")
    if 1.0 - abs(kappa) ** n < 1e-6:
        warnings.warn(
            f"evaluating within 1e-6 of the resonant boundary at "
            f"kappa={kappa}, n={n}: double precision digits are limited",
            PrecisionWarning,
            stacklevel=2,
        )
    spec.check_method(n)
    if spec.method == "monte_carlo":
        raw, _ = _mc_core(kappa, n, ell + 1, spec, "Sn2")
        return raw
    if n == 2:
        return _lint_series(kappa, 2, ell, spec.nodes_per_dim, _GAUSS_RTOL)
    return _tensor_core(kappa, n, ell + 1, spec.nodes_per_dim, "Sn2")

