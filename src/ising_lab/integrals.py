"""Form-factor terms S_n and the singular probe integral.

The 2n-dimensional integrals live on (0,1)^{2n} with endpoint weights
x^(-1/2)(1-x)^(1/2) on the x axes and y^(1/2)(1-y)^(-1/2)(1-kappa y)^(-1/2)
on the y axes.  The substitution x = sin^2(pi t / 2) absorbs both endpoint
exponents, leaving smooth transformed axes that a single Gauss-Legendre
node set handles for every axis.  Each S_n has two algebraic forms, the
Vandermonde form (Sn2) and the squared Cauchy determinant (Sn1), and each
form has one evaluator on the G-node rule, so comparing them stays an
independent cross-check.  At n = 1 both are the same O(G^2) pair sum.

lint_integral owns the G-node rule of the Vandermonde form, and s_n
evaluates Sn2 through lint_integral.  For n = 2 the rule is
summed by the moment engine at every kappa: 1/(1 - kappa^2 u)^(l+1) is
expanded as a geometric series in u = x1 x2 y1 y2, and each power reduces
to one-dimensional node sums, the moments B_m (_bm_chunk), in O(G^3 M)
instead of the O(G^4) tensor sum.  As m grows, x^(m+1) drives the small
nodes to nothing, and each chunk of moments runs on the nodes left after
dropping the smallest ones whose whole share of B_m is proven below 2^-52
of the sum of the moduli of its terms (_bm_drop): at G = 64, all 64 nodes
at m < 256 and 12 at m = 4096.  The B_m are cached per (kappa, G) and
doubling window of m (_bm_prefix) and shared by every order l, so S_2
and the probe integral at every ell reuse one set.  This is the same
G-node rule summed in another order, not a finer one: the summed rule
agrees with the tensor sum to ~1e-15 relative, and near a resonant
direction (kappa^n approaching the positive real axis) it resolves the
spike no better than the tensor product.
Each single B_m is accurate to rounding too, ~1e-15 relative against the
brute-force tuple sum at G = 12 up to m = 2000: its x side is formed
about the top node, which dominates as m grows and so cannot cancel.
For real kappa the nodes, the moments and the sums are float64.  Past
n = 2 the Vandermonde form is evaluated by importance-sampled Monte Carlo
on squared uniforms, X = V^2 and Y = 1 - W^2, whose densities absorb the
singular endpoint factors x^(-1/2) and (1-y)^(-1/2); the points are
evaluated in fixed chunks (_mc_core), so memory does not grow with the
sample count.

The Cauchy-determinant form is, for every n >= 2, one spectral sum over
the Nystrom matrices A_N of the integral route (_cauchy_sn): by
Andreief's identity its G-node rule is sum_N z_N^n e_n(A_N), the same
rule summed in another order, with its own proven stop.

The integral route of chi_d sums every S_n at once: on the same node rule
the S_n of one separation N add up to one Nystrom determinant
(_nystrom_terms), with no S_n, moment or tensor sum in between.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import numpy.random  # numpy loads it lazily: import it here, not in the first Monte Carlo call

from .errors import ConvergenceError, DomainError, PrecisionWarning
from .params import CouplingK, _tail_bound, _terms_needed

_TINY = 1e-300
_SERIES_M_CAP = 1 << 18
# series tolerance: the series stands in for the plain G-node sum
_GAUSS_RTOL = 1e-14
_NYSTROM_N_CAP = 1 << 14   # most terms of the integral route's sum


@dataclass(frozen=True)
class QuadratureSpec:
    """How to evaluate one of the multiple integrals.

    tensor_gauss means the nodes_per_dim-node Gauss-Legendre rule on every
    axis, at every kappa.  The Vandermonde form (Sn2) takes it for n <= 2
    (dimension 2n <= 4): the pair sum at n = 1, the moment engine at
    n = 2.  The Cauchy-determinant form (Sn1) takes it for every n: the
    pair sum at n = 1, the spectral sum over the Nystrom matrices from
    n = 2 on.
    monte_carlo evaluates the Vandermonde form only, for any n; beyond
    n = 2 it is that form's only route.  It draws x = V^2 and y = 1 - W^2
    from uniforms V, W.  The seed, an integer >= 0, feeds numpy's
    PCG64DXSM generator, which is read in fixed-size chunks, so a given
    (seed, mc_samples, n) triple yields an identical sample stream
    regardless of how callers schedule the work.  An s_n Monte Carlo
    result whose relative standard error exceeds 5% (_MC_TARGET_REL) warns
    with PrecisionWarning.
    """

    method: str = "tensor_gauss"
    nodes_per_dim: int = 64
    mc_samples: int = 200_000
    seed: int = 12345

    def __post_init__(self):
        if self.method not in ("tensor_gauss", "monte_carlo"):
            raise DomainError(f"unknown quadrature method {self.method!r}")
        if self.nodes_per_dim < 2:
            raise DomainError("nodes_per_dim must be >= 2")
        if self.mc_samples < 2:
            raise DomainError("mc_samples must be >= 2")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")

    def check_method(self, n: int):
        """The gate of the Vandermonde form: tensor_gauss only for n <= 2."""
        if self.method == "tensor_gauss" and n > 2:
            raise DomainError(
                "tensor_gauss sums the Vandermonde form only for n <= 2; use "
                f"monte_carlo or form Sn1 for n = {n}"
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

    Real kappa then keeps the node weights, the tensor sum, the moment
    engine and the Monte Carlo samples in float64, as fredholm._det_at does
    for real k.
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


def _prefactor(kappa: complex, n: int) -> complex:
    """kappa^(n(n+1)) / (n!^2 pi^(2n)), the constant of the Vandermonde form.

    From n = 79 the denominator passes the float range and the prefactor,
    whose modulus is then below 6e-309, comes out 0.  From n = 99 n!^2 no
    longer converts to a float; the OverflowError is caught to give the
    same 0, so every n underflows instead of raising.
    """
    try:
        return kappa ** (n * (n + 1)) / (math.factorial(n) ** 2 * math.pi ** (2 * n))
    except OverflowError:
        return 0j


def _tensor_core(kappa: complex, n: int, power: int, G: int):
    """Raw n = 1 integral with resonant exponent `power`: the G x G tensor sum.

    The axis weights already carry the Lambda_1 densities, so this is the
    plain weighted sum of the pair factor U/(1 - kappa U)^(power+2), in
    float64 for real kappa.  At n = 1 both forms reduce to this pair sum;
    every caller passes n = 1.
    """
    W, den = _pair_tables(G, _real(kappa))
    return complex(np.sum(W / den ** power / (den * den)))


@lru_cache(maxsize=16)
def _pair_tables(G: int, kappa: complex):
    """The G x G tables of the n = 1 pair sum, read-only: wx wy^T U and
    1 - kappa U, with U = x x^T.

    Cached per (G, kappa), so a probe that runs every order ell at the
    same kappa builds them once.  An entry holds 2 G^2 numbers, 128 KB at
    G = 64 for complex kappa.
    """
    x, wx, wy = _axis_nodes(G, kappa)
    U = np.outer(x, x)
    W = (wx[:, None] * wy[None, :]) * U
    den = 1.0 - kappa * U
    for arr in (W, den):
        arr.setflags(write=False)
    return W, den


def _refined_nodes(G: int) -> int:
    return int(math.ceil(1.5 * G))


# ---------------------------------------------------------------------------
# Monte Carlo path (any n; the production route for n >= 3)

# samples per Monte Carlo chunk: each chunk is drawn and evaluated whole,
# so the working set stays near cache size and memory is flat in mc_samples
_MC_CHUNK = 8192
# relative standard error above which a Monte Carlo S_n warns; the README's
# 200 000-sample S_3 run reaches 1.3%
_MC_TARGET_REL = 0.05


def _draw_points(rng, m: int, n: int):
    """m points of n coordinates each, X = V^2 and Y = 1 - W^2.

    Returned as (n, m) arrays, one row per coordinate, from one (2, n, m)
    block of uniforms: V in the first plane, W in the second.  X has
    density 1/(2 sqrt(x)) and Y has 1/(2 sqrt(1 - y)), so two uniforms and
    two squarings per coordinate pair, no transcendental call and no
    rejection loop.  Points with a coordinate outside (0, 1) (V = 0 gives
    x = 0, W = 0 gives y = 1) or two coincident coordinates are redrawn;
    redraws continue the same deterministic stream.
    """

    def draw(k):
        V, W = rng.random((2, n, k))
        return V * V, 1.0 - W * W

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


def _mc_group(kappa: complex, n: int) -> int:
    """Coordinates per square root in _mc_smooth: all n at real kappa,
    else at most floor(pi / asin|kappa|) >= 2 (kappa as _real gives it).

    For x in (0, 1), 1 - kappa x lies in the disk of radius |kappa| about
    1, so its argument lies strictly between 0 and asin|kappa|, times the
    sign of -Im kappa, for every x.  The g numerator factors of a group of
    ratios (1 - kappa x_i)/(1 - kappa y_i) add arguments in that range,
    and so do its g denominator factors, so the group's product has
    |arg| < g asin|kappa| <= pi: its principal root is the product of the
    per-coordinate principal roots.  Where pi / asin|kappa| is an integer
    (|kappa| = 1/2), the floor may round it down, never up.
    """
    if not isinstance(kappa, complex):
        return n
    return min(n, math.floor(math.pi / math.asin(abs(kappa))))


def _mc_smooth(kappa: complex, X: np.ndarray, Y: np.ndarray, g: int) -> np.ndarray:
    """prod_i sqrt((1 - kappa x_i)(1 - x_i) y_i / (1 - kappa y_i)) per sample,
    each root on the principal branch, for (n, c) arrays X, Y.

    The positive part is one real root of prod_i (1 - x_i) y_i; the
    complex part one principal root of prod (1 - kappa x_i) / prod
    (1 - kappa y_i) per group of g coordinates (_mc_group says why that
    is exact), so one root and one division per sample at n <= g.
    """
    n = len(X)
    p = (1.0 - X[0]) * Y[0]
    for i in range(1, n):
        p *= (1.0 - X[i]) * Y[i]
    out = np.sqrt(p)
    for s in range(0, n, g):
        num = 1.0 - kappa * X[s]
        den = 1.0 - kappa * Y[s]
        for i in range(s + 1, min(s + g, n)):
            num *= 1.0 - kappa * X[i]
            den *= 1.0 - kappa * Y[i]
        out = out * np.sqrt(num / den)
    return out


def _mc_core(kappa: complex, n: int, power: int, spec: QuadratureSpec):
    """Raw Vandermonde-form integral estimate and standard error by
    importance sampling.

    The proposal densities 1/(2 sqrt(x)) and 1/(2 sqrt(1 - y)) absorb the
    only singular endpoint factors, x^(-1/2) and (1 - y)^(-1/2), exactly;
    each axis contributes the constant 2, restored as a factor 4 per
    coordinate pair.  The bounded remainders sqrt(1 - x) and sqrt(y) join
    the smooth factor of _mc_smooth, prod_i sqrt((1 - kappa x_i)(1 - x_i)
    y_i / (1 - kappa y_i)), principal roots, both 1 - kappa x_i and
    1 - kappa y_i having positive real part.  Every factor is bounded, so
    the estimate is unbiased with finite variance.  The samples are drawn
    and evaluated in chunks of _MC_CHUNK, one stream for the whole run, and
    each chunk's mean and centred sum of squares are merged by Chan's
    pairwise formula, so memory is O(chunk) at any mc_samples.  The
    Vandermonde factor prod_{i<j} (x_j - x_i)(y_j - y_i) is formed in real
    arithmetic, divided by the pair product prod_{i,j} (1 - kappa x_i y_j)
    and only then squared: squared apart, they leave the float range first
    (0/0 at n = 60, kappa = 0.5, where the ratio is a finite 0).  The
    factor 4^n is a power of two, put on u by ldexp before any other
    factor, so it costs no bits and meets the product before it can
    underflow.  From about n = 120 the two products themselves leave the
    float range and a complex-kappa sample comes out 0/0: a chunk with a
    sample that is not finite raises ConvergenceError.
    """
    kappa = _real(kappa)
    rng = np.random.Generator(np.random.PCG64DXSM(spec.seed))
    m = spec.mc_samples
    kn = kappa**n
    g = _mc_group(kappa, n)
    done, mean, m2 = 0, 0j, 0.0
    while done < m:
        c = min(_MC_CHUNK, m - done)
        X, Y = _draw_points(rng, c, n)
        # a sample the checks below find not finite raises, so the
        # warnings of its 0/0 or overflow would only repeat that
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            u = np.prod(X, axis=0) * np.prod(Y, axis=0)
            vals = np.ldexp(u, 2 * n) / (1.0 - kn * u) ** power
            vdm = np.ones(c)
            pair = np.ones(c, dtype=np.result_type(kappa))
            for i in range(n):
                for j in range(n):
                    pair *= 1.0 - kappa * (X[i] * Y[j])
                    if i < j:
                        vdm *= (X[j] - X[i]) * (Y[j] - Y[i])
            core = vdm / pair
            vals = vals * (core * core) * _mc_smooth(kappa, X, Y, g)
        if not np.all(np.isfinite(vals)):
            raise ConvergenceError(
                f"Monte Carlo samples at n={n}, kappa={kappa} are not finite: "
                "the Vandermonde and pair products underflow or overflow "
                "the float range at this n",
                terms=done,
            )
        # Chan et al.: merge this chunk's mean and centred sum of squares
        cmean = vals.mean()
        d = vals - cmean
        total = done + c
        delta = complex(cmean) - mean
        mean += delta * (c / total)
        m2 += float(np.vdot(d, d).real) + abs(delta) ** 2 * (done * c / total)
        done = total
    return mean, math.sqrt(m2 / m) / math.sqrt(m)


# ---------------------------------------------------------------------------
# Moment series for the n = 2 probe integral

# average entries per block of pairs from which _bm_chunk builds its pair
# matrix by blocks rather than by two gathers (at 64 kept nodes and more)
_CC2_BLOCK = 2048
# kept pairs x moments per block of _bm_chunk's moments: 256 KB in float64
_BM_BLOCK = 1 << 15


@lru_cache(maxsize=16)
def _bm_tables(G: int, kappa: complex):
    """The node tables of the moment engine on all G nodes, read-only.

    C^2 with C = 1/(1 - kappa x x^T), log x, (x_a - x_b)^2 and the ratio
    of the smallest to the largest |C|.  Cached per (G, kappa), so
    _bm_drop and every chunk of every window slice them to their kept
    suffix of nodes instead of building them again.  An entry holds about
    2 G^2 numbers, 96 KB at G = 64 for real kappa and 384 KB at G = 128
    for complex kappa; a table evicted is rebuilt in O(G^2).
    """
    x = _axis_nodes(G, kappa)[0]
    C = 1.0 / (1.0 - kappa * np.outer(x, x))
    absC = np.abs(C)
    C2 = C ** 2
    logx = np.log(x)
    d2 = (x[:, None] - x[None, :]) ** 2
    for arr in (C2, logx, d2):
        arr.setflags(write=False)
    return C2, logx, d2, float(absC.min() / absC.max())


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
    node more on the test grid.
    """
    kappa = _real(kappa)
    _, wx, wy = _axis_nodes(G, kappa)
    _, logx, d2, cratio = _bm_tables(G, kappa)
    scale = 2.0**-51 * cratio ** 8
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


def _bm_chunk(kappa: complex, G: int, m0: int, m1: int):
    """B_m for m in [m0, m1) (the u^m moments of the n = 2 non-resonant
    factor) and the number of nodes kept for them.

    Each u^m moment factorizes into one-dimensional node sums
    with f_m(x) = wx x^(m+1) and g_m(y) = wy y^(m+1), and C(x, y) =
    1/(1 - kappa x y).  The Vandermonde numerator is kept, about a shift
    s: with h(x) = C^2(x, y1) C^2(x, y2) and R_k = sum_x (x - s)^k h f_m,
    the x-side double sum carrying (x1 - x2)^2 = ((x1 - s) - (x2 - s))^2
    is 2 (R_0 R_2 - R_1^2).  The matrix CC2[(y1, y2), x] = C^2(x, y1)
    C^2(x, y2) times the columns f_m, (x - s) f_m and (x - s)^2 f_m gives
    the three, one product each.  B_m sums the x side against
    g_m(y1) g_m(y2) (y1 - y2)^2 over y1 < y2, doubled by symmetry.
    Nothing divides by kappa, so small |kappa| loses no digits.
    Everything is BLAS-shaped in the m direction, and in float64 for real
    kappa.

    CC2 is built once per chunk; the moments then run in blocks of at most
    _BM_BLOCK = 2^15 kept pairs x moments (256 KB in float64), but never
    fewer than n moments (n the kept nodes), so no block array is smaller
    than CC2 and a 16-moment window of S_2 stays one block.  Each block
    forms its powers x^(m+1), the three products, the y side and their
    sum, and writes its B_m into the one output array, so the arrays live
    at once are CC2 and a few blocks, whatever the chunk's length.  The
    node tables (C^2, log x, (x_a - x_b)^2) come from _bm_tables.

    The shift is the top node, s = x[-1].  As m grows x^(m+1) lets a few
    top nodes dominate; with s = 0 the difference R_0 R_2 - R_1^2 then
    cancels to about 1e-8 of its terms, but the top node adds nothing to
    R_1 and R_2, so it cannot cancel, and each B_m is accurate to
    rounding: within 1e-13 relative (4e-15 seen) of the brute-force tuple
    sum at G = 12 up to m = 2000, and the same to 1e-14 however the
    moments are chunked or blocked.

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
    C2, logx, d2, _ = _bm_tables(G, kappa)
    C2, logx, d2 = C2[c:, c:], logx[c:], d2[c:, c:]
    d = x - x[-1]
    dd = d * d
    n = len(x)
    i, j = np.triu_indices(n, 1)
    # C2 is symmetric, so row (a, b) of CC2 is C2[a] C2[b], the same
    # product either way: gathered rows i and j, or one broadcast product
    # per block of pairs (a, a+1..), n^2/2 entries a block on average.
    # Past _CC2_BLOCK entries a block the two gathered copies cost more
    # than the n - 1 calls; below it the calls cost more
    if n * n < 2 * _CC2_BLOCK:
        CC2 = C2[i]
        CC2 *= C2[j]
    else:
        CC2 = np.empty((len(i), n), dtype=C2.dtype)
        row = 0
        for a in range(n - 1):
            np.multiply(C2[a], C2[a + 1:], out=CC2[row : row + n - 1 - a])
            row += n - 1 - a
    ywt = wy[i] * wy[j] * d2[i, j]
    out = np.empty(m1 - m0, dtype=np.result_type(CC2, wy))
    # moments a block: _BM_BLOCK entries of pairs x moments, but never
    # fewer than n, so a block's arrays are no smaller than CC2 itself
    step = max(n, _BM_BLOCK // len(i))
    for b0 in range(m0, m1, step):
        b1 = min(m1, b0 + step)
        Xp = np.exp(logx[:, None] * np.arange(b0 + 1, b1 + 1))
        f = wx[:, None] * Xp
        # one product per R_k: one product of the stacked columns
        # [f | d f | d^2 f] measured slower
        xside = CC2 @ f
        xside *= CC2 @ (dd[:, None] * f)
        R1 = CC2 @ (d[:, None] * f)
        R1 *= R1
        xside -= R1
        del R1
        yside = ywt[:, None] * Xp[i]
        yside *= Xp[j]
        out[b0 - m0 : b1 - m0] = np.einsum("pm,pm->m", yside, xside)
    out *= 4.0
    return out, n


@lru_cache(maxsize=128)
def _bm_prefix(kappa: complex, G: int, m0: int, m1: int) -> np.ndarray:
    """B_m for m in [m0, m1) as one read-only array, cached per window.

    _lint_series asks only for the doubling windows [0, 16), [16, 32),
    [32, 64), ... up to 2^18, so each B_m depends on (kappa, G, window)
    alone, and every order ell and call at the same kappa and G reuses the
    windows.  The cache holds at most 128 windows of at most 2^17 moments
    each, 8 bytes per moment for real kappa and 16 for complex.  Reaching
    that bound takes 128 series that each ran to the 2^18 cap; the probes
    stay far below it, under 10 MB: the default smoothness probe holds 56
    windows, and the --radii 4..14 --nodes 96 scan 110 windows of 4.2 MB in
    all.
    A chunk is as long as 256 G(G-1)/2 kept pair x moment entries allow,
    the size of one full-node 256-moment chunk.  The kept count of the
    chunk before sizes the next, since fewer nodes stay as m grows.  The
    chunk length sets only how often _bm_drop and CC2 run, not the memory
    of the kernel, which walks a chunk in bounded blocks of moments
    (_bm_chunk): _bm_prefix(-0.7, 48, 0, 8192) peaks at about 2.3 MB.
    _bm_drop's powers, chunk length x the nodes from its best pairs up,
    are not blocked.  The arrays are float64 for real kappa.
    """
    entries = 256 * (G * (G - 1) // 2)
    parts = []
    kept = G
    while m0 < m1:
        stop = min(m1, m0 + entries // max(G, kept * (kept - 1) // 2))
        bm, kept = _bm_chunk(kappa, G, m0, stop)
        parts.append(bm)
        m0 = stop
    window = np.concatenate(parts)
    window.setflags(write=False)
    return window


def _lint_series(kappa: complex, ell: int, G: int, rtol: float) -> complex:
    """Probe value at order ell via the m expansion (n = 2).

    1/(1 - kappa^2 u)^(ell+1) = sum_m binom(m+ell, ell) (kappa^2 u)^m turns
    the integral into sum_m binom(m+ell, ell) kappa^(2 m) B_m, the
    Vandermonde-form G-node rule summed in another order.  The summed length
    starts at 16 moments (S_2 at |kappa| = 0.5 needs about 23) and doubles
    until the tail estimate drops below rtol relative to the sum, so it
    overshoots the length it needs by at most 2x.  For real kappa the sum
    runs in float64, since kappa^2 > 0.
    """
    k2 = _real(kappa) ** 2
    q = abs(k2)
    if q >= 1.0:
        raise DomainError("|kappa^2| must be < 1")
    total = 0.0
    m0, m1 = 0, 16
    while True:
        bm = _bm_prefix(kappa, G, m0, m1)
        mm = np.arange(m0, m1)
        # at kappa = 0 only the m = 0 term survives (and log 0 is undefined)
        powers = np.exp(mm * np.log(k2)) if q > 0.0 else (mm == 0) * 1.0
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
# The Cauchy-determinant form (Sn1) for n >= 2: one spectral sum over N

# the part of |sum| that the nodes _cauchy_drop leaves out may reach, summed
# over every N
_CAUCHY_DROP_RTOL = 1e-15


def _elementary(lam: np.ndarray, n: int) -> np.ndarray:
    """e_n of each row of lam by the recurrence e_k <- e_k + lam_i e_(k-1)."""
    E = np.zeros((lam.shape[0], n + 1), dtype=lam.dtype)
    E[:, 0] = 1.0
    for i in range(lam.shape[1]):
        k = min(i + 1, n)
        E[:, 1 : k + 1] += lam[:, i : i + 1] * E[:, :k]
    return E[:, n]


def _cauchy_drop(p: np.ndarray, awx: np.ndarray, awy: np.ndarray, slack: float) -> int:
    """How many of the smallest nodes a stack of N, first N0, may drop.

    p holds x^N0 over x_top^N0.  Dropping the t smallest nodes changes the
    term at N by at most H_N (D_f/S_f + D_g/S_g), with D and S the dropped
    and the whole sums of |wx| x^N and |wy| x^N, and H_N the Hadamard bound
    of _cauchy_sn; slack is log(budget_N0 / H_N0).  The count returned fits
    that budget at N0, and so at every later N: the nodes ascend, so the
    dropped shares D/S only fall as N grows, and H_N falls by at least q
    per N, as fast as the budget.  A share that underflows counts as 0.
    """
    Df = np.cumsum(awx * p)
    Dg = np.cumsum(awy * p)
    share = Df[:-1] / Df[-1] + Dg[:-1] / Dg[-1]
    with np.errstate(divide="ignore"):
        # share grows with t, so the counts that fit are a prefix
        return int(np.count_nonzero(np.log(share) <= slack))


def _cauchy_sn(kappa: complex, n: int, G: int):
    """Sn1's S_n for n >= 2 on the G-node rule, as (value, terms, tail).

    With z_N = kappa^(N+1)/pi^2, C = 1/(1 - kappa x x^T) and A_N =
    (diag(wx x^N) C)(diag(wy x^N) C^T), the matrices of _nystrom_terms,
    Andreief's identity gives

        S_n = sum_(N >= 1) z_N^n e_n(A_N),

    the G-node tensor rule of the squared Cauchy determinant with
    u/(1 - kappa^n u) expanded as a geometric series in N: the same rule
    summed in another order.  A_N is similar to B B^T, B = diag(sqrt(wx
    x^N)) C diag(sqrt(wy x^N)).  For real kappa B is real and the
    eigenvalues are its squared singular values, each accurate to eps
    sqrt(lambda_max lambda); for complex kappa they come from
    np.linalg.eigvals of B B^T, accurate to eps lambda_max, which limits
    e_n for n >= 3 (1e-10 relative at n = 3, G = 6, kappa = 0.2 + 0.3i,
    against 4e-14 at real kappa).  e_n of the eigenvalues (z_N folded in) comes
    from the recurrence of _elementary, one formula for every n.  The N run
    in stacks, one batched call per stack: 8 N at first, doubling up to 64
    N and, as the kept nodes thin out, up to 64 G^2 matrix entries, but no
    further than the tail bound below says the stop is.

    The nodes ascend, so the kept nodes are a suffix.  By Hadamard,
    |det C[S, T]|^2 <= n^n cmax^(2n), so the nodes a stack drops
    (_cauchy_drop) change term N by at most H_N (D_f/S_f + D_g/S_g), with
    H_N = |z_N|^n n^n cmax^(2n) S_f^n S_g^n / ((n-1)! n!).  The budget of
    term N is _CAUCHY_DROP_RTOL |sum so far| (1 - q) q^(N-1), so the whole
    dropped part stays below 1e-15 of the running sum (a bound on the final
    sum where the terms share one sign: real kappa and even n, or
    kappa > 0).  Both this budget and the stop below take |sum| as at
    least _TINY, so the first stack keeps all but nodes of no weight, and
    a sum that underflows to 0 (e_n of many tiny eigenvalues) still stops.

    The sum stops by a proven tail.  |e_n(A_N)| <= ||A_N||_*^n / n! <=
    (||diag(wx x^N) C||_F ||diag(wy x^N) C^T||_F)^n / n!, and with |z_N|^n
    this bound T_N falls by at least q = (|kappa| x_top^2)^n per N, so the
    terms past N are at most T_N q/(1 - q).  The sum stops once that is
    at most _GAUSS_RTOL |sum|, and raises ConvergenceError past
    _SERIES_M_CAP terms.  The tail is kept apart from _lint_series's
    estimate: Sn1's terms equal Sn2's moments term by term, and a shared
    stop rule would hide a truncation error from the comparison of the two
    forms.
    """
    kappa = _real(kappa)
    x, wx, wy = _axis_nodes(G, kappa)
    if n > G:
        # a term needs n distinct nodes, so the G-node rule's S_n is exactly 0
        return 0j, 0, 0.0
    C = 1.0 / (1.0 - kappa * np.outer(x, x))
    absC = np.abs(C)
    rows = np.sum(absC * absC, axis=1)
    awx, awy = np.abs(wx), np.abs(wy)
    # x^N is taken over x_top^N on both axes, and z_N carries x_top^(2N)
    logx = np.log(x)
    rel = logx - logx[-1]
    lk = math.log(abs(kappa))
    lq = n * (lk + 2.0 * logx[-1])
    q = math.exp(lq)
    ltail = lq - math.log1p(-q)
    lfact = math.lgamma(n + 1)
    lhad = n * math.log(n) + 2 * n * math.log(absC.max()) - math.lgamma(n) - lfact

    def log_z(N):
        return (N + 1) * lk + 2.0 * N * logx[-1] - 2.0 * math.log(math.pi)

    entries = 64 * G * G
    total, N0, size = 0.0, 1, 8
    while True:
        p = np.exp(N0 * rel)
        lH = n * (log_z(N0) + math.log(awx @ p) + math.log(awy @ p)) + lhad
        lbudget = (math.log(_CAUCHY_DROP_RTOL * max(abs(total), _TINY))
                   + math.log1p(-q) + (N0 - 1) * lq)
        t = _cauchy_drop(p, awx, awy, lbudget - lH)
        Ns = np.arange(N0, N0 + size)
        P = np.exp(Ns[:, None] * rel[t:])
        B = np.sqrt(wx[t:] * P)[:, :, None] * C[t:, t:]
        B *= np.sqrt(wy[t:] * P)[:, None, :]
        if B.dtype.kind == "f":
            lam = np.linalg.svd(B, compute_uv=False) ** 2
        else:
            lam = np.linalg.eigvals(B @ B.transpose(0, 2, 1))
        z = kappa ** (Ns + 1) * np.exp(2.0 * Ns * logx[-1]) / math.pi**2
        total += _elementary(lam * z[:, None], n).sum()
        N0 += size
        # T_N at the last N of the stack, on every node
        p2 = np.exp(2.0 * (N0 - 1) * rel)
        lT = n * (log_z(N0 - 1) + 0.5 * math.log(p2 @ (awx * awx * rows))
                  + 0.5 * math.log(p2 @ (awy * awy * rows))) - lfact
        # the bound falls by q per N, so the stop is about `left` N away
        left = (lT + ltail - math.log(_GAUSS_RTOL * max(abs(total), _TINY))) / -lq
        if left <= 0:
            return complex(total), N0 - 1, math.exp(lT + ltail)
        if N0 > _SERIES_M_CAP:
            raise ConvergenceError(
                f"the Sn1 series did not converge within {_SERIES_M_CAP} terms "
                f"at kappa={kappa}",
                best=total,
                gap=math.exp(min(lT + ltail, 700.0)),
                terms=N0 - 1,
            )
        size = min(2 * size, entries // (G - t) ** 2)
        if left < size:
            size = math.ceil(left)


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
        relative), for n <= 2 only.  Sn1 is the same pair sum at n = 1,
        and for every n >= 2 the spectral sum over the Nystrom matrices
        (_cauchy_sn), with its own proven stop, so the comparison stays an
        independent cross-check.  Monte Carlo evaluates Sn2 only, whose
        samples equal Sn1's pointwise; Sn1 with a monte_carlo spec raises
        DomainError.

    Returns
    -------
    SnResult with a relative error estimate (node refinement gap between
    nodes_per_dim and 1.5 nodes_per_dim for tensor quadrature, standard
    error for Monte Carlo).  Where the prefactor kappa^(n(n+1)) / (n!^2
    pi^(2n)) underflows to 0 (kappa = 0, or n >= 79), the result is
    exactly 0 with error estimate 0, without quadrature, and so is Sn1's
    where n exceeds both node counts.  Any other value that comes out 0
    has underflowed: its error estimate is inf, with one PrecisionWarning.
    """
    kappa = _check_kappa(kappa)
    if n < 1:
        raise DomainError("n must be >= 1")
    if form not in ("Sn1", "Sn2"):
        raise DomainError(f"unknown form {form!r}")
    if form == "Sn2":
        spec.check_method(n)
    elif spec.method == "monte_carlo":
        raise DomainError(
            "the Cauchy-determinant form (Sn1) has no Monte Carlo route; its "
            "samples equal the Vandermonde form's (Sn2) pointwise"
        )
    pref = _prefactor(kappa, n)
    if pref == 0:
        return SnResult(n=n, kappa=kappa, value=0j, rel_error_est=0.0, form=form)
    if spec.method == "tensor_gauss":
        nodes = (spec.nodes_per_dim, _refined_nodes(spec.nodes_per_dim))
        if form == "Sn1" and n > 1:
            # the series carries its own z_N^n
            pref = 1.0
            coarse, fine = (_cauchy_sn(kappa, n, G)[0] for G in nodes)
        else:
            coarse, fine = (
                lint_integral(kappa, n, 0, replace(spec, nodes_per_dim=G))
                for G in nodes
            )
        value = pref * fine
        rel = abs(fine - coarse) / max(abs(fine), _TINY)
        # a term needs n distinct nodes: past the fine rule's node count
        # S_n is exactly 0 on both rules
        exact = form == "Sn1" and n > nodes[1]
    else:
        raw, se = _mc_core(kappa, n, 1, spec)
        value = pref * raw
        rel = se / max(abs(raw), _TINY)
        exact = False
    if value == 0 and not exact:
        warnings.warn(
            f"S_n at n={n}, kappa={kappa} underflows to 0: its {spec.method} "
            "value is below the float range, so its relative error is unknown",
            PrecisionWarning,
            stacklevel=2,
        )
        rel = math.inf
    elif spec.method == "monte_carlo" and rel > _MC_TARGET_REL:
        warnings.warn(
            f"monte carlo standard error {rel:.2e} exceeds target "
            f"{_MC_TARGET_REL:.2e} at n={n}, kappa={kappa}",
            PrecisionWarning,
            stacklevel=2,
        )
    return SnResult(n=n, kappa=kappa, value=value, rel_error_est=rel, form=form)


def _nystrom_terms(kappa: complex, n: int, G: int) -> np.ndarray:
    """det(I - K_N) - 1 for N = 1 .. n on the G-node rule.

    Summed over every order n, the S_n integrals at separation N are one
    Fredholm determinant with the Cauchy kernel (Bornemann, Math. Comp. 79
    (2010) 871).  On the nodes and weights of _axis_nodes it is
    det(I + kappa^(N+1)/pi^2 A_N), with A_N = (diag(wx x^N) C)(diag(wy x^N) C^T)
    and C = 1/(1 - kappa x x^T): one G x G product and determinant per N,
    in float64 for real kappa.  At kappa = 0 every term is exactly 0.
    """
    kappa = _real(kappa)
    x, wx, wy = _axis_nodes(G, kappa)
    C = 1.0 / (1.0 - kappa * np.outer(x, x))
    eye = np.eye(G)
    out = np.empty(n, dtype=C.dtype)
    for N in range(1, n + 1):
        xn = x**N
        A = ((wx * xn)[:, None] * C) @ ((wy * xn)[:, None] * C.T)
        out[N - 1] = np.linalg.det(eye + kappa ** (N + 1) / math.pi**2 * A) - 1.0
    return out


def _s_nystrom_terms(k: CouplingK, tol: float):
    """The integral route's S = sum_N (det(I - K_N) - 1), N = 1 .. n, as
    (S, n, est_error), like fredholm._s_fredholm_terms.

    n = _terms_needed(|k|, tol).  S is taken on the 96-node rule
    (_refined_nodes of the default 64), and est_error is its summed gap to
    the 64-node rule, an estimate, plus the proven _tail_bound past n.  An
    n past _NYSTROM_N_CAP (about 8 s of work) raises ConvergenceError
    before any determinant is formed; a gap above tol or a sum that is not
    finite raises it carrying S.
    """
    a = abs(k.k)
    n = _terms_needed(a, tol)
    if n > _NYSTROM_N_CAP:
        raise ConvergenceError(
            f"the integral route at k={k.k} needs {n} terms, past the cap "
            f"{_NYSTROM_N_CAP}"
        )
    G = QuadratureSpec().nodes_per_dim
    coarse, fine = (_nystrom_terms(k.kappa, n, g) for g in (G, _refined_nodes(G)))
    s = complex(np.sum(fine))
    gap = float(np.sum(np.abs(fine - coarse))) if cmath.isfinite(s) else math.inf
    if not gap <= tol:
        raise ConvergenceError(
            f"the {n} terms of the correlation sum at k={k.k} sum to {s} with "
            f"a node-refinement gap of {gap:.3g}, above tol={tol:.3g}",
            best=s,
            gap=gap,
            terms=n,
        )
    return s, n, gap + _tail_bound(a, n)


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
        raw, _ = _mc_core(kappa, n, ell + 1, spec)
        return raw
    if n == 2:
        return _lint_series(kappa, ell, spec.nodes_per_dim, _GAUSS_RTOL)
    return _tensor_core(kappa, n, ell + 1, spec.nodes_per_dim)

