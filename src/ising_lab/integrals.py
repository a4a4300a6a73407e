"""Form-factor terms S_n and the singular probe integral.

The 2n-dimensional integrals live on (0,1)^{2n} with endpoint weights
x^(-1/2)(1-x)^(1/2) on the x axes and y^(1/2)(1-y)^(-1/2)(1-kappa y)^(-1/2)
on the y axes.  The substitution x = sin^2(pi t / 2) absorbs both endpoint
exponents, leaving smooth transformed axes that a single Gauss-Legendre
node set handles for every axis.  Dimensions beyond four (n >= 3) switch
to importance-sampled Monte Carlo on squared uniforms, X = V^2 and
Y = 1 - W^2, whose densities absorb the singular endpoint factors
x^(-1/2) and (1-y)^(-1/2); the points are evaluated in fixed chunks
(_mc_core), so memory does not grow with the sample count.

lint_integral owns the G-node rule of the Vandermonde form (Sn2), and s_n
evaluates it through lint_integral.  For n = 2 the rule is
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
For real kappa the nodes, the moments and the sums are float64.  n = 1
keeps its O(G^2) tensor sum.  The Cauchy-determinant form (Sn1) keeps the
pointwise tensor sum (_tensor_core), so comparing the two forms stays an
independent cross-check.

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

    tensor_gauss is accepted only for n <= 2 (dimension 2n <= 4);
    monte_carlo works for any n and is the only route beyond n = 2.
    tensor_gauss means the nodes_per_dim-node Gauss-Legendre rule on every
    axis, at every kappa; for n = 2 the Vandermonde form is summed by the
    moment engine and the Cauchy-determinant form by the pointwise tensor
    sum.
    monte_carlo draws x = V^2 and y = 1 - W^2 from uniforms V, W.  The
    seed feeds a counter-based generator that is read in fixed-size
    chunks, so a given (seed, mc_samples, n) triple yields an identical
    sample stream regardless of how callers schedule the work.  An s_n
    Monte Carlo result whose relative standard error exceeds 5%
    (_MC_TARGET_REL) warns with PrecisionWarning.
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


def _prefactor(kappa: complex, n: int, form: str) -> complex:
    # form is "Sn2" or "Sn1": s_n validates it
    power = n * (n + 1) if form == "Sn2" else 2 * n
    return kappa**power / (math.factorial(n) ** 2 * math.pi ** (2 * n))


def _tensor_core(kappa: complex, n: int, power: int, G: int):
    """Raw 2n-dimensional Cauchy-form integral with resonant exponent `power`.

    The axis weights already carry the Lambda_1 densities, so this is the
    plain weighted tensor sum of the remaining smooth factor, in float64
    for real kappa.  For n = 1 the two forms reduce to the same pair factor
    1/den^2; for n = 2 the factor is the squared Cauchy determinant (Sn1).
    Every caller passes n <= 2, having run QuadratureSpec.check_method.
    """
    kappa = _real(kappa)
    x, wx, wy = _axis_nodes(G, kappa)
    if n == 1:
        U = np.outer(x, x)
        den = 1.0 - kappa * U
        val = np.sum((wx[:, None] * wy[None, :]) * U / den ** power / (den * den))
        return complex(val)
    kn = kappa * kappa
    X2 = x[:, None, None]
    Y1 = x[None, :, None]
    Y2 = x[None, None, :]
    W = wx[:, None, None] * wy[None, :, None] * wy[None, None, :]
    total = 0.0 + 0.0j
    for a in range(G):
        x1 = x[a]
        u = (x1 * X2) * (Y1 * Y2)
        first = u / (1.0 - kn * u) ** power
        c11 = 1.0 / (1.0 - kappa * x1 * Y1)
        c12 = 1.0 / (1.0 - kappa * x1 * Y2)
        c21 = 1.0 / (1.0 - kappa * X2 * Y1)
        c22 = 1.0 / (1.0 - kappa * X2 * Y2)
        det = c11 * c22 - c12 * c21
        total += wx[a] * np.sum(W * first * (det * det))
    return complex(total)


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


def _mc_core(kappa: complex, n: int, power: int, spec: QuadratureSpec, form: str):
    """Raw integral estimate and standard error by importance sampling.

    The proposal densities 1/(2 sqrt(x)) and 1/(2 sqrt(1 - y)) absorb the
    only singular endpoint factors, x^(-1/2) and (1 - y)^(-1/2), exactly;
    each axis contributes the constant 2, restored here as 4^n.  The
    bounded remainders sqrt(1 - x) and sqrt(y) join the smooth factor,
    prod_i sqrt((1 - kappa x_i)(1 - x_i) y_i / (1 - kappa y_i)): since
    (1 - x_i) y_i > 0, this is the ratio of the root products
    sqrt(1 - kappa x_i) sqrt(1 - x_i) sqrt(y_i) / sqrt(1 - kappa y_i) on
    the principal branch, both 1 - kappa x_i and 1 - kappa y_i having
    positive real part.  Every factor is bounded, so the estimate is
    unbiased with finite variance.  The samples are drawn and evaluated
    in chunks of _MC_CHUNK, one stream for the whole run, and
    each chunk's mean and centred sum of squares are merged by Chan's
    pairwise formula, so memory is O(chunk) at any mc_samples.  Sn2 forms
    the Vandermonde factor prod_{i<j} (x_j - x_i)(y_j - y_i) in real
    arithmetic, divides it by the pair product prod_{i,j} (1 - kappa x_i
    y_j) and squares the ratio; Sn1 takes the Cauchy determinant of each
    chunk's (chunk, n, n) matrices from the same draws.
    """
    kappa = _real(kappa)
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
            pair = np.ones(c, dtype=np.result_type(kappa))
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
            r = (1.0 - kappa * X[i]) * ((1.0 - X[i]) * Y[i])
            vals *= np.sqrt(r / (1.0 - kappa * Y[i]))
        # Chan et al.: merge this chunk's mean and centred sum of squares
        cmean = vals.mean()
        d = vals - cmean
        total = done + c
        delta = complex(cmean) - mean
        mean += delta * (c / total)
        m2 += float(np.vdot(d, d).real) + abs(delta) ** 2 * (done * c / total)
        done = total
    scale = 4.0**n
    se = math.sqrt(m2 / m) / math.sqrt(m)
    return mean * scale, se * scale


# ---------------------------------------------------------------------------
# Moment series for the n = 2 probe integral

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
    return 4.0 * np.einsum("pm,pm->m", yside, xside), len(x)


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
    A chunk is as long as 256 G(G-1)/2 array entries allow, the size of
    one full-node 256-moment chunk: the kernel holds at most three arrays
    of kept pairs x chunk entries and the node selection up to G x chunk.
    The kept count of the chunk before sizes the next, since fewer nodes
    stay as m grows.  The arrays are float64 for real kappa.
    """
    # ~35 MB per complex array at G = 128, half that for real kappa
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
            coarse, fine = (_tensor_core(kappa, n, 1, G) for G in nodes)
        value = pref * fine
        rel = abs(fine - coarse) / max(abs(fine), _TINY)
    else:
        raw, se = _mc_core(kappa, n, 1, spec, form)
        value = pref * raw
        rel = se / max(abs(raw), _TINY)
        if rel > _MC_TARGET_REL:
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
        raw, _ = _mc_core(kappa, n, ell + 1, spec, "Sn2")
        return raw
    if n == 2:
        return _lint_series(kappa, ell, spec.nodes_per_dim, _GAUSS_RTOL)
    return _tensor_core(kappa, n, ell + 1, spec.nodes_per_dim)

