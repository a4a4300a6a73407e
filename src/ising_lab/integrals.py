"""Form-factor terms S_n and the singular probe integral.

The 2n-dimensional integrals live on (0,1)^{2n} with endpoint weights
x^(-1/2)(1-x)^(1/2) on the x axes and y^(1/2)(1-y)^(-1/2)(1-kappa y)^(-1/2)
on the y axes.  The substitution x = sin^2(pi t / 2) absorbs both endpoint
exponents, leaving smooth transformed axes that a single Gauss-Legendre
node set handles for every axis.  Each S_n has two algebraic forms, the
Vandermonde form (Sn2) and the squared Cauchy determinant (Sn1), and each
form has one evaluator on the G-node rule, so comparing them stays an
independent cross-check.  At n = 1 both are the same O(G^2) pair sum.
Every kernel of the rule reads its nodes, weights and Cauchy kernel C =
1/(1 - kappa x x^T) from one read-only rule per (nodes, kappa)
(_node_rule), which also fixes real kappa to float64: the n = 1 pair sum,
the moment engine and the Nystrom pass.

_lint_orders owns the G-node rule of the Vandermonde form at a ladder of
orders ell, lint_integral is its one-order case, and s_n evaluates Sn2
through lint_integral.  For n = 2 the rule is
summed by the moment engine at every kappa: 1/(1 - kappa^2 u)^(l+1) is
expanded as a geometric series in u = x1 x2 y1 y2, and each power reduces
to one-dimensional node sums, the moments B_m (_bm_chunk), in O(G^3 M)
instead of the O(G^4) tensor sum.  The moments come in the six doubling
windows [0, 16), [16, 32), ..., [256, 512) below m* = 512 (_TAIL_M), one
kernel call a window (_bm_prefix), cached per (kappa, G) and window and
shared by every order l, so S_2 and the probe integral at every ell
reuse one set, and one walk over them sums a whole ladder of orders
(_lint_series).  Each B_m is accurate to rounding, and each window of
them runs on the nodes left after dropping the smallest ones whose share
is proven below rounding (_bm_drop).  No series reads a moment past m*:
on the nodes kept there the rest of the series has a closed form in
1/(1 - kappa^2 u), summed once per (kappa, G) for every order l
(_bm_tail), so the series has no moment cap at any |kappa| < 1.  This
is the same G-node rule summed in another order, not a finer one: the
summed rule agrees with the tensor sum to ~1e-15 relative, and near a
resonant direction (kappa^n approaching the positive real axis) it
resolves the spike no better than the tensor product.  For real kappa
the nodes, the moments and the sums are float64.  Past n = 2 the
Vandermonde form is evaluated by importance-sampled Monte Carlo on
squared uniforms, X = V^2 and Y = 1 - W^2, whose densities absorb the
singular endpoint factors x^(-1/2) and (1-y)^(-1/2); the points are
evaluated in fixed chunks (_mc_core), so memory does not grow with the
sample count.

One pass over the Nystrom matrices A_N (_nystrom_pass) sums both the
Cauchy-determinant form for n >= 2, by Andreief's identity sum_N z_N^n
e_n(A_N) on the G-node rule (_cauchy_sn), and the integral route of
chi_d, the particle expansion on that rule: S_1 in closed form plus the
orders n >= 2 of the Nystrom determinants det(I + z_N A_N) (_s_rule).
Each stops by its own proven tail.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.random  # numpy loads it lazily: import it here, not in the first Monte Carlo call

from .errors import ConvergenceError, DomainError, PrecisionWarning
from .params import CouplingK, magnetization

_TINY = 1e-300
# separations N past which the Nystrom pass raises ConvergenceError
_SERIES_M_CAP = 1 << 18
# series tolerance: the series stands in for the plain G-node sum
_GAUSS_RTOL = 1e-14
# largest nodes_per_dim of a spec, a stated limit: s_n also runs the rule at
# 1.5 times it, and sn --kappa 0.5,0.1 --n 2 --nodes 256 (384 refined) peaks
# at 95-103 MB RSS, the moment engine's pair matrix built in row blocks
_MAX_NODES = 256


@dataclass(frozen=True)
class QuadratureSpec:
    """How to evaluate one of the multiple integrals.

    tensor_gauss means the nodes_per_dim-node Gauss-Legendre rule on every
    axis, at every kappa; nodes_per_dim runs from 2 to _MAX_NODES = 256
    (s_n also evaluates the rule at 1.5 times that).  At 256 the n = 2
    s_n at kappa = 0.5 + 0.1i takes 0.42-0.57 s at 95-103 MB peak RSS on
    one core, most of it the 384-node rule's first moment window.  The
    Vandermonde form (Sn2) takes it for n <= 2 (dimension 2n <= 4): the
    pair sum at n = 1, the moment engine at n = 2.  The Cauchy-determinant
    form (Sn1) takes it for every n: the pair sum at n = 1, the spectral
    sum over the Nystrom matrices from n = 2 on.
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
        if self.nodes_per_dim > _MAX_NODES:
            raise DomainError(f"nodes_per_dim must be <= {_MAX_NODES}")
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


@dataclass(frozen=True, eq=False)
class _NodeRule:
    """The G-node rule at kappa (as _real gives it), every array read-only:
    the nodes x on (0,1), the weights wx = dx Lambda_1(x) and wy = dy /
    Lambda_1(y), the kernel table C = 1/(1 - kappa x x^T), logx = log x,
    d2 = (x_a - x_b)^2 for a < b (0 elsewhere, as no reader looks there),
    and cmin, cmax = min |C|, max |C|.  wx, wy and C are float64 for real
    kappa and complex otherwise."""

    kappa: float | complex
    x: np.ndarray
    wx: np.ndarray
    wy: np.ndarray
    C: np.ndarray
    logx: np.ndarray
    d2: np.ndarray
    cmin: float
    cmax: float


@lru_cache(maxsize=16)
def _node_rule(G: int, kappa: complex) -> _NodeRule:
    """The one G-node rule at kappa that every Gauss kernel reads.

    Both weights are smooth after x = sin^2(pi t / 2): the half-power
    endpoint factors cancel against the substitution Jacobian, and
    sqrt(1 - kappa x) is analytic on the node range because Re(1 - kappa
    x) > 1 - |kappa| > 0.  Cached per (G, kappa), so a float kappa and a
    complex one with imaginary part 0 share one entry: about 2 G^2
    numbers, 64 KB at G = 64 for real kappa and 384 KB at G = 128 for
    complex kappa.
    """
    kappa = _real(kappa)
    t, w = _gauss01(G)
    x = np.sin(np.pi * t / 2.0) ** 2
    root = np.sqrt(1.0 - kappa * x)
    wx = w * np.pi * (1.0 - x) * root
    wy = w * np.pi * x / root
    C = 1.0 / (1.0 - kappa * np.outer(x, x))
    logx = np.log(x)
    d2 = np.triu((x[:, None] - x[None, :]) ** 2, 1)
    for arr in (x, wx, wy, C, logx, d2):
        arr.setflags(write=False)
    absC = np.abs(C)
    return _NodeRule(kappa, x, wx, wy, C, logx, d2, float(absC.min()), float(absC.max()))


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
    plain weighted sum of the pair factor U C^(power+2), U = x x^T, read
    from the rule's C = 1/(1 - kappa U), in float64 for real kappa.
    Complex C is raised as exp((power+2) log C): numpy's complex ** loses
    about power ulps (1.6e-14 relative at kappa = 0.99 e^(0.4i), G = 64,
    power 20, against 3.6e-15 this way).
    At n = 1 both forms reduce to this pair sum; every caller passes n = 1.
    """
    rule = _node_rule(G, kappa)
    C = rule.C
    Cp = C ** (power + 2) if C.dtype.kind == "f" else np.exp((power + 2) * np.log(C))
    return complex((rule.wx * rule.x) @ Cp @ (rule.wy * rule.x))


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
    block of uniforms squared in place: V in the first plane, W in the
    second.  X has density 1/(2 sqrt(x)) and Y has 1/(2 sqrt(1 - y)), so
    two uniforms and two squarings per coordinate pair, no transcendental
    call and no rejection loop.

    Every point is evaluated; none needs a redraw.  The uniforms are
    multiples of 2^-53 in [0, 1 - 2^-53], so X <= (1 - 2^-53)^2 < 1 and
    Y >= 2^-52 > 0 always, and only three edge points occur.  V = 0 gives
    x = 0, so u = 0 and the sample is exactly 0, the limit of integrand
    over density (their ratio carries a factor x).  W <= 2^-27 rounds y
    to 1: every factor of _mc_base and _mc_smooth stays bounded there (no
    1 - y is left in the smooth factor, and 1 - kappa y != 0), and the
    ratio is continuous at y = 1, so y = 1 for 1 - W^2 costs below 2^-54
    relative.  Two equal coordinates make the Vandermonde factor, and so
    the sample, 0: the integrand's value there.  Every denominator, the
    pair products 1 - kappa x y and d = 1 - kappa^n u, has modulus >= 1 -
    |kappa| > 0.
    """
    U = rng.random((2, n, m))
    np.square(U, out=U)
    np.subtract(1.0, U[1], out=U[1])
    return U[0], U[1]


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


class _McWork:
    """The scratch arrays of one Monte Carlo run, sized for its largest
    chunk and reused by every chunk (fit(c) points the rows at the first c
    samples), so that a chunk allocates little besides its uniforms: the
    page faults of fresh chunk-sized temporaries, returned to the system
    as each chunk frees them, cost more than the arithmetic on them.  One
    per run, never shared, so concurrent runs on pool threads do not
    meet.  Complex rows have kappa's dtype (float64 for real kappa, as
    _real gives it).
    """

    def __init__(self, kappa, n: int, c: int):
        dt = np.result_type(kappa)
        self._blocks = np.empty((2, n, c), dtype=dt)
        self._rows = np.empty((5, c), dtype=dt)
        self._real = np.empty((5, c))
        self.fit(c)

    def fit(self, c: int):
        self.oX, self.oY = self._blocks[:, :, :c]
        self.pair, self.num, self.den, self.smooth, self.vals = self._rows[:, :c]
        self.u, self.vdm, self.p, self.r1, self.r2 = self._real[:, :c]


def _principal_root(w: np.ndarray, re: np.ndarray, im: np.ndarray):
    """The principal square root of complex w != 0, in real arithmetic, as
    its real and imaginary parts written to the float64 arrays re and im.

    With t = sqrt((|w| + |Re w|) / 2), the root is (t, Im w / (2 t)) where
    Re w >= +0 and (|Im w| / (2 t), t with the sign of Im w) where Re w <=
    -0: the branch np.sqrt takes, signed zeros of Im w included (at Re w =
    -0 the two forms are the same root to rounding).  |w| comes from np.abs,
    with no hypot call, so the root costs a few real passes where
    np.sqrt's complex root costs several times more; the two agree to
    about one ulp.
    """
    a, b = w.real, w.imag
    np.abs(w, out=re)
    np.abs(a, out=im)
    re += im
    re *= 0.5
    np.sqrt(re, out=re)
    np.add(re, re, out=im)
    np.divide(b, im, out=im)
    neg = np.signbit(a)
    if neg.any():
        t = re[neg]
        re[neg] = np.abs(im[neg])
        im[neg] = np.copysign(t, b[neg])
    return re, im


def _mc_smooth(scale: np.ndarray, X: np.ndarray, Y: np.ndarray, g: int,
               work: _McWork) -> np.ndarray:
    """scale prod_i sqrt((1 - kappa x_i)(1 - x_i) y_i / (1 - kappa y_i)) per
    sample, each root on the principal branch, for (n, c) arrays X, Y with
    work.oX = 1 - kappa X and work.oY = 1 - kappa Y filled in.

    The positive part is one real root of prod_i (1 - x_i) y_i, multiplied
    into the real scale in float64 before it meets a complex factor; the
    complex part one principal root (_principal_root) of prod (1 - kappa
    x_i) / prod (1 - kappa y_i) per group of g coordinates (_mc_group says
    why that is exact), so one root and one division per sample at n <= g.
    The result is a row of work: work.p for real kappa, where every root
    is real, else work.smooth.
    """
    n = len(X)
    p, r1 = work.p, work.r1
    np.subtract(1.0, X[0], out=p)
    p *= Y[0]
    for i in range(1, n):
        np.subtract(1.0, X[i], out=r1)
        r1 *= Y[i]
        p *= r1
    np.sqrt(p, out=p)
    p *= scale
    for s in range(0, n, g):
        num = np.prod(work.oX[s : s + g], axis=0, out=work.num)
        num /= np.prod(work.oY[s : s + g], axis=0, out=work.den)
        if num.dtype.kind == "f":
            p *= np.sqrt(num, out=num)
            continue
        re, im = _principal_root(num, r1, work.r2)
        if s == 0:
            re *= p
            im *= p
            work.smooth.real, work.smooth.imag = re, im
        else:
            work.den.real, work.den.imag = re, im
            work.smooth *= work.den
    return work.smooth if num.dtype.kind == "c" else p


def _mc_base(kappa, n: int, g: int, X: np.ndarray, Y: np.ndarray, work: _McWork):
    """The power-independent part of every sample of a chunk, 4^n u
    vdm^2 / pair^2 times the smooth factor, and d = 1 - kappa^n u, u =
    prod_i x_i y_i, as rows of work: the sample at resonant exponent p is
    base / d^p.

    The Vandermonde factor vdm = prod_{i<j} (x_j - x_i)(y_j - y_i) is
    formed in real arithmetic, divided by the pair product pair =
    prod_{i,j} (1 - kappa x_i y_j) and only then squared: squared apart,
    they leave the float range first (0/0 at n = 60, kappa = 0.5, where
    the ratio is a finite 0).  The factor 4^n is a power of two, put on u
    by ldexp before any other factor, so it costs no bits and meets the
    product before it can underflow; it and the real root of the smooth
    factor are multiplied together in float64 before they meet a complex
    factor.  kappa X is formed once, in work.oX: the pair product reads
    it a row against all of Y at a time (in work.oY), and then it becomes
    1 - kappa X in place for the smooth factor.
    """
    u, vdm, r1, r2, pair = work.u, work.vdm, work.r1, work.r2, work.pair
    kX, T = work.oX, work.oY
    # a sample the caller finds not finite raises, so the warnings of its
    # 0/0 or overflow would only repeat that
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.prod(X, axis=0, out=u)
        u *= np.prod(Y, axis=0, out=r1)
        np.multiply(kappa, X, out=kX)
        vdm.fill(1.0)
        pair.fill(1.0)
        for i in range(n):
            # T[j] = 1 - kappa x_i y_j for every j at once; pair takes
            # the factors one by one in (i, j) order
            np.multiply(kX[i], Y, out=T)
            np.subtract(1.0, T, out=T)
            for j in range(n):
                pair *= T[j]
                if i < j:
                    np.subtract(X[j], X[i], out=r1)
                    r1 *= np.subtract(Y[j], Y[i], out=r2)
                    vdm *= r1
        base = np.divide(vdm, pair, out=pair)
        base *= base
        np.subtract(1.0, kX, out=work.oX)
        np.subtract(1.0, np.multiply(kappa, Y, out=work.oY), out=work.oY)
        base *= _mc_smooth(np.ldexp(u, 2 * n, out=r2), X, Y, g, work)
        d = np.multiply(kappa**n, u, out=work.den)
        np.subtract(1.0, d, out=d)
    return base, d


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
    and evaluated in chunks of _MC_CHUNK, one stream for the whole run,
    every point drawn evaluated (_draw_points says why none is redrawn);
    each chunk's samples are _mc_base's base / d^power (base / d itself at
    power 1), and each chunk's mean and centred sum of squares are merged
    by Chan's pairwise formula, so memory is O(chunk) at any mc_samples.
    From about n = 120 the Vandermonde and pair products leave the float
    range and a complex-kappa sample comes out 0/0: a chunk whose mean is
    not finite, which it is exactly when one of its samples is not (the
    samples are bounded far below overflow of their sum), raises
    ConvergenceError.
    """
    kappa = _real(kappa)
    rng = np.random.Generator(np.random.PCG64DXSM(spec.seed))
    m = spec.mc_samples
    g = _mc_group(kappa, n)
    work = _McWork(kappa, n, min(_MC_CHUNK, m))
    done, mean, m2 = 0, 0j, 0.0
    while done < m:
        c = min(_MC_CHUNK, m - done)
        work.fit(c)
        base, d = _mc_base(kappa, n, g, *_draw_points(rng, c, n), work)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = np.divide(base, d if power == 1 else d**power, out=work.vals)
            cmean = vals.mean()
        if not np.isfinite(cmean):
            raise ConvergenceError(
                f"Monte Carlo samples at n={n}, kappa={kappa} are not finite: "
                "the Vandermonde and pair products underflow or overflow "
                "the float range at this n",
                terms=done,
            )
        # Chan et al.: merge this chunk's mean and centred sum of squares
        vals -= cmean
        total = done + c
        delta = complex(cmean) - mean
        mean += delta * (c / total)
        m2 += float(np.vdot(vals, vals).real) + abs(delta) ** 2 * (done * c / total)
        done = total
    return mean, math.sqrt(m2 / m) / math.sqrt(m)


# ---------------------------------------------------------------------------
# Moment series for the n = 2 probe integral

# average entries per broadcast product past which _pair_products builds
# its pairs by one product per first node rather than by two gathers
_CC2_BLOCK = 2048
# entries of _bm_chunk's pair matrix CC2 past which each moment block builds
# it anew in blocks of pair rows of at most this many entries (4 MB in
# float64): every window at 96 nodes or fewer stays whole, the largest
# being [0, 16) at 96 nodes, 437,760 entries
_CC2_MAX = 1 << 19
# kept pairs x moments per block of _bm_chunk's moments, and y pairs x x
# pairs per block of _tail_table's pairs of pairs: 256 KB in float64
_BM_BLOCK = 1 << 15
# the moment order past which _lint_series reads no moment and adds the rest
# of its series in closed form (_bm_tail); the end of a doubling window.  The
# kept nodes thin out by then (21 of 64, 32 of 96 toward -1), and a switch
# at 256 keeps too many of them to pay
_TAIL_M = 512
# orders k of one tail table: every ell < 8 reads the same one
_TAIL_ORDERS = 8


@lru_cache(maxsize=4)
def _pair_layout(G: int):
    """np.triu_indices(G, 1), the pairs a < b of G nodes, read-only and
    cached per node count: 1.2 MB at G = 384 (s_n's refined rule at 256)."""
    i, j = np.triu_indices(G, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _kept_pairs(G: int, c: int):
    """The pairs a < b of the kept nodes [c:] in np.triu_indices order, as
    indices into the kept nodes.  In that order they are the suffix of
    _pair_layout(G) from c(2G - c - 1)/2, the count of pairs whose first
    node is dropped, shifted by c."""
    i, j = _pair_layout(G)
    start = c * (2 * G - c - 1) // 2
    return i[start:] - c, j[start:] - c


def _pair_products(M: np.ndarray, axis: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """M[a] M[b] along `axis` for the pairs (a, b) = (i[p], j[p]), a run of
    the np.triu_indices order of M.shape[axis] nodes, by two gathers or by
    one broadcast product per first node a, M.size / 2 entries on average
    over all pairs: past _CC2_BLOCK entries a product the gathered copies
    cost more than the products, below it less."""
    if M.size < 2 * _CC2_BLOCK:
        out = np.take(M, i, axis)
        out *= np.take(M, j, axis)
        return out
    n, P = M.shape[axis], len(i)
    out = np.empty(M.shape[:axis] + (P,) + M.shape[axis + 1 :], dtype=M.dtype)
    rows, view = np.moveaxis(M, axis, 0), np.moveaxis(out, axis, 0)
    # the pairs (a, b), (a, b + 1), ... of each first node a in the run
    a, b, k = int(i[0]), int(j[0]), 0
    while k < P:
        m = min(P - k, n - b)
        np.multiply(rows[a], rows[b : b + m], out=view[k : k + m])
        a, b, k = a + 1, a + 2, k + m
    return out


def _drop_sums(kappa: complex, G: int, m: int) -> np.ndarray:
    """The cumulative sums of |wx| x^(m+1) (row 0) and |wy| x^(m+1) (row 1)
    over the ascending nodes: D_x and D_y of _bm_drop for dropping the c
    smallest nodes at column c - 1, S_x and S_y at the last column."""
    rule = _node_rule(G, kappa)
    return np.cumsum(np.abs((rule.wx, rule.wy)) * np.exp(rule.logx * (m + 1)), axis=1)


def _drop_bounds(kappa: complex, G: int, m: int) -> np.ndarray:
    """E_m of _bm_drop for dropping the c smallest nodes, at index c - 1."""
    Dx, Dy = D = _drop_sums(kappa, G, m)
    Sx, Sy = D[:, -1]
    return 2.0 * _node_rule(G, kappa).cmax ** 8 * (Dx * Sx * Sy**2 + Dy * Sy * Sx**2)


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
    summed at every column, at most 258 columns of a window at once.  The
    test is exact at m0 and overstates E_m after it; against the exact
    test at every column it keeps at most one node more on the test grid.
    Both axes run in one pass: row 0 of each table is x, row 1 is y.
    """
    rule = _node_rule(G, kappa)
    logx = rule.logx
    scale = 2.0**-51 * (rule.cmin / rule.cmax) ** 8
    aw = np.abs((rule.wx, rule.wy))
    p = aw * np.exp(logx * (m1 + 2))
    # d2 is 0 on and below the diagonal, so each axis's best entry has a < b
    best = np.argmax((p[:, :, None] * p[:, None, :] * rule.d2).reshape(2, -1), axis=1)
    a, b = np.divmod(best, G)
    t = int(a.min())
    D = _drop_sums(kappa, G, m0)
    axes = (0, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # one row of powers per column m, the nodes from t up: the smallest
        # product over the columns of the axes' R / (bound on S)^2
        Xp = np.exp(np.arange(m0 + 1, m1 + 3)[:, None] * logx[t:])
        K = Xp @ aw[:, t:].T
        r = (aw[axes, a] * aw[axes, b] * rule.d2[a, b] * Xp[:, a - t] * Xp[:, b - t]
             / (K * (D[:, -1] / K[0])) ** 2)
        # E_m / (2 cmax^8) <= S_x^2 S_y^2 (D_x/S_x + D_y/S_y); NaN (all
        # x^(m+1) underflowing) fails the test and keeps every node
        fits = D[0, :t] / D[0, -1] + D[1, :t] / D[1, -1] <= scale * np.min(r[:, 0] * r[:, 1])
    return int(t if fits.all() else np.argmin(fits))


def _bm_chunk(kappa: complex, G: int, m0: int, m1: int) -> np.ndarray:
    """B_m for m in [m0, m1), the u^m moments of the n = 2 non-resonant
    factor; _bm_prefix asks for one doubling window below _TAIL_M a call.

    Each u^m moment factorizes into one-dimensional node sums
    with f_m(x) = wx x^(m+1) and g_m(y) = wy y^(m+1), and C(x, y) =
    1/(1 - kappa x y).  The Vandermonde numerator is kept, about a shift
    s: with h(x) = C^2(x, y1) C^2(x, y2) and R_k = sum_x (x - s)^k h f_m,
    the x-side double sum carrying (x1 - x2)^2 = ((x1 - s) - (x2 - s))^2
    is 2 (R_0 R_2 - R_1^2).  The matrix CC2[(y1, y2), x] = C^2(x, y1)
    C^2(x, y2) (_pair_products) times the columns f_m, (x - s) f_m and
    (x - s)^2 f_m gives the three, one product each.  B_m sums the x side
    against g_m(y1) g_m(y2) (y1 - y2)^2 over y1 < y2, doubled by symmetry.
    Nothing divides by kappa, so small |kappa| loses no digits.
    Everything is BLAS-shaped in the m direction, and in float64 for real
    kappa.

    The moments run in blocks of at most _BM_BLOCK = 2^15 kept pairs x
    moments (256 KB in float64), but never fewer than n moments (n the
    kept nodes), so a 16-moment window of S_2 stays one block.  Each block
    forms its powers x^(m+1), the three products, the y side and their
    sum, and writes its B_m into the one output array.  CC2 has P = n(n -
    1)/2 rows.  Up to _CC2_MAX = 2^19 entries (4 MB in float64), which
    holds every window at G <= 96, it is built once per call and no block
    array is smaller; past it each moment block builds it anew in blocks
    of _CC2_MAX / n rows, whose three products fill those rows of the
    block's x side.  A[rows] @ B equals (A @ B)[rows] bit for bit, so
    every B_m is the same either way, and the arrays live at once are the
    x and y sides of one moment block, P x (its moments) each, and one
    block of CC2, whatever the length of [m0, m1): 33 MB at G = 384 for
    real kappa, against 226 MB for its whole CC2.  C, log x and (x_a -
    x_b)^2 come from _node_rule, sliced to the kept nodes, and the pairs
    from _kept_pairs; the kept block of C is squared once per call.

    The shift is the top node, s = x[-1].  As m grows x^(m+1) lets a few
    top nodes dominate; with s = 0 the difference R_0 R_2 - R_1^2 then
    cancels to about 1e-8 of its terms, but the top node adds nothing to
    R_1 and R_2, so it cannot cancel, and each B_m is accurate to
    rounding: within 1e-13 relative (4e-15 seen) of the brute-force tuple
    sum at G = 12 up to m = 2000, and the same to 1e-14 however [m0, m1)
    is split or blocked.

    The kernel runs on the nodes _bm_drop keeps, on both axes, and the top
    node is always kept.  The part of B_m it leaves out is proven below
    2^-52 of the sum of the moduli of its terms, the scale of the
    rounding error of any double-precision evaluation, so this is the same
    G-node rule to rounding: on the test grid it equals the full-node
    kernel to 1e-15 relative.  At G = 64 the window [0, 16) keeps all 64
    nodes and [256, 512) keeps 25, toward kappa = -1 and at 0.5 alike.
    """
    c = _bm_drop(kappa, G, m0, m1)
    rule = _node_rule(G, kappa)
    x, wx, wy, logx = rule.x[c:], rule.wx[c:], rule.wy[c:], rule.logx[c:]
    C2, d2 = rule.C[c:, c:] ** 2, rule.d2[c:, c:]
    d = x - x[-1]
    dd = d * d
    n = len(x)
    i, j = _kept_pairs(G, c)
    P = len(i)
    # C2 is symmetric, so row (a, b) of CC2 is C2[a] C2[b]: built once up to
    # _CC2_MAX entries, else per moment block in blocks of _CC2_MAX / n rows
    rows = P if P * n <= _CC2_MAX else _CC2_MAX // n
    CC2 = _pair_products(C2, 0, i, j) if rows == P else None
    ywt = wy[i] * wy[j] * d2[i, j]
    out = np.empty(m1 - m0, dtype=np.result_type(C2, wy))
    # moments a block: _BM_BLOCK entries of pairs x moments, but never
    # fewer than n, so a block's arrays are no smaller than a whole CC2
    step = max(n, _BM_BLOCK // P)
    for b0 in range(m0, m1, step):
        b1 = min(m1, b0 + step)
        Xp = np.exp(logx[:, None] * np.arange(b0 + 1, b1 + 1))
        f = wx[:, None] * Xp
        df, ddf = d[:, None] * f, dd[:, None] * f
        xside = np.empty((P, b1 - b0), dtype=out.dtype)
        for r0 in range(0, P, rows):
            A = CC2
            if A is None:
                A = _pair_products(C2, 0, i[r0 : r0 + rows], j[r0 : r0 + rows])
            # one product per R_k: one product of the stacked columns
            # [f | d f | d^2 f] measured slower
            xs = np.matmul(A, f, out=xside[r0 : r0 + rows])
            xs *= A @ ddf
            R1 = A @ df
            R1 *= R1
            xs -= R1
        del A, R1
        # (ywt Xp[i]) Xp[j], with no temporary beyond the two gathers
        yside = np.take(Xp, i, 0).astype(out.dtype, copy=False)
        yside *= ywt[:, None]
        yside *= np.take(Xp, j, 0)
        out[b0 - m0 : b1 - m0] = np.einsum("pm,pm->m", yside, xside)
    out *= 4.0
    return out


@lru_cache(maxsize=128)
def _bm_prefix(kappa: complex, G: int, m0: int, m1: int) -> np.ndarray:
    """B_m for m in [m0, m1) by one _bm_chunk call, read-only, cached per
    window.

    _lint_series asks only for the six doubling windows [0, 16), [16, 32),
    [32, 64), ..., [256, 512) below _TAIL_M, so each B_m depends on
    (kappa, G, window) alone, and every order ell and call at the same
    kappa and G reuses the windows.  A series holds at most six windows,
    512 moments: the cache of 128 windows stays below 0.5 MB at complex
    kappa.  The arrays are float64 for real kappa.
    """
    window = _bm_chunk(kappa, G, m0, m1)
    window.setflags(write=False)
    return window


def _tail_table(kappa: complex, G: int, c: int, orders: int):
    """Phi_k for k < orders on the nodes from c up, and their drop bounds.

    With t = kappa^2 u, every pair term of the moment series from m* =
    _TAIL_M on sums in closed form,

        sum_(m >= m*) binom(m+l, l) t^m
            = t^m* sum_(k=0..l) binom(m*-1+l-k, l-k) (1 - t)^-(k+1),

    so the series past m* is sum_k binom(m*-1+l-k, l-k) Phi_k with Phi_k =
    sum_(p,q) W_pq t_pq^m* (1 - t_pq)^-(k+1) over the kept y pairs p and x
    pairs q, W_pq the pair term of B_0 (_bm_chunk).  The table runs in
    blocks of y pairs of at most _BM_BLOCK entries, so no P x P array is
    held.

    1 - t is formed without cancellation as r -> 1.  Each pair's product
    u_p = e^(lu_p) has e_p = u_p - 1 = expm1(lu_p), lu_p summed from the
    logs of its two nodes, each accurate to rounding.  With s_p = (1 -
    kappa)(1 + kappa)/2 - kappa^2 e_p, 1 - kappa^2 u_p u_q is exactly s_p +
    s_q - kappa^2 e_p e_q, and for real kappa the last term takes at most
    half of the first two, so every digit of 1 - t holds however close
    1 - kappa^2 and 1 - u come to 0.

    drop[k] bounds the change the c dropped nodes make to Phi_k.  That
    change is the sum of W_pq t_pq^m* (1 - t_pq)^-(k+1) over the pairs with
    a dropped node.  Their |W_pq t_pq^m*| sum to at most |kappa|^(2 m*)
    E_m*, E_m the bound of _drop_bounds, and their u_pq are at most rho =
    x_(c-1) x_top^3, so |1 - t_pq| >= d, the distance from 0 to the segment
    1 - kappa^2 [0, rho]: drop[k] = |kappa|^(2 m*) E_m* / d^(k+1).  For real
    kappa d = 1 - kappa^2 rho, and Phi_k and drop are float64.
    """
    rule = _node_rule(G, kappa)
    kappa, logx = rule.kappa, rule.logx
    k2 = kappa * kappa
    drop = np.zeros(orders)
    if c:
        E = _drop_bounds(kappa, G, _TAIL_M)[c - 1]
        rho = math.exp(logx[c - 1] + 3.0 * logx[-1])
        # the point of the segment nearest 0: u = Re(k2)/|k2|^2, clipped
        near = min(max(k2.real / abs(k2) ** 2, 0.0), rho) if k2 else 0.0
        d = abs(1.0 - k2 * near)
        drop = E * abs(kappa) ** (2 * _TAIL_M) / d ** np.arange(1, orders + 1)
    wx, wy, logx = rule.wx[c:], rule.wy[c:], logx[c:]
    C2, d2 = rule.C[c:, c:] ** 2, rule.d2[c:, c:]
    i, j = _kept_pairs(G, c)
    # the weights of the x side, wx x^(m*+1), ride on the columns of CC2
    CC2 = _pair_products(C2, 0, i, j)
    CC2 *= wx * np.exp((_TAIL_M + 1) * logx)
    lu = logx[i] + logx[j]
    e = np.expm1(lu)
    s = 0.5 * (1.0 - kappa) * (1.0 + kappa) - k2 * e
    ke = k2 * e
    # W_pq t_pq^m* = gy_p H_pq d2_q, H_pq = CC2[p, i_q] CC2[p, j_q]
    dq = d2[i, j]
    gy = (4.0 * kappa ** (2 * _TAIL_M)) * wy[i] * wy[j] * dq * np.exp((_TAIL_M + 1) * lu)
    phi = np.zeros(orders, dtype=np.result_type(CC2, gy))
    rows = max(1, _BM_BLOCK // len(i))
    for r0 in range(0, len(i), rows):
        r1 = min(len(i), r0 + rows)
        H = _pair_products(CC2[r0:r1], 1, i, j)
        inv = s[r0:r1, None] + s
        inv -= ke[r0:r1, None] * e
        np.reciprocal(inv, out=inv)
        for k in range(orders):
            H *= inv
            phi[k] += gy[r0:r1] @ (H @ dq)
    return phi, drop


@lru_cache(maxsize=64)
def _bm_tail(kappa: complex, G: int, orders: int):
    """(Phi_k, drop bound) for k < orders (_tail_table), read-only, cached
    per (kappa, G, orders) and shared by every order ell < orders.

    The table runs on the nodes _bm_drop keeps at m* = _TAIL_M when each
    drop bound is within 2^-52 |Phi_k|, the rounding scale of the tail,
    and on all G nodes otherwise (drop bound 0).
    """
    for c in (_bm_drop(kappa, G, _TAIL_M, _TAIL_M), 0):
        phi, drop = _tail_table(kappa, G, c, orders)
        if np.all(drop <= 2.0**-52 * np.abs(phi)):
            break
    for arr in (phi, drop):
        arr.setflags(write=False)
    return phi, drop


@lru_cache(maxsize=64)
def _binom_rows(m0: int, m1: int, top: int) -> np.ndarray:
    """binom(m+e, e) for e = 0..top (rows) and m in [m0, m1) (columns),
    read-only: row e is the running product of (m + l)/l over l = 1..e.

    The rows depend on the window alone, so every kappa and every order of
    _lint_series reads one copy; row e is the same at any top >= e.
    """
    mm = np.arange(m0, m1)
    binom = np.ones((top + 1, m1 - m0))
    for e in range(1, top + 1):
        binom[e] = binom[e - 1] * (mm + e) / e
    binom.setflags(write=False)
    return binom


def _lint_series(kappa: complex, ells, G: int) -> list:
    """Probe values at the orders ells via the m expansion (n = 2), one
    complex per order, in the order given.

    1/(1 - kappa^2 u)^(ell+1) = sum_m binom(m+ell, ell) (kappa^2 u)^m turns
    the integral into sum_m binom(m+ell, ell) kappa^(2 m) B_m, the
    Vandermonde-form G-node rule summed in another order.  The summed length
    starts at 16 moments (S_2 at |kappa| = 0.5 needs about 23) and doubles
    until an order's tail estimate drops below _GAUSS_RTOL of its sum; that
    order's sum then stops, and the walk over the windows stops once every
    order has.  An order that has not stopped by m* = _TAIL_M adds the
    series past m* in closed form on the nodes kept there (_bm_tail), so no
    series reads a moment past m*.  For real kappa the sum runs in float64,
    since kappa^2 > 0.

    Every order reads each window and its powers kappa^(2 m) once, and its
    row of binomials binom(m+ell, ell) from the window's cached table
    (_binom_rows), so each order does the arithmetic of a one-order call
    bit for bit.  The orders still open at m* read one tail table of
    max(_TAIL_ORDERS, ell_max + 1) orders, ell_max the largest of them; for
    ell_max < _TAIL_ORDERS that is the table a one-order call reads, and
    past it a lower order's tail may differ from its one-order call's in
    rounding.  The tail reads binom(m*-1+e, e) from _binom_rows too: inf
    past the float range, which leaves the order's value inf or nan.
    """
    ells = list(ells)
    k2 = _real(kappa) ** 2
    q = abs(k2)
    totals = np.zeros(len(ells), dtype=np.result_type(k2))
    # indices of the orders still summing
    open_ = list(range(len(ells)))
    m0, m1 = 0, 16
    while open_ and m0 < _TAIL_M:
        bm = _bm_prefix(kappa, G, m0, m1)
        mm = np.arange(m0, m1)
        # at kappa = 0 only the m = 0 term survives (and log 0 is undefined)
        powers = np.exp(mm * np.log(k2)) if q > 0.0 else (mm == 0) * 1.0
        binom = _binom_rows(m0, m1, max(ells[i] for i in open_))
        # one row of terms per open order; a row's sum is the 1-D sum's
        t = powers * bm * binom[[ells[i] for i in open_]]
        totals[open_] += t.sum(axis=1)
        still = []
        for row, i in enumerate(open_):
            ratio = q * (1.0 + ells[i] / max(1.0, float(mm[-1])))
            if ratio < 1.0:
                tail = abs(t[row, -1]) * ratio / (1.0 - ratio)
                if tail <= _GAUSS_RTOL * max(abs(totals[i]), _TINY):
                    continue
            still.append(i)
        open_ = still
        m0, m1 = m1, 2 * m1
    if open_:
        top = max(ells[i] for i in open_)
        phi = _bm_tail(kappa, G, max(_TAIL_ORDERS, top + 1))[0]
        coef = _binom_rows(_TAIL_M - 1, _TAIL_M, top)[:, 0]
        for i in open_:
            ell = ells[i]
            # binom(m* - 1 + ell - k, ell - k) for k = 0..ell
            totals[i] += np.dot(coef[ell::-1], phi[: ell + 1])
    return [complex(t) for t in totals]


# ---------------------------------------------------------------------------
# The Nystrom pass: Sn1 for n >= 2 and the integral route of chi_d

# the share of a pass's target that the nodes _cauchy_drop leaves out may
# take, summed over every N; the proven tail past the stop takes the rest
_DROP_SHARE = 0.1


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
    of _nystrom_pass; slack is log(budget_N0 / H_N0).  The count returned fits
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


def _nystrom_pass(kappa: complex, G: int, n: int, target, reduce):
    """sum_(N >= 1) of reduce's terms on the G-node rule, as (sum, N, tail,
    drop): N where it stopped, and proven bounds on the terms past N and on
    the change the dropped nodes made.  kappa must not be 0.

    With z_N = kappa^(N+1)/pi^2 and C = 1/(1 - kappa x x^T), det(I + z_N
    A_N) = sum_m z_N^m e_m(A_N), A_N = (diag(wx x^N) C)(diag(wy x^N) C^T),
    is the Fredholm determinant of the Cauchy kernel on the G-node rule
    (Bornemann, Math. Comp. 79 (2010) 871); by Andreief's identity its
    order m is the rule of S_m at separation N.  A_N is similar to B B^T,
    B = diag(sqrt(wx x^N)) C diag(sqrt(wy x^N)), and reduce(B, z) maps a
    stack of them to the orders m >= n of each N.  A stack holds 8 N,
    doubling up to 64 N and, as the kept nodes thin out, to 64 G^2
    entries, but no further than the tail bound says the stop is.

    target(s) is the error the pass may leave, given the sum s so far.  By
    Hadamard and m^m/m! <= e^m, dropping nodes (_cauchy_drop) changes the
    orders m >= n of term N by at most H_N (D_f/S_f + D_g/S_g), H_N = (e
    u)^n e^(e u)/(n-1)!, u = |z_N| cmax^2 S_f S_g, and term N may drop
    _DROP_SHARE target(s) (1 - q) q^(N-1), q = (|kappa| x_top^2)^n; drop
    sums that budget over the stacks that dropped.  As |z_N^m e_m(A_N)| <=
    t_N^m/m!, t_N = |z_N| ||diag(wx x^N) C||_F ||diag(wy x^N) C^T||_F, the
    orders m >= n of term N are at most T_N = t_N^n e^(t_N)/n!.  H_N and
    T_N fall by at least q per N, so the terms past N are at most T_N q/(1
    - q), and the sum stops once that is within the rest of target(s).
    Past _SERIES_M_CAP terms it raises ConvergenceError with the sum so far.
    """
    rule = _node_rule(G, kappa)
    kappa, wx, wy, C, logx = rule.kappa, rule.wx, rule.wy, rule.C, rule.logx
    rows = np.sum(np.abs(C) ** 2, axis=1)
    awx, awy = np.abs(wx), np.abs(wy)
    # x^N is taken over x_top^N on both axes, and z_N carries x_top^(2N)
    rel = logx - logx[-1]
    # log |z_N| = lz + N lr, and H_N and T_N fall by q = e^(n lr) per N
    lz, lr = math.log(abs(kappa) / math.pi**2), math.log(abs(kappa)) + 2.0 * logx[-1]
    lq = n * lr
    q = math.exp(lq)
    ltail = lq - math.log1p(-q)
    l2c = 2.0 * math.log(rule.cmax)
    total, drop, N0, size, t = 0.0, 0.0, 1, 4, 0
    while True:
        # T_N at N0 - 1, the last N summed, on every node
        p2 = np.exp(2.0 * (N0 - 1) * rel)
        lt = lz + (N0 - 1) * lr + 0.5 * math.log(
            (p2 @ (awx * awx * rows)) * (p2 @ (awy * awy * rows)))
        lT = n * lt + math.exp(lt) - math.lgamma(n + 1)
        # the bound falls by q per N, so the stop is about `left` N away
        left = (lT + ltail - math.log((1.0 - _DROP_SHARE) * target(total))) / -lq
        if not left > 0:
            return total, N0 - 1, math.exp(lT + ltail), drop
        if N0 > _SERIES_M_CAP:
            raise ConvergenceError(f"the Nystrom pass did not converge within {_SERIES_M_CAP} "
                                   f"terms at kappa={kappa}", best=total, terms=N0 - 1,
                                   gap=math.exp(min(lT + ltail, 700.0)) + drop)
        size = min(2 * size, 64 * G * G // (G - t) ** 2, math.ceil(left))
        p = np.exp(N0 * rel)
        leu = 1.0 + lz + N0 * lr + l2c + math.log((awx @ p) * (awy @ p))
        lH = n * leu + math.exp(leu) - math.lgamma(n)
        lbudget = math.log(_DROP_SHARE * target(total) * (1.0 - q)) + (N0 - 1) * lq
        t = _cauchy_drop(p, awx, awy, lbudget - lH)
        if t:
            drop += math.exp(lbudget) * (1.0 - q**size) / (1.0 - q)
        Ns = np.arange(N0, N0 + size)
        P = np.exp(Ns[:, None] * rel[t:])
        B = np.sqrt(wx[t:] * P)[:, :, None] * C[t:, t:]
        B *= np.sqrt(wy[t:] * P)[:, None, :]
        z = kappa ** (Ns + 1) * np.exp(2.0 * Ns * logx[-1]) / math.pi**2
        total += reduce(B, z).sum()
        N0 += size


def _cauchy_sn(kappa: complex, n: int, G: int):
    """Sn1's S_n for n >= 2 on the G-node rule, as (value, terms, tail).

    Its rule, with u/(1 - kappa^n u) expanded in N, is sum_N z_N^n
    e_n(A_N): one _nystrom_pass, held to max(_GAUSS_RTOL |sum so far|,
    _TINY) and apart from _lint_series's stop, so a truncation error shows
    between the two forms.  The eigenvalues of B B^T are, for real kappa,
    B's squared singular values, each accurate to eps sqrt(lambda_max
    lambda); for complex kappa np.linalg.eigvals gives them to eps
    lambda_max, which limits e_n for n >= 3 (1e-10 relative at n = 3,
    G = 6, kappa = 0.2 + 0.3i).
    """
    if n > G:
        # a term needs n distinct nodes, so the G-node rule's S_n is exactly 0
        return 0j, 0, 0.0

    def e_n(B, z):
        if B.dtype.kind == "f":
            lam = np.linalg.svd(B, compute_uv=False) ** 2
        else:
            lam = np.linalg.eigvals(B @ B.transpose(0, 2, 1))
        return _elementary(lam * z[:, None], n)

    value, terms, tail, _ = _nystrom_pass(
        kappa, G, n, lambda s: max(_GAUSS_RTOL * abs(s), _TINY), e_n)
    return complex(value), terms, tail


def _det_terms(B: np.ndarray, z: np.ndarray) -> np.ndarray:
    """det(I + z_N A_N) - 1 - z_N tr A_N for each N of a stack: the orders
    n >= 2 of the Nystrom determinant, by one batched det of z_N A_N + I
    formed in place."""
    A = B @ B.transpose(0, 2, 1)
    A *= z[:, None, None]
    tr = np.trace(A, axis1=1, axis2=2)
    A += np.eye(B.shape[1])
    return np.linalg.det(A) - 1.0 - tr


def _s_rule(kappa: complex, G: int, tol: float):
    """The integral route's S = S_1 + R on the G-node rule, as (S, N,
    error).  S_1 = kappa^2/pi^2 sum_ab wx_a wy_b U_ab C_ab^3, U = x x^T,
    is the order z_N tr A_N summed over every N in closed form; R is one
    _nystrom_pass of _det_terms held to tol/2.  error is that pass's proven
    tail + drop plus an estimate of the rounding of its terms.

    Each pivot of the LU of I + z_N A_N is 1 + z_N (A_N)_ii plus smaller
    terms, rounded to about eps, but by no more than |z_N (A_N)_ii| where
    that is below eps (the pivot then rounds to 1).  Subtracting 1 - z_N tr
    A_N keeps those errors whole, so term N is off by about sum_i min(eps,
    |z_N (A_N)_ii|); the estimate is twice that, summed over every N.  On
    96 nodes at k = 0.5, 0.9 and 0.99 it is 20 times the summed error of
    the terms against the orders n >= 2 summed from A_N's eigenvalues, and
    at least the error of each single term.
    """
    rule = _node_rule(G, kappa)
    x, C = rule.x, rule.C
    s1 = rule.kappa**2 / math.pi**2 * ((rule.wx * x) @ (C * C * C) @ (rule.wy * x))
    rounding = 0.0

    def terms(B, z):
        nonlocal rounding
        # |z_N (A_N)_ii|, A_N = B B^T
        diag = np.abs(z[:, None] * np.einsum("nij,nij->ni", B, B))
        rounding += 2.0 * float(np.minimum(2.0**-52, diag).sum())
        return _det_terms(B, z)

    try:
        r, n, tail, drop = _nystrom_pass(kappa, G, 2, lambda s: tol / 2.0, terms)
    except ConvergenceError as exc:
        exc.best += s1
        exc.gap += rounding
        raise
    return complex(s1 + r), n, tail + drop + rounding


def _s_nystrom_terms(k: CouplingK, tol: float):
    """The integral route's S = sum_N (det(I - K_N) - 1) = sum_n S_n, as
    (S, N, est_error): S from _s_rule on 96 nodes (_refined_nodes of 64),
    N where its pass stopped, est_error the error of _s_rule (proven bounds
    of at most tol/2 plus a rounding estimate) plus the gap |S_96 - S_64|,
    an estimate.  A gap above tol in beta^-1 chi_d = 1 + M^2 (2 S - 1), or
    a sum that is not finite, raises ConvergenceError carrying S and
    est_error.  At kappa = 0 S is 0.
    """
    if k.kappa == 0:
        return 0.0, 0, 0.0
    G = QuadratureSpec().nodes_per_dim
    (s, n, err), (coarse, _, _) = (_s_rule(k.kappa, g, tol) for g in (_refined_nodes(G), G))
    gap = abs(s - coarse) if cmath.isfinite(s - coarse) else math.inf
    chi_gap = 2.0 * abs(magnetization(k)) ** 2 * gap
    if not chi_gap <= tol:
        raise ConvergenceError(
            f"the integral route at k={k.value} stopped at N = {n} with a "
            f"node-refinement gap of {chi_gap:.3g} in chi_d, above tol={tol:.3g}",
            best=s, gap=gap + err, terms=n,
        )
    return s, n, gap + err


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
            # the refined rule may pass _MAX_NODES, so it takes no spec
            coarse = lint_integral(kappa, n, 0, spec)
            fine = _gauss_orders(kappa, n, (0,), nodes[1])[0]
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


def lint_integral(kappa: complex, n: int, ell: int, spec: QuadratureSpec) -> complex:
    """The probe integral: S_n integrand with first-factor power ell+1.

    At ell = 0 this is exactly the Vandermonde-form S_n integral without
    its constant prefactor, and for n = 2 it shares cached moments with
    s_n at equal (kappa, G).  It is the one-order case of _lint_orders,
    the only place that picks how the Vandermonde-form rule is evaluated;
    resonant points are not a special case:

    * spec.method == "monte_carlo": Monte Carlo.
    * Otherwise the nodes_per_dim-node Gauss rule at every kappa: for
      n = 2 summed by the moment series to relative tolerance 1e-14, for
      n = 1 by the O(G^2) tensor sum.  The moments run on fewer nodes as
      m grows, dropping only nodes whose share of B_m is proven below
      2^-52 of its terms' moduli: the same G-node rule to rounding.

    The series reads at most 512 moments and adds the rest in closed form,
    so no moment cap binds at n = 2 at any |kappa| < 1: the ray toward -1
    runs to r = 1 - 2^-18 and beyond.  Near that ray's end the G-node rule
    itself limits the accuracy: G = 64 is within 2e-13 relative of G = 96
    and 128 up to r = 1 - 2^-10, then 1.5e-10 at 2^-11, 2.4e-9 at 2^-12,
    ~2e-8 at 2^-13 and ~1.3e-7 at 2^-14, so use 96 nodes past 2^-10.
    Past the float range (ell = 200 at r = 1 - 2^-7) the value is inf or
    nan, which radial_scan and smoothness_probe refuse.
    """
    return _lint_orders(kappa, n, (ell,), spec)[0]


def _lint_orders(kappa: complex, n: int, ells, spec: QuadratureSpec) -> list:
    """The probe integral of lint_integral at every order of ells, one
    complex per order, in the order given.

    For n = 2 on the Gauss rule one _lint_series walk serves every order,
    each order's value equal to its one-order call's; n = 1 and Monte
    Carlo evaluate each order by itself, Monte Carlo drawing one stream
    per order.
    """
    kappa = _check_kappa(kappa)
    ells = tuple(ells)
    if n < 1:
        raise DomainError("n must be >= 1")
    if any(ell < 0 for ell in ells):
        raise DomainError("ell must be >= 0")
    if 1.0 - abs(kappa) ** n < 1e-6:
        warnings.warn(
            f"evaluating within 1e-6 of the resonant boundary at "
            f"kappa={kappa}, n={n}: double precision digits are limited",
            PrecisionWarning,
            stacklevel=3,
        )
    spec.check_method(n)
    if spec.method == "monte_carlo":
        return [_mc_core(kappa, n, ell + 1, spec)[0] for ell in ells]
    return _gauss_orders(kappa, n, ells, spec.nodes_per_dim)


def _gauss_orders(kappa: complex, n: int, ells, G: int) -> list:
    """The Vandermonde form's G-node rule at the orders ells, n <= 2: one
    moment series walk at n = 2, the tensor sum per order at n = 1."""
    if n == 2:
        # the scans refuse a value past the float range: numpy's warnings would repeat it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return _lint_series(kappa, ells, G)
    return [_tensor_core(kappa, n, ell + 1, G) for ell in ells]
