"""Standard-normal math kernels and discretization of latent risk factors.

The default model treats each systemic risk factor as a standard normal
variable truncated at +-bound_sigmas and discretized onto a qubit grid of
2**n_z equally spaced points, a FactorGrid.  The conditional default probability
of an obligor given factor realizations z = (z_1, ..., z_R) is

    PD(z) = F((F^-1(p0) - sqrt(rho) * sum_i alpha_i z_i) / sqrt(1 - rho))

where F is the standard normal CDF, p0 the unconditional anchor probability,
rho the factor sensitivity and alpha_i the per-factor weights.
conditional_pd_table is its one evaluator, on each obligor's F^-1(p0) from
Portfolio.obligors: one F call for all obligors per block of 2**16 realizations.

F and the seed of F^-1 are ports of S. L. Moshier's Cephes erfc (ndtr.c) and
ndtri (ndtri.c), the algorithms behind scipy.special's erfc and ndtri: the
same rational approximations, each polynomial evaluated by Horner in the C
code's order and every exp taken from libm (math.exp), so both return scipy's
doubles bit for bit without importing it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_SQRT2 = float(np.sqrt(2.0))
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))
_PD_BLOCK_ROWS = 1 << 16      # leading rows of z that conditional_pd_table evaluates at once

# Cephes ndtr.c: erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= |x| < 8 and
# exp(-x^2) R(x)/S(x) past 8; erf(x) = x T(x^2)/U(x^2) for |x| < 1.  Q, S and U lead
# with the coefficient 1 that Cephes's p1evl leaves implicit: Horner's 1.0 * x is x.
_MAXLOG = 7.09782712893383996732e2      # ln(DBL_MAX); exp(-x^2) underflows past it
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)

# Cephes ndtri.c: P0/Q0 for |y - 1/2| <= 3/8, then in t = sqrt(-2 ln y) P1/Q1 for
# t < 8 and P2/Q2 past it; each Q leads with its implicit 1, as above.
_S2PI = 2.50662827463100050242e0        # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189        # exp(-2)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Cephes polevl: sum coef[i] x^(N-i) by Horner, on a float or an array."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def erfc_array(a: np.ndarray) -> np.ndarray:
    """The one erfc (Cephes erfc), elementwise over a float array or numpy scalar.

    Each branch's polynomials run vectorized on its elements; exp runs one
    element at a time through libm, since numpy's vector exp rounds otherwise.
    """
    x = np.abs(a)
    out = np.where(a < 0.0, 2.0, 0.0)          # the limits erfc underflows to
    small = x < 1.0
    s = a[small]
    z = s * s
    out[small] = 1.0 - s * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    # Past |a| = 27, a^2 > _MAXLOG and the limit stands.
    for sel, p, q in (((x >= 1.0) & (x < 8.0), _ERFC_P, _ERFC_Q),
                      ((x >= 8.0) & (x < 27.0), _ERFC_R, _ERFC_S)):
        if not sel.any():           # skipped: numpy's per-call cost dominates small arrays
            continue
        t, xt = a[sel], x[sel]
        z = -t * t
        y = np.fromiter(map(math.exp, z.tolist()), float, t.size) * _polevl(xt, p) / _polevl(xt, q)
        y[z < -_MAXLOG] = 0.0
        out[sel] = np.where(t < 0.0, 2.0 - y, y)
    return out


def ndtri(y0: float) -> float:
    """Inverse standard normal CDF of one double in (0, 1) (Cephes ndtri)."""
    upper = y0 > 1.0 - _EXP_M2
    y = 1.0 - y0 if upper else y0
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, q)
    return x if upper else -x


def std_normal_cdf(x):
    """Standard normal CDF, F(x) = erfc(-x / sqrt(2)) / 2.

    Accepts an array, or a scalar, which erfc_array takes as a 0-d input, returning a
    float; the absolute error stays well below 1e-12.  Non-finite input is rejected.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("std_normal_cdf requires finite input")
    out = 0.5 * erfc_array(-arr / _SQRT2)
    return float(out) if arr.ndim == 0 else out


def std_normal_pdf(x):
    """Standard normal density."""
    arr = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * arr * arr) / _SQRT_2PI
    return float(out) if arr.ndim == 0 else out


def std_normal_ppf(p):
    """Inverse standard normal CDF.

    Each element is seeded with the Cephes ndtri port, then the whole array is
    polished with two guarded Newton steps against std_normal_cdf so the pair
    stays self-consistent: |std_normal_cdf(std_normal_ppf(p)) - p| < 1e-10 on (0, 1).
    """
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):          # NaN fails both comparisons
        raise ValueError("std_normal_ppf requires p strictly inside (0, 1)")
    flat = arr.ravel()
    x = np.array([ndtri(v) for v in flat.tolist()])
    for _ in range(2):
        # Newton is only trustworthy where the density has not underflowed;
        # in the far tails the ndtri seed is already as good as doubles allow.
        density = std_normal_pdf(x)
        ok = density > 1e-20
        x[ok] -= np.clip((0.5 * erfc_array(-x[ok] / _SQRT2) - flat[ok]) / density[ok], -1.0, 1.0)
    return float(x[0]) if arr.ndim == 0 else x.reshape(arr.shape)


@dataclass(eq=False)
class FactorGrid:
    """Truncated, discretized standard normal of one latent risk factor: its values, 2**n_z
    points equally spaced on [-bound, bound], and its probs, the normal density there
    renormalized to sum to one, each computed on first use; until then a grid is its shape."""

    n_z: int
    bound: float = 3.0

    def __post_init__(self):
        if not isinstance(self.n_z, (int, np.integer)) or self.n_z < 1:
            raise ValueError("FactorGrid needs an integer n_z >= 1")
        if not 0.0 < self.bound < math.inf:         # NaN fails both comparisons
            raise ValueError("FactorGrid needs a finite bound > 0")
        self.n_z = int(self.n_z)
        # The two points nearest 0, as np.linspace computes them; no float counts 2**1024.
        if self.n_z < sys.float_info.max_exp:
            mid, step = self.size // 2, 2.0 * self.bound / (self.size - 1)
            nearest = min(abs((mid - 1) * step - self.bound), abs(mid * step - self.bound))
            if not math.exp(-0.5 * nearest * nearest) / _SQRT_2PI > 0.0:
                raise ValueError(f"every point of a {self.n_z}-qubit grid at +-{self.bound} "
                                 f"sigmas has density 0; reduce risk_factors.bound_sigmas "
                                 f"or raise risk_factors.qubits_per_factor")

    @property
    def size(self) -> int:
        return 2 ** self.n_z

    @cached_property
    def values(self) -> np.ndarray:
        return np.linspace(-self.bound, self.bound, self.size)

    @cached_property
    def probs(self) -> np.ndarray:
        density = std_normal_pdf(self.values)
        return density / density.sum()


def _pd_argument(obligors, z) -> np.ndarray:
    """The argument of F in each obligor's PD(z), on a new last axis."""
    return np.stack([(q - np.sqrt(rho) * (z @ np.asarray(alphas, dtype=float))) / np.sqrt(1.0 - rho)
                     for q, rho, alphas in obligors], axis=-1)


def conditional_pd_table(obligors, z) -> np.ndarray:
    """The one conditional-PD evaluator: the default probability given z of each
    obligor, a (F^-1(p0), rho, alphas) triple of an Asset that has checked p0, rho and
    alphas, stacked on a new last axis, with one F call per _PD_BLOCK_ROWS leading rows
    of z; a vector z, or a table of at most that many rows, is one block.

    `z` is a vector of R realizations or an array whose last axis has length R.
    Each obligor's z @ alphas is one matrix product, so its rounding follows z's
    shape: points shaped (N, 1, R) each take their own 1-D dot, as a vector z
    does, where an (N, R) matrix takes one matrix-vector product, row by row.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape[:-1] + (len(obligors),))
    for start in range(0, len(z), _PD_BLOCK_ROWS):    # every step after z @ alphas is elementwise
        rows = slice(start, start + _PD_BLOCK_ROWS)
        out[rows] = std_normal_cdf(_pd_argument(obligors, z[rows]))
    # F never reaches 0 or 1 for finite arguments; keep the output strictly
    # inside the open interval even where the double-precision cdf saturates.
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), out=out)
