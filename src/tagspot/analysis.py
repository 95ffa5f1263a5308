"""Closed-form and Monte Carlo performance mathematics for the detector.

Statistical model, in per-thin-carrier noise units (every power below is
divided by n/2 so noise-only bins are chi-square with 2 degrees of freedom
per complex bin): over the 2c non-null wide carriers of a layout with c
groups, a transmitted tag splits the alpha*2c in-band thin carriers into

    P: the beta*c tone-bearing bins of the active carriers,
    Q: the (alpha-beta)*c guard bins of the active carriers,
    R: the alpha*c bins of the inactive carriers,

so with r = p/n (per-tone signal power over per-bin noise power),

    sum(P) ~ (1+r) chi2(2 beta c)          wideband (per-carrier Rayleigh)
    sum(P) ~ ncx2(2 beta c, 2 beta c r)    narrowband (constant amplitude)
    sum(Q) ~ chi2(2 (alpha-beta) c)
    sum(R) ~ chi2(2 alpha c)

and a detection fires when (P+Q)/(P+Q+R) exceeds gamma, equivalently
(P+Q)/R > gamma/(1-gamma). The `denominator` argument names the strength
convention as DetectorConfig does (see carriers): "all" adds the null
carriers' noise (chi2 with 2*alpha*len(null_wide) degrees of freedom) to
R, "band" leaves it out. Both conventions are modeled, so their gap is
measured rather than assumed away.

SNR follows the channel convention: r is channel.p_over_n(snr_db, layout).

All Monte Carlo estimators draw with numpy's seeded Generator in fixed-size
chunks whose seeds derive from (seed, chunk index), so results are
reproducible and independent of how the chunks are scheduled. Binomial
uncertainties are 95% Wilson intervals. The family false alarm and the
pairs bound share one noise-only walk, _max_ratios. It and the
misclassification estimator take each chunk in row blocks of _MC_BLOCK
draws (see _row_blocks), so a (draws, carriers) temporary spans one block,
about 0.9 MB on the reference layout, rather than the chunk's 14.7 MB; the
blocks draw and score exactly what one whole-chunk pass would.

The misclassification estimator's chunk draws all its tone noise before
its guard noise, so a block's tones and guards lie a whole tone draw
apart in the stream. It therefore copies the generator before the tone
draw and advances the original past it one block at a time, throwing the
values away (_skip_chisquare): each block then takes its tones from the
copy and its guards from the original, the values one whole-chunk draw
gave. That costs one more tone draw per chunk: serially, a two-SNR
wideband run of 200,000 draws took 0.94-1.16 s against 0.69-0.81 s for
the whole-chunk draw (one BLAS thread, 2-core Xeon), which running two
chunks at once more than pays back.

Every walk runs its chunks (the sweep its splits) through _mc_map, two at
a time: the calling thread and one helper thread, since numpy's draws
release the GIL. Results come back in chunk order, so they are bit for bit
those of a serial loop. The family false alarm and the misclassification
estimator gain only with a one-thread BLAS (OPENBLAS_NUM_THREADS=1): with
OpenBLAS on both cores of a 2-core Xeon, two chunks' matrix products
contend for its threads. The family walk ran 11% slower than serially,
and that two-SNR wideband misclassification run took 1.15-1.24 s against
0.80-0.94 s for the serial whole-chunk draw.

Of scipy only scipy.special is loaded, by the functions that use it, on
their first call: the mixture weights and bounds, Beta and F tails and
quantiles, and the Wilson interval's normal quantile are all its ufuncs.
Importing this module (and the CLI, whose spot and calculator commands
need no statistics) therefore costs nothing of scipy, and the first
analysis call adds about 26 MB of resident memory and 0.2-0.3 s over
numpy alone, where scipy's statistics subpackage would add about 72 MB
and 0.8 s (fresh Python 3.11 interpreters, scipy 1.17.1, 2-core Xeon).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .carriers import CarrierLayout, REFERENCE_LAYOUT, check_gamma
from .channel import p_over_n
from .codebook import Codebook, mask_matrix

FADING_ANALYSIS_MODELS = ("wideband", "narrowband")

_MC_CHUNK = 1 << 15
#: Rows per block within a Monte Carlo chunk. Consecutive draws from one
#: Generator equal one large draw, and with numpy's OpenBLAS matrix products
#: over blocks of 64 rows or more equalled the whole-chunk product bit for
#: bit (1- and 7-row blocks did not), so blocking changes no result; the
#: whole-chunk oracles in tests/test_analysis.py check this. Two chunks run
#: at once (see _mc_map) and none holds a whole-chunk array, so a block of
#: 2048 rows keeps both chunks' working sets together under 8 MiB on the
#: reference layout, the misclassification estimator's included.
_MC_BLOCK = 1 << 11

#: Most components a closed-form mixture may span: 32 MiB per float64 array.
_MIXTURE_BUDGET = 1 << 22


def _check_fading(fading: str) -> None:
    if fading not in FADING_ANALYSIS_MODELS:
        raise ValueError(f"fading must be one of {FADING_ANALYSIS_MODELS}, got {fading!r}")


@dataclass(frozen=True)
class AnalysisModel:
    """One operating point of the statistical model."""

    layout: CarrierLayout = REFERENCE_LAYOUT
    snr_db: float = 0.0
    fading: str = "wideband"

    def __post_init__(self) -> None:
        _check_fading(self.fading)


def _unit_gauss_nodes(n: int) -> "tuple[np.ndarray, np.ndarray]":
    """Gauss-Legendre nodes and weights mapped to (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# ---------------------------------------------------------------------------
# leakage of off-grid tones


def leakage_single(k: "float | np.ndarray", delta: "float | np.ndarray"):
    """Power fraction a unit tone leaks into a bin k carriers away when the
    tone sits delta bins off the grid. sinc^2(k + delta); 1 at k = delta = 0
    by continuity, 0 at integer spacings, bounded by 1/(k+delta)^2."""
    return np.sinc(np.asarray(k, dtype=np.float64) + delta) ** 2


def leakage_block(k: int) -> float:
    """Bound on the power a half-line block of unit carriers leaks into a
    bin k positions outside it: pi^2/6 minus the first k-1 Basel terms."""
    if k < 1:
        raise ValueError("k must be at least 1")
    partial = sum(1.0 / (c * c) for c in range(1, k))
    return np.pi**2 / 6.0 - partial


def expected_offset_leak(
    max_offset: float, layout: CarrierLayout = REFERENCE_LAYOUT
) -> float:
    """Expected fraction of tag power landing outside the tag's own active
    carriers, for a frequency offset uniform on (0, max_offset] thin widths.

    Expectation is over the offset AND over random codewords: power leaking
    into the active carrier of another group is not lost, and each group's
    two carriers are active with probability 1/2 each. Destination weights
    per source carrier: own span 1, group partner 0, other groups' spans
    1/2, null carriers and off-grid bins 0. The per-tone leak concentrates
    in the source carrier's immediate neighborhood, so this tag-level figure
    sits well below the single-tone out-of-carrier leak. The offset
    expectation is a 64-node Gauss-Legendre rule.
    """
    if not 0 < max_offset < math.inf:
        raise ValueError(f"max_offset must be a finite positive number, got {max_offset!r}")
    u, wu = _unit_gauss_nodes(64)
    deltas = max_offset * u
    k_grid = np.arange(layout.fft_size, dtype=np.float64)
    offsets = np.asarray(layout.active_thin_offsets, dtype=np.float64)
    alpha = layout.thin_per_wide
    band_half = np.repeat(np.isin(np.arange(layout.wide_total), layout.band_wide) * 0.5, alpha)
    retained = np.zeros(u.size)
    for a, b in layout.group_map:
        for w, pw in ((a, b), (b, a)):  # sources in band order
            weights = band_half.copy()
            weights[w * alpha : (w + 1) * alpha] = 1.0
            weights[pw * alpha : (pw + 1) * alpha] = 0.0
            sources = w * alpha + offsets
            # args: (delta, tone, bin)
            args = k_grid[None, None, :] - sources[None, :, None] - deltas[:, None, None]
            spread = np.sinc(args) ** 2
            retained += (spread * weights[None, None, :]).sum(axis=2).mean(axis=1)
    retained /= len(layout.band_wide)
    return float(np.sum(wu * (1.0 - retained)))


# ---------------------------------------------------------------------------
# single-tag closed forms


def pf_single(
    gamma: float,
    layout: CarrierLayout = REFERENCE_LAYOUT,
    denominator: str = "band",
) -> float:
    """Per-interval false alarm probability for one codeword: pd_single
    with no signal.

    Noise only, in-mask and out-of-mask powers are independent chi-squares
    U ~ chi2(dof_num) and V ~ chi2(dof_den), so the strength U/(U+V) is
    Beta(dof_num/2, dof_den/2) distributed and the test is equivalently an
    F(dof_num, dof_den) tail. Evaluated as the regularized incomplete beta
    upper tail at gamma itself, which keeps the symmetric reference-layout
    band case exact: pf_single(0.5) = 0.5 (median of F(448, 448) is 1).
    """
    return pd_single(gamma, AnalysisModel(layout, snr_db=-math.inf), denominator)


def _numerator_mixture(
    model: AnalysisModel, dof_x: int, dof_y: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Weights and dofs expressing the in-mask power sum as a mixture of
    central chi-square distributions.

    With per-tone Rayleigh fading the tone sum is (1 + r) * chi2(dof_x),
    whose expansion over chi2(dof_x + 2k) has negative-binomial weights
    nbinom(k; dof_x / 2, 1 / (1 + r)). With a flat channel it is
    noncentral chi-square ncx2(dof_x, dof_x * r), whose expansion has
    Poisson(dof_x * r / 2) weights. Adding the independent guard-bin sum
    chi2(dof_y) shifts every component's dof by dof_y.

    The index range runs from the floor of the 1e-16 quantile to the
    ceiling of the 1 - 1e-16 one (special.nbdtrik / special.pdtrik), two
    more each side, so truncation drops at most 2.2e-16 of the mass
    (1 - 1e-16 rounds to 1 - 2**-53, an upper tail of 1.1e-16). Weights
    are exp of the log-pmf (gammaln, xlogy, xlog1py), positive and
    renormalized to sum to 1. The range is checked against _MIXTURE_BUDGET
    before any array is built. On the reference layout the wideband span
    grows in proportion to r and passes the budget from about 41 dB (3.5M
    components at 40 dB), the narrowband one as sqrt(r), from about 85 dB,
    and pdtrik returns NaN from 90 dB.
    """
    r = p_over_n(model.snr_db, model.layout)
    base = float(dof_x + dof_y)
    # below about -162 dB 1 / (1 + r) rounds to 1, where the wideband
    # mixture is its k = 0 term alone and nbdtrik's bounds are meaningless
    if r == 0 or (model.fading != "narrowband" and 1.0 / (1.0 + r) == 1.0):
        return np.ones(1), np.asarray([base])
    from scipy import special

    tails = [1e-16, 1.0 - 1e-16]
    if model.fading == "narrowband":
        mu = 0.5 * dof_x * r
        k_lo, k_hi = special.pdtrik(tails, mu)
    else:
        n, p = 0.5 * dof_x, 1.0 / (1.0 + r)
        k_lo, k_hi = special.nbdtrik(tails, n, p)
    k_lo, k_hi = np.floor(k_lo), np.ceil(k_hi)
    if not k_hi - k_lo <= _MIXTURE_BUDGET:  # NaN bounds fail this too
        raise ValueError(
            f"snr {model.snr_db:g} dB is past the {model.fading} closed form's range "
            f"({k_hi - k_lo:.4g} mixture components, budget {_MIXTURE_BUDGET})"
        )
    k = np.arange(max(int(k_lo) - 2, 0), int(k_hi) + 3)
    if model.fading == "narrowband":
        log_pmf = special.xlogy(k, mu) - special.gammaln(k + 1) - mu
    else:
        log_pmf = (
            special.gammaln(n + k) - special.gammaln(k + 1) - special.gammaln(n)
            + n * math.log(p) + special.xlog1py(k, -p)
        )
    weights = np.exp(log_pmf)
    # renormalize: pmf rounding at large means drifts the sum off 1
    return weights / weights.sum(), base + 2.0 * k


def pd_single(
    gamma: float,
    model: AnalysisModel,
    denominator: str = "band",
) -> float:
    """Per-interval detection probability for the transmitted codeword.

    Evaluates P((X + Y) / (X + Y + Z) > gamma) exactly, where X is the
    tone-bin power sum, Y the guard-bin sum and Z the out-of-mask noise
    sum: conditioned on the mixture index of _numerator_mixture, X + Y is
    a central chi-square independent of Z, so each component's strength is
    Beta distributed and its exceedance a regularized incomplete beta
    tail. At p/n = 0 the mixture collapses to a single term, and that case
    is pf_single.
    """
    check_gamma(gamma)
    from scipy import special

    lay = model.layout
    dof_x = 2 * lay.tones
    dof_y = 2 * (lay.thin_per_wide - lay.active_thin_per_wide) * lay.groups
    dof_z = 2 * lay.thin_per_wide * len(lay.denominator_wide(denominator)) - dof_x - dof_y
    weights, dofs = _numerator_mixture(model, dof_x, dof_y)
    tails = special.betaincc(dofs / 2.0, dof_z / 2.0, gamma)
    # rounding in the mixture can overshoot 1 by a few ulp-scale terms
    return min(float(weights @ tails), 1.0)


def gamma_equivalent_snr_db(
    gamma: float,
    layout: CarrierLayout = REFERENCE_LAYOUT,
    denominator: str = "all",
) -> float:
    """SNR at which the expected tag strength equals gamma, treating every
    bin as carrying its mean power (the naive equal-noise-per-bin balance):

        gamma = (beta c r + alpha c) / (beta c r + D)

    where D counts the thin bins of the denominator carriers (all fft_size
    bins under "all", the in-band ones under "band"). Solved for r = p/n
    and converted to dB through channel.p_over_n.
    """
    check_gamma(gamma)
    beta_c = layout.tones
    alpha_c = layout.thin_per_wide * layout.groups
    d_bins = layout.thin_per_wide * len(layout.denominator_wide(denominator))
    r = (gamma * d_bins - alpha_c) / (beta_c * (1.0 - gamma))
    if r <= 0:
        raise ValueError(
            f"gamma {gamma} is at or below the flat-spectrum baseline; "
            "no positive SNR balances it"
        )
    return float(10.0 * np.log10(r / p_over_n(0.0, layout)))


# ---------------------------------------------------------------------------
# family Monte Carlo

def _mc_chunks(trials: int, seed: int) -> "Iterator[tuple[np.random.Generator, int]]":
    """Chunks of at most _MC_CHUNK draws, each with a generator seeded by
    (seed, chunk index)."""
    if trials < 1:
        raise ValueError("trials must be positive")
    return (
        (np.random.default_rng([seed, chunk_index]), min(_MC_CHUNK, trials - lo))
        for chunk_index, lo in enumerate(range(0, trials, _MC_CHUNK))
    )


def _row_blocks(m: int) -> "list[slice]":
    """Consecutive slices covering range(m), _MC_BLOCK rows each, with the
    remainder folded into the last one: a block is shorter than _MC_BLOCK
    only when the whole chunk is, and then the chunk is one block."""
    bounds = list(range(0, m - _MC_BLOCK + 1, _MC_BLOCK)) or [0]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:] + [m])]


def _skip_chisquare(rng: np.random.Generator, dof: int, m: int, cols: int) -> np.random.Generator:
    """Copy rng, then advance rng past an (m, cols) chisquare(dof) draw one
    row block at a time, throwing the values away; the copy returned draws
    those values. dof 0 draws nothing."""
    ahead = copy.deepcopy(rng)
    if dof > 0:
        for block in _row_blocks(m):
            rng.chisquare(dof, size=(block.stop - block.start, cols))
    return ahead


def _wilson(hits: int, trials: int) -> "tuple[float, tuple[float, float]]":
    """Hit fraction and its 95% Wilson interval, Newcombe's (1998) closed
    form in the expression order of scipy's binomtest(...).proportion_ci(
    method="wilson"), so both bounds equal scipy's bit for bit."""
    from scipy import special

    p = hits / trials
    z = special.ndtri(0.5 + 0.5 * 0.95)
    denom = 2 * (trials + z**2)
    center = (2 * trials * p + z**2) / denom
    delta = z / denom * math.sqrt(4 * trials * p * (1 - p) + z**2)
    low = 0.0 if hits == 0 else center - delta
    high = 1.0 if hits == trials else center + delta
    return p, (float(low), float(high))


def _mc_map(fn: "Callable[..., object]", items: "Iterable[tuple]") -> list:
    """[fn(*item) for item in items], two items at a time: the calling thread
    runs the even items and one helper thread the odd ones, a pair at a
    time, and the results come back in item order whichever finishes first.
    The helper is handed one item per pair, so when either item raises
    (KeyboardInterrupt too) the other finishes, or is cancelled if it has
    not started, and no further item starts.
    fn must call no public function of the package: a tracer that wraps
    those keeps one call stack, on the calling thread."""
    from concurrent.futures import ThreadPoolExecutor

    items = list(items)
    out = []
    with ThreadPoolExecutor(max_workers=1) as helper:
        for i in range(0, len(items), 2):
            odd = [helper.submit(fn, *item) for item in items[i + 1 : i + 2]]
            try:
                out.append(fn(*items[i]))
            except BaseException:
                for future in odd:
                    future.cancel()
                raise
            out += [future.result() for future in odd]
    return out


def _max_ratios(
    best_of: "Callable[[np.ndarray], np.ndarray]",
    layout: CarrierLayout, trials: int, seed: int, denominator: str,
    per_chunk: "Callable[[np.ndarray], object]" = lambda ratios: ratios,
) -> list:
    """The noise-only walk: per chunk, in chunk order, per_chunk of each
    draw's largest in-mask sum over the power outside it, in draw order,
    where best_of maps a row block of chi2(2 alpha) band powers to each
    row's largest in-mask sum. Under "all" each chunk adds the null
    carriers' summed power, one more chi-square drawn after the band's, so
    "band" keeps the same draws. The chunk divides once: x / (T - x) never
    decreases in x, even rounded, so the ratio of the largest sum is the
    largest ratio. A per_chunk that counts keeps the walk's memory at two
    chunks' working sets (see _mc_map) whatever the trial count.
    """
    dof_wide = 2 * layout.thin_per_wide
    dof_extra = dof_wide * (len(layout.denominator_wide(denominator)) - 2 * layout.groups)

    def chunk(rng: np.random.Generator, m: int):
        best, total = np.empty(m), np.empty(m)
        for block in _row_blocks(m):
            draws = rng.chisquare(dof_wide, size=(block.stop - block.start, 2 * layout.groups))
            best[block] = best_of(draws)
            np.sum(draws, axis=1, out=total[block])
        if dof_extra:
            total += rng.chisquare(dof_extra, size=m)
        best /= total - best
        return per_chunk(best)

    return _mc_map(chunk, _mc_chunks(trials, seed))


@functools.lru_cache(maxsize=1)
def _family_max_ratios(
    codebook: Codebook, layout: CarrierLayout, trials: int, seed: int, denominator: str
) -> np.ndarray:
    """Each noise-only draw's largest in-mask/out-of-mask ratio over the
    family (see _max_ratios), sorted ascending and read-only.

    The ratios depend on neither gamma nor SNR, so every point of a
    build_roc grid thresholds the same array, and build_roc clears this
    one-entry memo when the grid is done. A direct pf_family_mc call keeps
    the last draws until a call with other arguments replaces them or the
    caller clears the memo.
    """
    masks = mask_matrix(codebook, layout)[:, layout.band_wide].astype(np.float64)
    out = np.concatenate(
        _max_ratios(lambda draws: np.max(draws @ masks.T, axis=1), layout, trials, seed, denominator)
    )
    out.sort()
    out.flags.writeable = False
    return out


def pf_family_mc(
    gamma: float,
    codebook: Codebook,
    layout: CarrierLayout,
    trials: int,
    seed: int,
    denominator: str = "band",
) -> "tuple[float, tuple[float, float]]":
    """Noise-only false alarm probability of the whole family.

    Per draw the wide-carrier powers are independent chi2(2 alpha) and the
    detector fires when any codeword's in-mask/out-of-mask ratio under the
    convention clears gamma/(1-gamma). Returns (estimate, 95% Wilson
    interval). Consecutive calls with the same arguments but gamma
    threshold one memoized set of draws (see _family_max_ratios).
    """
    check_gamma(gamma)
    t = gamma / (1.0 - gamma)
    ratios = _family_max_ratios(codebook, layout, trials, seed, denominator)
    hits = trials - int(np.searchsorted(ratios, t, side="right"))
    return _wilson(hits, trials)


def pf_pairs_bound(
    gamma: float,
    layout: CarrierLayout,
    trials: int,
    seed: int,
) -> "tuple[float, tuple[float, float]]":
    """False alarm probability of the full exponential-size code: per group
    take the stronger carrier into the numerator and the weaker into the
    denominator. It is the family's walk (_max_ratios) with each draw's
    pair maxima, which no codeword's in-mask sum exceeds, so with the same
    seed and trial count it upper-bounds pf_family_mc for every codebook
    draw by draw. Only the "band" convention is modeled."""
    check_gamma(gamma)
    t = gamma / (1.0 - gamma)
    hits = _max_ratios(
        lambda draws: draws.reshape(len(draws), layout.groups, 2).max(axis=2).sum(axis=1),
        layout, trials, seed, "band", lambda ratios: int(np.count_nonzero(ratios > t)),
    )
    return _wilson(sum(hits), trials)


def pm_mc(
    snr_dbs: "Sequence[float]",
    codebook: Codebook,
    layout: CarrierLayout,
    fading: str,
    trials: int,
    seed: int,
) -> "list[tuple[float, tuple[float, float]]]":
    """Misclassification probability at each SNR of the grid, in input
    order: transmit a uniformly random codeword, decode by argmax strength
    over the family with no threshold, count wrong argmax. Noise units as
    in the module docstring. Returns one (estimate, 95% Wilson interval)
    per SNR.

    The grid shares one draw. Each chunk's generator draws, in stream
    order, the sent words, the tone-bin noise and the guard noise; each row
    block takes its share of both (see the module docstring on copy and
    skip) and scores every SNR. Narrowband copies the generator once per
    SNR after the shared draws and draws that SNR's noncentral tones from
    its copy, so every SNR reads the stream a single-SNR run would.
    """
    _check_fading(fading)
    if len(snr_dbs) == 0:
        raise ValueError("the SNR grid must not be empty")
    if not all(math.isfinite(snr_db) for snr_db in snr_dbs):
        raise ValueError(f"every SNR must be finite, got {list(snr_dbs)}")
    rs = [p_over_n(snr_db, layout) for snr_db in snr_dbs]
    masks = mask_matrix(codebook, layout)[:, layout.band_wide]
    beta2 = 2 * layout.active_thin_per_wide
    guard2 = 2 * (layout.thin_per_wide - layout.active_thin_per_wide)
    wides = 2 * layout.groups

    def chunk_misses(rng: np.random.Generator, m: int) -> "list[int]":
        sent = rng.integers(0, codebook.size, size=m)
        tones = _skip_chisquare(rng, beta2, m, wides)
        guards, tone_rngs = rng, []
        if fading == "narrowband":
            # the noncentral tones follow the guard draw, so the guards come
            # from a copy too
            guards = _skip_chisquare(rng, guard2, m, wides)
            tone_rngs = [copy.deepcopy(rng) for _ in rs]
        misses = [0] * len(rs)
        for block in _row_blocks(m):
            noise = tones.chisquare(beta2, size=(block.stop - block.start, wides))
            active = masks[sent[block]]
            guard = guards.chisquare(guard2, size=noise.shape) if guard2 > 0 else 0.0
            powers = np.empty(noise.shape)
            for i, r in enumerate(rs):
                if fading == "wideband":
                    # gain 1 + r on the sent carriers and 1 elsewhere, built
                    # in place: r * 1.0 == r and noise * 1.0 == noise exactly
                    np.multiply(active, r, out=powers)
                    powers += 1.0
                    powers *= noise
                else:
                    powers = tone_rngs[i].noncentral_chisquare(beta2, beta2 * r, size=noise.shape)
                    np.copyto(powers, noise, where=~active)
                powers += guard
                decoded = np.argmax(powers @ masks.T, axis=1)
                misses[i] += int(np.count_nonzero(decoded != sent[block]))
        return misses

    per_chunk = _mc_map(chunk_misses, _mc_chunks(trials, seed))
    return [_wilson(sum(hits), trials) for hits in zip(*per_chunk)]


# ---------------------------------------------------------------------------
# active-carrier count optimization


def sweep_active_carriers(
    n_carriers: int,
    snr_db: float,
    trials: int = 0,
    seed: int = 0,
) -> "list[tuple[int, float, float, float, float, float]]":
    """How many of n_carriers wide carriers should a tag activate?

    Simplified fully-active model with the reference layout's thin
    carriers per wide carrier (every thin carrier of an active wide carrier
    carries a tone, so beta = alpha = REFERENCE_LAYOUT.thin_per_wide and
    p/n is the SNR directly). For each split q the threshold gamma0(q) is
    set so the wideband detection probability is exactly 1/2 at snr_db;
    the figure of merit is the false alarm probability at that threshold,

        pf(q) = P(F' > (1 + p/n) median(F')),  F' ~ F(2 a q, 2 a (n-q)).

    The per-carrier SNR is held fixed across q: activating more carriers
    spends proportionally more transmit power. Returns one
    (q, gamma0, pf, pf_mc, pf_mc_ci_low, pf_mc_ci_high) row per split; the
    Monte Carlo columns cross-check the closed form when trials > 0 and are
    nan otherwise. An SNR with no finite threshold (NaN, +inf dB or past the
    float range) raises a ValueError naming it.
    """
    if n_carriers < 2:
        raise ValueError("need at least two carriers")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    from scipy import special

    alpha = REFERENCE_LAYOUT.thin_per_wide
    # channel's checked SNR rule on the fully active layout, beta = alpha
    r = p_over_n(snr_db, replace(REFERENCE_LAYOUT, active_thin_per_wide=alpha))
    splits = []
    for q in range(1, n_carriers):
        dfn, dfd = 2 * alpha * q, 2 * alpha * (n_carriers - q)
        t0 = (1.0 + r) * float(special.fdtri(dfn, dfd, 0.5))
        if t0 == math.inf:  # at +inf dB, or a finite SNR whose threshold overflows
            raise ValueError(f"snr {snr_db:g} dB puts the threshold past the float range")
        splits.append((q, dfn, dfd, t0))

    def hits(q: int, dfn: int, dfd: int, t0: float) -> int:
        count = 0
        for rng, m in _mc_chunks(trials, seed + q):
            num = rng.chisquare(dfn, size=m) / dfn
            den = rng.chisquare(dfd, size=m) / dfd
            count += int(np.count_nonzero(num / den > t0))
        return count

    mc_hits = _mc_map(hits, splits) if trials > 0 else [None] * len(splits)
    rows = []
    for (q, dfn, dfd, t0), mc in zip(splits, mc_hits):
        pf_mc, (low, high) = (math.nan, (math.nan, math.nan)) if mc is None else _wilson(mc, trials)
        pf = float(special.fdtrc(dfn, dfd, t0))
        rows.append((q, float(t0 / (1.0 + t0)), pf, pf_mc, low, high))
    return rows


# ---------------------------------------------------------------------------
# deterministic calculators


def range_gain(snr_gap_db: float, path_loss_exponent: float) -> float:
    """Range multiplier bought by an SNR advantage under power-law path
    loss: 10^(gap / (10 d))."""
    if not path_loss_exponent > 0:
        raise ValueError("path loss exponent must be positive")
    try:
        gain = float(10.0 ** (snr_gap_db / (10.0 * path_loss_exponent)))
    except OverflowError:
        gain = math.inf
    if gain == math.inf:  # 10.0 ** inf is inf, not an OverflowError
        raise ValueError(f"SNR gap {snr_gap_db:g} dB at path loss exponent "
                         f"{path_loss_exponent:g} gives a range gain past the float range")
    return gain


def payload_frames(payload_bytes: int) -> int:
    """Data frames a payload occupies at 12 payload bytes per frame."""
    return -(-payload_bytes // 12)  # an exact ceiling: no float in between


def overhead(payload_bytes: int, sync_frames: int = 6, tag_frames: int = 8) -> float:
    """Airtime fraction a tag adds to a packet.

    Frame accounting: one data frame carries 12 payload bytes (see
    payload_frames); by default six synchronization frames precede the
    payload, and a tag spans the equivalent of eight data frames.
    """
    if payload_bytes <= 0:
        raise ValueError("payload must be positive")
    if sync_frames < 0:
        raise ValueError("sync frames must be nonnegative")
    if tag_frames < 1:
        raise ValueError("a tag spans at least one frame")
    return tag_frames / (payload_frames(payload_bytes) + sync_frames)


# ---------------------------------------------------------------------------
# curves


def build_roc(
    snr_dbs: "Sequence[float]",
    gammas: "Sequence[float]",
    layout: CarrierLayout,
    fading: str,
    codebook: "Codebook | None" = None,
    trials: int = 0,
    seed: int = 0,
    denominator: str = "band",
) -> "list[list[tuple[float, float, float, float, float, bool]]]":
    """Detection curves on an SNR x gamma grid: per SNR in grid order, one
    (gamma, pd, pf, pf_ci_low, pf_ci_high, flagged) row per gamma, gamma
    ascending. pd is closed-form for the transmitted codeword; pf is the
    closed-form single-codeword false alarm, or with trials the codebook's
    family false alarm Monte Carlo, whose points all threshold one
    memoized draw, so pd and pf are nonincreasing in gamma. The draw is
    freed when the grid is done, or when a point raises."""
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if trials > 0 and codebook is None:
        raise ValueError("trials > 0 needs a codebook: the Monte Carlo pf is its family's")
    gammas = sorted(gammas)
    curves = []
    try:
        for snr_db in snr_dbs:
            model = AnalysisModel(layout=layout, snr_db=snr_db, fading=fading)
            rows = []
            for gamma in gammas:
                pd = pd_single(gamma, model, denominator)
                if trials > 0:
                    pf, (low, high) = pf_family_mc(gamma, codebook, layout, trials, seed, denominator)
                else:
                    pf = low = high = pf_single(gamma, layout, denominator)
                # an all-miss Monte Carlo point (pf = 0, CI reaching above it) is
                # unresolved and flags too; exact points have zero width and never do
                rows.append((gamma, pd, pf, low, high, (high - low) / 2.0 > 0.2 * pf))
            curves.append(rows)
    finally:
        _family_max_ratios.cache_clear()
    return curves
