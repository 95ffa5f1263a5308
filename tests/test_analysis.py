"""Closed forms, Monte Carlo estimators, and their cross-validation.

Numeric pins were frozen from two agreeing evaluation routes (independent
special-function identities and large chi-square Monte Carlo); tolerances
reflect the pin precision, not the implementation's.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tagspot import analysis, cli
from tagspot.analysis import (
    AnalysisModel,
    RocCurve,
    RocPoint,
    build_roc,
    expected_offset_leak,
    gamma_equivalent_snr_db,
    leakage_block,
    leakage_single,
    overhead,
    pd_single,
    pf_family_mc,
    pf_pairs_bound,
    pf_single,
    pm_mc,
    range_gain,
    sweep_active_carriers,
    sweep_argmin,
)
from tagspot.carriers import CarrierLayout, REFERENCE_LAYOUT
from tagspot.channel import apply_awgn, apply_fading, noise_power_for_snr
from tagspot.codebook import Codebook, codeword_to_mask, mask_matrix
from tagspot.detector import DetectorConfig, fold_spectrum, strengths
from tagspot.waveform import IqFrame, build_tag_spectrum, synthesize_tag

LAY = REFERENCE_LAYOUT


def _single_word_family(codebook):
    return Codebook("single", 28, 13, (codebook.words[0],))


def _prefix_family(codebook, size):
    return Codebook(f"prefix-{size}", 28, 13, codebook.words[:size])


# ---------------------------------------------------------------------------
# leakage


def test_leakage_single_reference_values():
    assert float(leakage_single(0, 0.0)) == 1.0
    assert float(leakage_single(0, 0.5)) == pytest.approx((2 / np.pi) ** 2, rel=1e-12)
    for k in (1, 2, 5):
        # exact zeros up to the rounding of sin at integer multiples of pi
        assert float(leakage_single(k, 0.0)) < 1e-30
    assert float(leakage_single(3, 0.25)) <= 1.0 / (3 + 0.25) ** 2


def test_leakage_block_is_a_basel_tail():
    assert leakage_block(1) == np.pi**2 / 6.0
    assert leakage_block(2) == pytest.approx(np.pi**2 / 6.0 - 1.0, rel=1e-12)
    assert leakage_block(5) == pytest.approx(0.2213230, abs=1e-6)
    values = [leakage_block(k) for k in range(1, 10)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        leakage_block(0)


def test_expected_offset_leak_pins_and_monotonicity():
    assert expected_offset_leak(1.0) == pytest.approx(0.0197705, abs=5e-6)
    assert expected_offset_leak(2.0) == pytest.approx(0.0224993, abs=5e-6)
    assert expected_offset_leak(4.0) == pytest.approx(0.1135675, abs=5e-6)
    with pytest.raises(ValueError):
        expected_offset_leak(0.0)


# ---------------------------------------------------------------------------
# single-tag closed forms


def test_pf_single_pins():
    pins = {
        0.45: 9.8302810e-01,
        0.55: 1.6971902e-02,
        0.60: 9.5955822e-06,
        0.62: 1.2851478e-07,
    }
    for gamma, pin in pins.items():
        assert pf_single(gamma) == pytest.approx(pin, rel=1e-6)
    # the band statistic is Beta(224, 224), symmetric about one half
    assert pf_single(0.5) == 0.5
    # null-carrier noise only ever dilutes the ratio
    assert pf_single(0.55, denominator="all") < pf_single(0.55)
    with pytest.raises(ValueError):
        pf_single(0.0)


def test_pd_single_pins():
    wide1 = AnalysisModel(snr_db=1.0, fading="wideband")
    wide0 = AnalysisModel(snr_db=0.0, fading="wideband")
    narrow0 = AnalysisModel(snr_db=0.0, fading="narrowband")
    assert pd_single(0.62, wide1) == pytest.approx(0.9992694989, abs=1e-9)
    assert pd_single(0.62, wide1, denominator="all") == pytest.approx(
        0.7748949290, abs=1e-9
    )
    assert pd_single(0.62, wide0) == pytest.approx(0.9784062051, abs=1e-9)
    assert pd_single(0.62, narrow0) == pytest.approx(0.9896265219, abs=1e-9)


def test_pd_reduces_to_pf_without_signal():
    for fading in ("wideband", "narrowband"):
        model = AnalysisModel(snr_db=-math.inf, fading=fading)
        assert model.p_over_n == 0.0
        for gamma in (0.45, 0.5, 0.55, 0.62):
            assert pd_single(gamma, model) == pf_single(gamma)
            assert pd_single(gamma, model, denominator="all") == pf_single(
                gamma, denominator="all"
            )


def test_pd_is_monotone_in_snr_and_gamma():
    for fading in ("wideband", "narrowband"):
        values = [
            pd_single(0.62, AnalysisModel(snr_db=s, fading=fading))
            for s in np.arange(-6.0, 15.1, 0.5)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        model = AnalysisModel(snr_db=1.0, fading=fading)
        over_gamma = [pd_single(g, model) for g in np.arange(0.3, 0.96, 0.05)]
        assert all(b <= a + 1e-12 for a, b in zip(over_gamma, over_gamma[1:]))


def test_pd_exceeds_pf_at_positive_snr():
    model = AnalysisModel(snr_db=0.0, fading="wideband")
    for gamma in (0.5, 0.55, 0.62, 0.7):
        assert pd_single(gamma, model) > pf_single(gamma)


def test_gamma_equivalent_snr_pin_and_baseline_guard():
    assert gamma_equivalent_snr_db(0.62) == pytest.approx(0.4050121, abs=1e-6)
    # at the flat-spectrum baseline no positive signal power balances gamma
    with pytest.raises(ValueError):
        gamma_equivalent_snr_db(0.4375)
    with pytest.raises(ValueError):
        gamma_equivalent_snr_db(0.5, denominator="band")


def test_analysis_model_validation():
    assert AnalysisModel(snr_db=0.0).p_over_n == 2.0
    with pytest.raises(ValueError):
        AnalysisModel(fading="rician")


# ---------------------------------------------------------------------------
# closed forms against the waveform chain

_CHANNEL_FADING = {"wideband": "wideband-rayleigh", "narrowband": "narrowband"}
_WORD = "01" * 14
_WORD_CONFIG = DetectorConfig(layout=LAY, codebook=Codebook("one-word", 28, 13, (_WORD,)))


def _window_strength_sim(snr_db, fading, trials, seed):
    """Single aligned-window banded strengths through the full waveform path."""
    mask = codeword_to_mask(_WORD, LAY)
    power = float(LAY.active_thin_per_wide * LAY.groups)  # per-tone power 1
    n = noise_power_for_snr(snr_db, 1.0, LAY)
    root = np.sqrt(LAY.fft_size)
    rng = np.random.default_rng(seed)
    out = np.empty(trials)
    for i in range(trials):
        frame = synthesize_tag(build_tag_spectrum(mask, LAY, power, rng), LAY)
        if fading is not None:
            frame = apply_fading(frame, _CHANNEL_FADING[fading], rng, LAY)
        noisy = apply_awgn(frame, n, rng)
        body = noisy.samples[LAY.cp_len :]
        wide = fold_spectrum(np.fft.fft(body) / root, LAY)
        out[i] = strengths(wide, _WORD_CONFIG)[0]
    return out


def _noise_strength_sim(trials, seed):
    root = np.sqrt(LAY.fft_size)
    rng = np.random.default_rng(seed)
    out = np.empty(trials)
    for i in range(trials):
        noise = rng.normal(scale=np.sqrt(0.5), size=(LAY.fft_size, 2))
        window = noise[:, 0] + 1j * noise[:, 1]
        wide = fold_spectrum(np.fft.fft(window) / root, LAY)
        out[i] = strengths(wide, _WORD_CONFIG)[0]
    return out


def test_pd_closed_form_matches_waveform_simulation():
    trials = 2500
    for fading, snr_db in (("wideband", 0.0), ("narrowband", 0.0)):
        strengths = _window_strength_sim(snr_db, fading, trials, seed=60)
        estimate = float(np.mean(strengths > 0.62))
        closed = pd_single(0.62, AnalysisModel(snr_db=snr_db, fading=fading))
        sigma = math.sqrt(closed * (1 - closed) / trials)
        assert abs(estimate - closed) <= 3 * sigma, (fading, estimate, closed)


def test_pf_closed_form_matches_waveform_simulation():
    trials = 2500
    strengths = _noise_strength_sim(trials, seed=61)
    estimate = float(np.mean(strengths > 0.55))
    closed = pf_single(0.55)
    sigma = math.sqrt(closed * (1 - closed) / trials)
    assert abs(estimate - closed) <= 3 * sigma


# ---------------------------------------------------------------------------
# family Monte Carlo


def test_single_word_family_matches_closed_form(codebook):
    single = _single_word_family(codebook)
    trials = 200_000
    estimate, ci = pf_family_mc(0.55, single, LAY, trials, seed=62)
    closed = pf_single(0.55)
    sigma = math.sqrt(closed * (1 - closed) / trials)
    assert abs(estimate - closed) <= 3 * sigma
    assert ci[0] <= estimate <= ci[1]


def test_single_word_family_matches_closed_form_under_all(codebook):
    single = _single_word_family(codebook)
    trials = 200_000
    for gamma in (0.45, 0.48, 0.5):
        estimate, _ = pf_family_mc(gamma, single, LAY, trials, 69, "all")
        closed = pf_single(gamma, denominator="all")
        sigma = math.sqrt(closed * (1 - closed) / trials)
        assert abs(estimate - closed) <= 3 * sigma, (gamma, estimate, closed)
    # "all" adds the null carriers' power to the same band draws, which
    # only lowers each draw's ratio
    band = analysis._family_max_ratios(single, LAY, trials, 69, "band")
    assert np.all(band >= analysis._family_max_ratios(single, LAY, trials, 69, "all"))
    analysis._family_max_ratios.cache_clear()


@pytest.mark.parametrize("name", ["Band", "mask"])
@pytest.mark.parametrize(
    "call",
    [
        lambda book, name: DetectorConfig(layout=LAY, codebook=book, denominator=name),
        lambda book, name: pf_single(0.55, LAY, name),
        lambda book, name: pd_single(0.55, AnalysisModel(), name),
        lambda book, name: gamma_equivalent_snr_db(0.62, LAY, name),
        lambda book, name: build_roc(AnalysisModel(), [0.55], denominator=name),
        lambda book, name: pf_family_mc(0.55, book, LAY, 100, 0, name),
    ],
    ids=["DetectorConfig", "pf_single", "pd_single", "gamma_equivalent_snr_db",
         "build_roc", "pf_family_mc"],
)
def test_unknown_strength_convention_is_rejected(codebook, call, name):
    with pytest.raises(ValueError, match="denominator must be one of"):
        call(codebook, name)


def test_family_pf_grows_with_size_and_pairs_bound_dominates(codebook):
    trials, seed = 100_000, 63
    estimates = [
        pf_family_mc(0.55, _prefix_family(codebook, size), LAY, trials, seed)[0]
        for size in (1, 8, 56)
    ]
    # shared seed makes the hit sets nested, so growth is pointwise
    assert estimates[0] < estimates[1] < estimates[2]
    bound, _ = pf_pairs_bound(0.55, LAY, trials, seed)
    assert bound >= estimates[2]


def test_mc_estimators_validate_inputs(codebook):
    with pytest.raises(ValueError):
        pf_family_mc(0.5, codebook, LAY, 0, seed=0)
    with pytest.raises(ValueError):
        pf_pairs_bound(0.5, LAY, -5, seed=0)
    with pytest.raises(ValueError):
        pm_mc([0.0], codebook, LAY, "rician", 10, seed=0)
    with pytest.raises(ValueError):
        pm_mc([0.0], codebook, LAY, "wideband", 0, seed=0)
    with pytest.raises(ValueError, match="empty"):
        pm_mc([], codebook, LAY, "wideband", 10, seed=0)
    # an infinite gain would turn the idle carriers' 0 * r into nan
    with pytest.raises(ValueError, match="finite"):
        pm_mc([0.0, float("inf")], codebook, LAY, "wideband", 10, seed=0)
    # the fading check does not wait for a grid point to build a model
    with pytest.raises(ValueError, match="fading"):
        pm_mc([], codebook, LAY, "rician", 10, seed=0)


def test_mc_results_are_seed_reproducible(codebook):
    a = pf_family_mc(0.55, codebook, LAY, 50_000, seed=64)
    b = pf_family_mc(0.55, codebook, LAY, 50_000, seed=64)
    assert a == b
    c = pf_family_mc(0.55, codebook, LAY, 50_000, seed=65)
    assert c != a  # different seed explores different draws


def test_pm_mc_vanishes_at_high_snr(codebook):
    [(estimate, ci)] = pm_mc([10.0], codebook, LAY, "wideband", 20_000, seed=66)
    assert estimate == 0.0
    assert ci[0] == 0.0 and ci[1] < 1e-3


# ---------------------------------------------------------------------------
# carrier-count sweep and calculators


def test_sweep_minimum_pin():
    points = sweep_active_carriers(56, 0.0)
    assert len(points) == 55
    best = sweep_argmin(points)
    assert best.q == 25
    assert best.pf == pytest.approx(1.36529208e-13, rel=1e-6)
    assert all(pt.pf_mc is None for pt in points)


def test_sweep_monte_carlo_cross_check():
    points = sweep_active_carriers(8, 0.0, trials=40_000, seed=67)
    for pt in points:
        assert pt.pf_mc is not None
        sigma = math.sqrt(pt.pf * (1 - pt.pf) / 40_000)
        assert abs(pt.pf_mc - pt.pf) <= 4 * sigma
        assert pt.pf_mc_ci95[0] <= pt.pf_mc <= pt.pf_mc_ci95[1]
    with pytest.raises(ValueError):
        sweep_active_carriers(1, 0.0)
    with pytest.raises(ValueError):
        sweep_active_carriers(8, 0.0, trials=-3)


def test_range_gain_pins():
    assert range_gain(20.0, 3.0) == pytest.approx(4.64158883, abs=1e-8)
    assert range_gain(20.0, 6.0) == pytest.approx(2.15443469, abs=1e-8)
    assert range_gain(0.0, 3.0) == 1.0
    with pytest.raises(ValueError):
        range_gain(20.0, 0.0)


def test_overhead_pins():
    assert overhead(1500) == 8 / 131
    assert overhead(750) == 8 / 69  # 62.5 data frames round up to 63
    assert overhead(120, sync_frames=0, tag_frames=5) == 0.5  # 10 data frames
    with pytest.raises(ValueError):
        overhead(0)
    with pytest.raises(ValueError):
        overhead(1500, sync_frames=-6)
    with pytest.raises(ValueError):
        overhead(1500, tag_frames=0)


# ---------------------------------------------------------------------------
# operating curves


def test_roc_closed_form_curve():
    model = AnalysisModel(snr_db=1.0, fading="wideband")
    curve = build_roc(model, [0.5, 0.55, 0.62, 0.7])
    assert [pt.gamma for pt in curve.points] == [0.5, 0.55, 0.62, 0.7]
    for left, right in zip(curve.points, curve.points[1:]):
        assert right.pd <= left.pd and right.pf <= left.pf
    for pt in curve.points:
        assert pt.pf == pf_single(pt.gamma)
        assert pt.pf_ci95 == (pt.pf, pt.pf)
        assert not pt.flagged
    with pytest.raises(ValueError):
        build_roc(model, [0.62], trials=-5)


def test_roc_flags_unresolved_monte_carlo_points(codebook):
    model = AnalysisModel(snr_db=1.0, fading="wideband")
    single = _single_word_family(codebook)
    curve = build_roc(model, [0.45, 0.62], codebook=single, trials=2000, seed=68)
    by_gamma = {pt.gamma: pt for pt in curve.points}
    assert not by_gamma[0.45].flagged  # pf near one resolves immediately
    assert by_gamma[0.62].flagged  # pf ~ 1e-7 cannot resolve in 2000 trials


def _max_ratios_by_chunk(codebook, layout, trials, seed, denominator="band"):
    """Each chunk's per-draw family max ratios, drawn as pf_family_mc did
    before the gamma grid shared one draw and before chunks were walked in
    row blocks: whole-chunk draws and products, every codeword's ratio."""
    masks = mask_matrix(codebook, layout)[:, np.asarray(layout.band_wide)]
    masks = masks.astype(np.float64)
    dof_wide = 2 * layout.thin_per_wide
    extra = len(layout.denominator_wide(denominator)) - 2 * layout.groups
    chunk = analysis._MC_CHUNK
    for chunk_index, lo in enumerate(range(0, trials, chunk)):
        m = min(chunk, trials - lo)
        rng = np.random.default_rng([seed, chunk_index])
        draws = rng.chisquare(dof_wide, size=(m, 2 * layout.groups))
        in_mask = draws @ masks.T
        total = draws.sum(axis=1)
        if extra:
            total += rng.chisquare(dof_wide * extra, size=m)
        yield (in_mask / (total[:, None] - in_mask)).max(axis=1)


def _pf_family_by_gamma(gamma, codebook, layout, trials, seed, denominator="band"):
    """Oracle: the per-gamma chunk loop, redrawing every chunk."""
    t = gamma / (1.0 - gamma)
    hits = sum(
        int(np.count_nonzero(ratios > t))
        for ratios in _max_ratios_by_chunk(codebook, layout, trials, seed, denominator)
    )
    return _wilson_oracle(hits, trials)


def _wilson_oracle(hits, trials):
    ci = stats.binomtest(hits, trials).proportion_ci(
        confidence_level=0.95, method="wilson"
    )
    return hits / trials, (float(ci.low), float(ci.high))


def _tie_gamma(codebook, layout, trials, seed, denominator):
    """A gamma whose threshold t equals one of the drawn ratios exactly."""
    for ratio in next(_max_ratios_by_chunk(codebook, layout, trials, seed, denominator)):
        gamma = ratio / (1.0 + ratio)
        if gamma / (1.0 - gamma) == ratio:
            return float(gamma)
    raise AssertionError("no drawn ratio round-trips through gamma")


# 32 wide carriers of 8 thin bins: 12 two-carrier groups and 8 nulls
SMALL = CarrierLayout(
    fft_size=256,
    wide_total=32,
    groups=12,
    null_wide=frozenset({0, 1, 2, 16, 28, 29, 30, 31}),
)
SMALL_BOOK = Codebook(
    "small-12", 12, 1,
    tuple(format(w, "012b") for w in (0, 0xFFF, 0xA5A, 0x3C3, 0x0F0, 0x555)),
)


_BLOCK = analysis._MC_BLOCK
_CHUNK = analysis._MC_CHUNK
# trial counts whose chunks end one row short of a block, one row past a
# full chunk's eight blocks, and in a block of 2 * _BLOCK - 1 rows
_BLOCK_EDGES = [_BLOCK - 1, _CHUNK + _BLOCK + 1, 3 * _BLOCK - 1]
_BLOCK_EDGE_IDS = ["short-block", "chunk-then-block-plus-one", "ragged-last-block"]


@pytest.mark.parametrize(
    "layout, trials, seed, denominator",
    [
        (LAY, 5_000, 81, "band"),  # one partial chunk
        (LAY, 70_001, 82, "band"),  # two full chunks and a one-draw tail
        (SMALL, 40_000, 83, "band"),
        *[(LAY, trials, 89, name) for trials in _BLOCK_EDGES for name in ("band", "all")],
    ],
    ids=["below-chunk", "ragged", "32-wide",
         *[f"{edge}-{name}" for edge in _BLOCK_EDGE_IDS for name in ("band", "all")]],
)
def test_roc_monte_carlo_matches_the_per_gamma_loop(codebook, layout, trials, seed, denominator):
    book = codebook if layout is LAY else SMALL_BOOK
    tie = _tie_gamma(book, layout, trials, seed, denominator)
    gammas = sorted([0.45, 0.5, 0.55, 0.58, 0.62, tie])
    model = AnalysisModel(layout=layout, snr_db=0.0)
    memo = analysis._family_max_ratios
    memo.cache_clear()
    curve = build_roc(model, gammas, codebook=book, trials=trials, seed=seed,
                      denominator=denominator)
    # one draw for the whole grid, kept for the caller's next curve
    info = memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, len(gammas) - 1, 1)
    ratios = memo(book, layout, trials, seed, denominator)
    assert memo.cache_info().misses == 1
    memo.cache_clear()
    # the row blocks give every draw the ratio the whole-chunk loop gave it
    oracle = np.concatenate(list(_max_ratios_by_chunk(book, layout, trials, seed, denominator)))
    assert np.array_equal(ratios, np.sort(oracle))
    assert [pt.gamma for pt in curve.points] == gammas
    for pt in curve.points:
        want_pf, want_ci = _pf_family_by_gamma(pt.gamma, book, layout, trials, seed, denominator)
        assert pt.pf == want_pf
        assert pt.pf_ci95 == want_ci
    # the draw at the tie does not clear its own threshold
    by_gamma = {pt.gamma: pt for pt in curve.points}
    just_below = float(np.nextafter(tie, 0.0))
    below = _pf_family_by_gamma(just_below, book, layout, trials, seed, denominator)
    assert by_gamma[tie].pf < below[0]


@pytest.mark.parametrize(
    "gammas, code",
    [("0.55,0.62", 0), ("0.55,1.5", 1)],
    ids=["returns", "bad-gamma"],
)
def test_curves_draws_the_family_once_and_frees_it(tmp_path, monkeypatch, gammas, code):
    memo = analysis._family_max_ratios
    memo.cache_clear()
    seen = []

    def observed(gamma, *key):
        result = pf_family_mc(gamma, *key)
        seen.append(memo(*key))  # a hit returns the very array drawn
        return result

    monkeypatch.setattr(analysis, "pf_family_mc", observed)
    argv = ["curves", "--snr=0,1,2", f"--gamma={gammas}", "--trials", "1000",
            "--seed", "84", "--out", str(tmp_path / "curves.txt")]
    assert cli.main(argv) == code
    # the draw made at the first grid point serves every SNR point
    calls = 3 * 2 if code == 0 else 1
    assert len(seen) == calls
    assert all(ratios is seen[0] for ratios in seen)
    assert memo.cache_info().currsize == 0


def _pm_mc_one_snr(snr_db, codebook, layout, fading, trials, seed):
    """Oracle: the single-SNR misclassification loop, which drew every
    chunk afresh for its one SNR before the grid shared one draw."""
    r = AnalysisModel(layout=layout, snr_db=snr_db, fading=fading).p_over_n
    masks = mask_matrix(codebook, layout)[:, np.asarray(layout.band_wide)].astype(bool)
    beta2 = 2 * layout.active_thin_per_wide
    guard2 = 2 * (layout.thin_per_wide - layout.active_thin_per_wide)
    wides = 2 * layout.groups
    chunk = analysis._MC_CHUNK
    hits = 0
    for chunk_index, lo in enumerate(range(0, trials, chunk)):
        m = min(chunk, trials - lo)
        rng = np.random.default_rng([seed, chunk_index])
        sent = rng.integers(0, codebook.size, size=m)
        tone_noise = rng.chisquare(beta2, size=(m, wides))
        guard = rng.chisquare(guard2, size=(m, wides)) if guard2 > 0 else 0.0
        if fading == "wideband":
            tone_active = (1.0 + r) * tone_noise
        else:
            tone_active = rng.noncentral_chisquare(beta2, beta2 * r, size=(m, wides))
        powers = np.where(masks[sent], tone_active, tone_noise) + guard
        decoded = np.argmax(powers @ masks.T, axis=1)
        hits += int(np.count_nonzero(decoded != sent))
    return _wilson_oracle(hits, trials)


# every thin carrier of an active wide carrier carries a tone: no guard bins
FULL_ACTIVE = CarrierLayout(active_thin_per_wide=8)


@pytest.mark.parametrize("fading", ["wideband", "narrowband"])
@pytest.mark.parametrize(
    "layout, snr_dbs, trials, seed",
    [
        (LAY, [-2.0, -6.0, -4.0, -2.0], 5_000, 85),  # unsorted, -2 dB twice
        (LAY, [-3.0], 5_000, 86),
        (LAY, [-2.0, -4.0], 70_001, 87),  # two full chunks and a one-draw tail
        (FULL_ACTIVE, [-4.0, -7.0], 5_000, 88),
        *[(LAY, [-2.0, -4.0], trials, 90) for trials in _BLOCK_EDGES],
        (FULL_ACTIVE, [-4.0, -7.0], _CHUNK + _BLOCK + 1, 91),
    ],
    ids=["unsorted-duplicate", "single-point", "ragged", "full-active",
         *_BLOCK_EDGE_IDS, "full-active-chunk-then-block-plus-one"],
)
def test_pm_mc_grid_matches_the_per_snr_loop(codebook, layout, snr_dbs, trials, seed, fading):
    got = pm_mc(snr_dbs, codebook, layout, fading, trials, seed)
    want = [_pm_mc_one_snr(s, codebook, layout, fading, trials, seed) for s in snr_dbs]
    assert got == want
    assert all(estimate > 0 for estimate, _ in got)  # every point resolves a miss


def _pf_pairs_by_chunk(gamma, layout, trials, seed):
    """Oracle: pf_pairs_bound's loop before chunks were walked in row
    blocks, one whole-chunk draw per chunk."""
    t = gamma / (1.0 - gamma)
    hits = 0
    for chunk_index, lo in enumerate(range(0, trials, _CHUNK)):
        m = min(_CHUNK, trials - lo)
        rng = np.random.default_rng([seed, chunk_index])
        draws = rng.chisquare(2 * layout.thin_per_wide, size=(m, 2 * layout.groups))
        pairs = draws.reshape(m, layout.groups, 2)
        ratio = pairs.max(axis=2).sum(axis=1) / pairs.min(axis=2).sum(axis=1)
        hits += int(np.count_nonzero(ratio > t))
    return _wilson_oracle(hits, trials)


@pytest.mark.parametrize("trials", _BLOCK_EDGES, ids=_BLOCK_EDGE_IDS)
def test_pf_pairs_bound_matches_the_whole_chunk_loop(trials):
    for gamma in (0.58, 0.6):
        got = pf_pairs_bound(gamma, LAY, trials, 92)
        assert got == _pf_pairs_by_chunk(gamma, LAY, trials, 92)
        assert got[0] > 0  # the threshold resolves hits


@settings(max_examples=100)
@given(
    st.one_of(
        st.integers(min_value=1, max_value=_CHUNK),
        st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK]),
    )
)
def test_row_blocks_tile_the_chunk(m):
    blocks = analysis._row_blocks(m)
    assert blocks[0].start == 0 and blocks[-1].stop == m
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [b.stop - b.start for b in blocks]
    assert all(b.step is None for b in blocks)
    if m < _BLOCK:
        assert sizes == [m]
    else:
        assert all(_BLOCK <= size < 2 * _BLOCK for size in sizes)


def _traced_peak_mib(run):
    """tracemalloc's peak for run(), after one small warm-up call has
    loaded scipy and filled the codebook's caches."""
    run(1)
    analysis._family_max_ratios.cache_clear()
    tracemalloc.start()
    try:
        run(2 * _CHUNK)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
        analysis._family_max_ratios.cache_clear()


@pytest.mark.parametrize(
    "run, bound_mib",
    [
        (lambda book, trials: analysis._family_max_ratios(book, LAY, trials, 93, "band"), 8),
        (lambda book, trials: analysis._family_max_ratios(book, LAY, trials, 93, "all"), 8),
        (lambda book, trials: pf_pairs_bound(0.55, LAY, trials, 93), 8),
        (lambda book, trials: pm_mc([0.0, -2.0], book, LAY, "wideband", trials, 93), 24),
        (lambda book, trials: pm_mc([0.0, -2.0], book, LAY, "narrowband", trials, 93), 36),
    ],
    ids=["family-band", "family-all", "pairs-bound", "pm-wideband", "pm-narrowband"],
)
def test_monte_carlo_working_set_is_bounded_by_the_block(codebook, run, bound_mib):
    # a whole-chunk pass holds several (32768, 56) float64 temporaries of
    # 14 MiB each; a block's are an eighth of that
    assert _traced_peak_mib(lambda trials: run(codebook, trials)) <= bound_mib


def test_roc_curve_rejects_non_monotone_points():
    with pytest.raises(ValueError):
        RocCurve(
            points=(
                RocPoint(0.5, 0.9, 0.1, (0.1, 0.1)),
                RocPoint(0.6, 0.95, 0.05, (0.05, 0.05)),
            ),
            trials=0,
            seed=0,
        )
    with pytest.raises(ValueError):
        RocCurve(
            points=(
                RocPoint(0.6, 0.9, 0.1, (0.1, 0.1)),
                RocPoint(0.5, 0.95, 0.2, (0.2, 0.2)),
            ),
            trials=0,
            seed=0,
        )


# ---------------------------------------------------------------------------
# property checks


@settings(max_examples=30)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=-10.0, max_value=12.0),
    st.sampled_from(("wideband", "narrowband")),
)
def test_probabilities_stay_in_range(gamma, snr_db, fading):
    model = AnalysisModel(snr_db=snr_db, fading=fading)
    pd = pd_single(gamma, model)
    pf = pf_single(gamma)
    assert 0.0 <= pf <= 1.0
    assert 0.0 <= pd <= 1.0
    assert pd >= pf - 1e-12
