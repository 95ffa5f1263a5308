"""The design rules that keep the package simple, as one table.

A row names a rule, the files it reads (globs from the repository root) and
a regex, then either the files allowed to match it or the exact number of
matches in all its files. The regex runs over each whole file in MULTILINE
mode, so ^ and $ are line ends and \\s also crosses a line break. A new
design rule is a new row.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC, SCRIPTS, TESTS, CLI = "src/tagspot/*.py", "scripts/*.py", "tests/*.py", "src/tagspot/cli.py"
ANALYSIS, DETECTOR, IQFILE = "src/tagspot/analysis.py", "src/tagspot/detector.py", "src/tagspot/iqfile.py"
CARRIERS, SCENARIO = "src/tagspot/carriers.py", "src/tagspot/scenario.py"

RULES = [  # (name, files, regex, files allowed to match it, or the exact count)
    # waveform is the only module that transforms or reorders; spectra are plain arrays
    ("no fftshift and no spectrum type", (SRC,), r"np\.fft\.i?fftshift|TagSpectrum", ()),
    ("one home for the transform order", (SRC,), r"np\.fft", ("src/tagspot/waveform.py",)),
    # iqfile writes and checks the sample rate, and cli copies it from input to output
    ("the sample rate is sidecar metadata", (SRC,), r"sample_rate", (IQFILE, CLI)),
    # read_iq and write_iq convert one block at a time, never the whole file
    ("IQ files stream in fixed blocks", (IQFILE,), r"read_bytes|write_bytes|tobytes", ()),
    # the dict readers walk CarrierLayout's fields (null_wide excepted: it is checked
    # to be a JSON list)
    ("one home for the layout fields", (SRC,),
     r'"(thin_per_wide|active_thin_per_wide|groups|wide_total|fft_size|cp_fraction)"', ()),
    # CarrierLayout caches its index arrays; detector._windows is the one strided view
    ("layout geometry is built once", (SRC,),
     r"sliding_window_view|np\.(array|asarray)\(layout\.(group_map|active_thin_offsets)\)", ()),
    # analysis.build_roc frees the memoized family draws it made
    ("one owner for the family draws", (SRC,), r"_family_max_ratios", (ANALYSIS,)),
    # the family false alarm and the pairs bound draw their noise in _max_ratios
    ("one noise-only walk", (ANALYSIS,), r"chisquare\(dof_wide", 1),
    # no walk holds a whole (m, ...) chunk draw: each draws one row block at a time
    ("Monte Carlo chunks draw in row blocks", (ANALYSIS,), r"size=\(m,", 0),
    # each narrowband SNR of pm_mc draws from its own copy of the chunk's generator
    ("no saved generator state", (SRC,), r"bit_generator", ()),
    # gated windows and windows at or below gamma update the floor at one site
    ("one noise-floor update in the spotter", (DETECTOR,), r"noise_tracker_update\(noise_estimate", 1),
    # numeric options are cli._number and grids cli._grid; config fields become flags,
    # never parser defaults; every rejection is a ValueError
    ("options are checked where they are declared", (CLI,),
     r"type=(int|float)[,)]|set_defaults\(\*\*|_parse_grid\(|CliError", ()),
    ("src writes event files but never reads them", (SRC,), r"parse_events|from_line", ()),
    # commands return nothing and fail by raising, so cli.main's returns are the exit codes
    ("exit codes have one home", (CLI,), r"^ +return [0-9]+$", 3),
    ("one JSON parser", (SRC,), r"_unique_fields|json\.loads", (IQFILE,)),
    # cli._lines writes every key: value line; the seed rule, the --in reader and the
    # header each have one home in cli
    ("one writer for every key: value line", (CLI,), r'print\(f"', ()),
    ("one home for the seed, --in and header", (CLI,), r"_require_seed|_input_layout|_header_lines", ()),
    # cli._fmt formats every number the package and its scripts write
    ("one number format", (SRC, SCRIPTS), r":\.9g", (CLI,)),
    ("cli writes the event rows", (SRC,), r"def serialize_events", (CLI,)),
    ("codebook errors are plain ValueErrors", (SRC,), r"def to_line|CodebookError", ()),
    # channel.p_over_n is the one spelling of the SNR rule's alpha/beta factor
    ("one home for the SNR factor", (SRC,), r"thin_per_wide\s*/\s*[\w.]*thin_per_wide",
     ("src/tagspot/channel.py",)),
    # a Codebook keeps the distance it measures; modulate derives the PAPR cap outcome
    ("one source per derived fact", (SRC, SCRIPTS), r"verify_min_distance|PaprLimitedTag|met_cap", ()),
    # carriers.check_gamma and analysis._check_fading; DetectorConfig builds its arrays
    ("one gamma range check", (SRC,), r"gamma must lie strictly between 0 and 1", 1),
    ("one analysis fading check", (SRC,), r"fading must be one of \{FADING_ANALYSIS_MODELS\}", 1),
    # the CLI's gamma options check through carriers.check_gamma, not a range of their own
    ("gamma options check through check_gamma", (CLI,), r"_number\(float, 0, 1\b|_grid\(0, 1\b", ()),
    ("no cached property in the detector", (DETECTOR,), r"cached_property", ()),
    # every statistic is a scipy.special ufunc imported where it is used: scipy.stats
    # adds about 72 MB and 0.8 s to every curves and sweep run
    ("analysis loads scipy.special only", (SRC,), r"scipy import stats|scipy\.stats|^(from|import) scipy", ()),
    # analysis._mc_map is the one place a second thread runs: two Monte Carlo chunks at once
    ("threads have one home", (SRC,), r"concurrent\.futures|threading|multiprocessing", 1),
    ("one home for the tone count", (SRC, SCRIPTS, TESTS),
     r"active_thin_per_wide\s*\*\s*[\w.]*groups|groups\s*\*\s*[\w.]*active_thin_per_wide", (CARRIERS,)),
    # tests and scripts take the tag, the tagged stream, the trial, the interferer density
    # and the time-domain leak from scenario
    ("one home for the tag scenarios", (SRC, SCRIPTS, TESTS),
     r"\b(_detection_trial|_stream_with_tag|_measured_offset_leak|measured_leak|_interferer_band_density)\b"
     r"|float\([\w.]*\btones\)", (SCENARIO, "tests/test_design_rules.py")),
    ("the package never loads its scenarios", (SRC,), r"(\.|\bimport )scenario\b", (SCENARIO,)),
    # codebook builds the built-in family (GF(27) arithmetic is mod 3) and reads no
    # package data
    ("one home for the built-in family", (SRC, SCRIPTS, TESTS), r"% 3\b|importlib\.resources",
     ("src/tagspot/codebook.py", "tests/test_design_rules.py")),
    # a Codebook measures its word length from its words; only a file's header states it
    ("a codebook's word length is measured", (SRC, SCRIPTS, TESTS), r"\bword_length=",
     ("tests/test_design_rules.py",)),
    # a CarrierLayout works out wide_total and fft_size; no call states them (the
    # regex follows two levels of nested brackets inside the call)
    ("a layout's sizes are worked out", (SRC, SCRIPTS, TESTS),
     r"CarrierLayout\((?:[^()]|\((?:[^()]|\([^()]*\))*\))*?\b(fft_size|wide_total)=",
     ("tests/test_design_rules.py",)),
    # a design rule is a row here, not a step of the workflow
    ("no design rule in CI", (".github/workflows/*.yml",), r"grep", ()),
]


def _matches(files, regex):
    """(path, line number) of every match of regex in the files."""
    paths = sorted({p for glob in files for p in ROOT.glob(glob)})
    assert paths, f"no file matches {files}"
    for path in paths:
        text = path.read_text()
        for m in re.finditer(regex, text, re.MULTILINE):
            yield path.relative_to(ROOT).as_posix(), text.count("\n", 0, m.start()) + 1


def _rows(kind):
    return [pytest.param(*row[1:], id=row[0]) for row in RULES if isinstance(row[3], kind)]


@pytest.mark.parametrize("files, regex, allowed", _rows(tuple))
def test_a_rule_matches_only_where_it_is_allowed(files, regex, allowed):
    assert [m for m in _matches(files, regex) if m[0] not in allowed] == []


@pytest.mark.parametrize("files, regex, count", _rows(int))
def test_a_counted_rule_has_its_exact_count(files, regex, count):
    assert len(list(_matches(files, regex))) == count
