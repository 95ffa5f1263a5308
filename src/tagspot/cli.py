"""Command-line front end: reproducible experiment runs and IQ file I/O.

Subcommands: modulate, impair, spot, curves, leakage, sweep, range,
overhead, codebook-verify. Every command accepts --config pointing at a
JSON document stamped with config_version. Its fields are the command's
own flags, put before the command line's, so flags win: {"snr": 0} means
--snr=0 and {"random": true} means --random. A field must name an option
of the command and have its JSON kind: a number for a float option, an
integral number for an integer option (20.0 counts), true or false for an
on/off flag, a string for any other option (paths, comma-separated
grids), never null; the option's type= then checks it as it checks a
flag. The commands that read a carrier layout also take a "layout" field,
which must describe a valid layout; spot and impair reject one that
differs from the layout in the input's sidecar.

Only the commands that draw randomness (modulate, impair, curves, sweep)
take --seed, and they demand it for stochastic work; identical config plus
seed produces byte-identical primary output: tables carry no timestamps
and every float is formatted with a fixed precision.

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .analysis import (
    FADING_ANALYSIS_MODELS,
    build_roc,
    expected_offset_leak,
    leakage_block,
    leakage_single,
    overhead,
    payload_frames,
    pm_mc,
    range_gain,
    sweep_active_carriers,
)
from .carriers import CarrierLayout, REFERENCE_LAYOUT, STRENGTH_DENOMINATORS, check_gamma, layout_from_dict
from .channel import FADING_MODELS, apply_awgn, apply_cfo, apply_fading, gain_for_sir, mix, noise_power_for_snr
from .codebook import Codebook, builtin_codebook, codeword_to_mask, load_codebook
from .detector import DetectorConfig, spot_report
from .iqfile import read_iq, read_json_object, write_iq
from .waveform import (
    interference_frame_len,
    mean_power,
    synthesize_data_interference,
    synthesize_tag_papr_limited,
)

CONFIG_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for I/O
    def error(self, message: str) -> None:
        raise ValueError(f"{self.prog}: {message}")


def _fmt(value) -> str:
    """Deterministic scalar formatting for every line the CLI writes."""
    if isinstance(value, (float, np.floating)):  # first: event rows are mostly floats
        return f"{float(value):.9g}"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "none" if value is None else str(value)


def _lines(fields, prefix: str = "") -> str:
    """One "key: value" line per (key, value) field: every header, summary
    and report line the CLI writes."""
    return "".join(f"{prefix}{key}: {_fmt(value)}\n" for key, value in fields)


def _rows(rows, sep: str = " ") -> str:
    """One line per row of a table or event file, its values joined by sep."""
    return "".join(sep.join(map(_fmt, row)) + "\n" for row in rows)


def serialize_events(events) -> str:
    """An event file's body: a column comment, then one tab-separated row
    per DetectionEvent. Every event passed the center-of-mass test, so its
    com_valid column is 1."""
    columns = "# interval_start\tcodeword_index\tstrength\tcom_position\tsnr_estimate_db\tcom_valid\n"
    return columns + _rows(((*event, 1) for event in events), "\t")


def _config_fields(args: argparse.Namespace) -> dict:
    """The --config document's parameter fields, checked against the
    command: every field must name one of its parameters."""
    doc = read_json_object(args.config)
    version = doc.pop("config_version", None)
    if isinstance(version, bool) or version != CONFIG_VERSION:
        raise ValueError(f"config must declare config_version: {CONFIG_VERSION}")
    command = doc.pop("command", args.command)
    if command != args.command:
        raise ValueError(f"config is for {command!r}, not {args.command!r}")
    unknown = sorted(set(doc) - (set(vars(args)) - {"config", "func"}))
    if unknown:
        raise ValueError(f"unknown config fields for {args.command}: {', '.join(unknown)}")
    return doc


def _read_input(args: argparse.Namespace) -> tuple:
    """The --in file's frame and sidecar, and its layout: the one the
    sidecar declares, which a config layout must equal, or without one the
    config layout (or the reference one)."""
    if args.in_path is None:
        raise ValueError("--in is required")
    frame, meta = read_iq(args.in_path)
    if "layout" not in meta:
        return frame, meta, args.layout or REFERENCE_LAYOUT
    layout = layout_from_dict(meta["layout"])
    if args.layout is not None and args.layout != layout:
        raise ValueError("config layout differs from the layout in the input's sidecar")
    return frame, meta, layout


def _number(kind: type, low: float = -math.inf, high: float = math.inf, open: bool = False,
            check: "Callable[[float], None] | None" = None):
    """A numeric option's type=: a finite value of kind (int or float) in
    [low, high], or in (low, high) when open is set, that passes check, the
    package's own rule for the value if it has one (its ValueError is the
    option's message). The kind is also the JSON kind that _field_flags asks
    of the option's config field."""
    def parse(text: str):
        value = kind(text)  # float() parses "inf" and "nan"
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
        if value < low or value > high or (open and value in (low, high)):
            bounds = [f"{'above' if open else 'at least'} {low:g}"] if low > -math.inf else []
            bounds += [f"{'below' if open else 'at most'} {high:g}"] if high < math.inf else []
            raise argparse.ArgumentTypeError(f"must be {' and '.join(bounds)}, got {text!r}")
        if check is not None:
            try:
                check(value)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    parse.kind = kind
    return parse


# the bound of every dB option: 10^(+-300/10) keeps each power ratio made
# from a dB value a finite, nonzero float
_DB_LIMIT = 300.0
_DB = _number(float, -_DB_LIMIT, _DB_LIMIT)
_GAMMA = _number(float, check=check_gamma)


def _grid(element: "Callable[[str], float]"):
    """A grid option's type=: comma-separated values, at least one, each
    parsed by element, a _number(float, ...). Its JSON kind is a string."""

    def parse(text: str) -> "list[float]":
        values = [element(part) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"must list at least one value, got {text!r}")
        return values
    parse.__name__ = "grid"
    parse.kind = str
    return parse


_JSON_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _field_flags(sub: argparse.ArgumentParser, fields: dict) -> "list[str]":
    """The config fields as the command's flags, each checked for its
    option's JSON kind first (see the module docstring); a true on/off
    field is the bare flag and a false one no flag."""
    flags = []
    for action in sub._actions:
        if action.dest not in fields:
            continue
        value, option = fields[action.dest], action.option_strings[0]
        kind = bool if action.nargs == 0 else getattr(action.type, "kind", str)
        if kind is int and type(value) is float and value.is_integer():
            value = int(value)
        if type(value) is not kind and not (kind is float and type(value) is int):
            raise ValueError(f"{option} must be {_JSON_KINDS[kind]}, got {value!r}")
        if value is not False:  # only an on/off field can be False here
            flags.append(option if kind is bool else f"{option}={value}")
    return flags


def _seed(args: argparse.Namespace, why: "str | None") -> int:
    """The run's seed, 0 when none was given; why says what the run draws
    at random, and None that it draws nothing, so needs no seed."""
    if why is not None and args.seed is None:
        raise ValueError(f"--seed is required: {why}")
    return 0 if args.seed is None else args.seed


def _get_codebook(path: "str | None", layout: "CarrierLayout | None") -> Codebook:
    """The --codebook file's family or the built-in one, with one bit per group of layout."""
    codebook = builtin_codebook() if path is None else load_codebook(path)
    if layout is not None and codebook.word_length != layout.groups:
        raise ValueError(f"word length {codebook.word_length} != layout groups {layout.groups}")
    return codebook


def _header(command: str, fields) -> str:
    """A table's or event file's "# key: value" header."""
    return _lines([("command", command), ("config_version", CONFIG_VERSION), *fields], "# ")


def _layout_summary(layout: CarrierLayout) -> str:
    nulls = ",".join(str(i) for i in sorted(layout.null_wide))
    return (
        f"fft_size={layout.fft_size} wide_total={layout.wide_total} "
        f"thin_per_wide={layout.thin_per_wide} "
        f"active_thin_per_wide={layout.active_thin_per_wide} "
        f"groups={layout.groups} cp_fraction={_fmt(layout.cp_fraction)} "
        f"null_wide={nulls}"
    )


def _emit(out: "str | None", text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_table(out, command: str, fields, columns: str, rows) -> None:
    """Header fields, then the columns line, then one line per row."""
    _emit(out, _header(command, [*fields, ("columns", columns)]) + _rows(rows))


# ---------------------------------------------------------------------------
# commands


def _cmd_modulate(args: argparse.Namespace) -> None:
    layout = args.layout or REFERENCE_LAYOUT
    codebook = _get_codebook(args.codebook, layout)
    seed = _seed(args, "tone phases are random")
    if args.out is None:
        raise ValueError("--out is required")

    rng = np.random.default_rng(seed)
    word_index = int(rng.integers(codebook.size)) if args.random else args.word or 0
    if not 0 <= word_index < codebook.size:
        raise ValueError(f"codeword index {word_index} out of range 0..{codebook.size - 1}")

    mask = codeword_to_mask(codebook.words[word_index], layout)
    # without a cap the first draw is accepted
    cap = math.inf if args.papr_cap is None else args.papr_cap
    frame, papr_db, attempts = synthesize_tag_papr_limited(
        mask, layout, args.power, cap, rng, args.max_attempts)

    extra = {
        "command": "modulate",
        "codebook": codebook.name,
        "codeword_index": word_index,
        "seed": seed,
        "total_power": args.power,
        "papr_db": round(papr_db, 9),
    }
    capped = []
    if args.papr_cap is not None:
        met = papr_db <= cap  # the redraw stops at the first draw that meets the cap
        capped = [("papr_cap_met", met)]
        extra.update(papr_cap_db=args.papr_cap, papr_cap_met=met, attempts=attempts)
    write_iq(args.out, frame, layout=layout, extra=extra, sample_rate=args.sample_rate)

    sys.stdout.write(_lines([("codeword_index", word_index), ("samples", len(frame)),
                             ("total_power", args.power), ("papr_db", papr_db), *capped,
                             ("out", args.out)]))


def _cmd_impair(args: argparse.Namespace) -> None:
    if args.out is None:
        raise ValueError("--out is required")
    frame, meta, layout = _read_input(args)
    if args.snr is not None and len(frame) != layout.frame_len:
        raise ValueError(f"--snr needs one tag frame ({layout.frame_len} samples), got {len(frame)}")
    stochastic = args.snr is not None or args.sir is not None or args.fading != "none"
    why = "noise, fading and interference draw randomness" if stochastic else None
    rng = np.random.default_rng(_seed(args, why))

    in_power = mean_power(frame)
    # documented order: fading, then cfo, then interference, then noise;
    # fading "none" and cfo 0 return the frame untouched and draw nothing
    frame = apply_fading(frame, args.fading, rng, layout)
    frame = apply_cfo(frame, args.cfo, layout)
    tag = frame  # --snr refers to the tag alone, before interference
    if args.sir is not None:
        span = max(len(frame) - args.interference_offset, 1)
        n_frames = math.ceil(span / interference_frame_len(layout))
        interference = synthesize_data_interference(layout, n_frames, 1.0, rng)
        gain = gain_for_sir(frame, interference, args.interference_offset, args.sir)
        frame = mix([(frame, 0, 1.0), (interference, args.interference_offset, gain)])
    if args.snr is not None:
        # the transform body holds each tone once; the prefix repeats part of it
        p_tone = float(np.sum(np.abs(tag.samples[layout.cp_len :]) ** 2)) / layout.tones
        frame = apply_awgn(frame, noise_power_for_snr(args.snr, p_tone, layout), rng)

    extra = {
        "command": "impair",
        "snr_db": args.snr,
        "cfo": args.cfo,
        "fading": args.fading,
        "sir_db": args.sir,
        "interference_offset": args.interference_offset,
        "seed": args.seed,
        "source": args.in_path,
    }
    write_iq(args.out, frame, layout=layout, extra=extra, sample_rate=meta["sample_rate"])

    out_power = mean_power(frame)
    summary = [("in_power", in_power), ("out_power", out_power)]
    if in_power > 0 and out_power > 0:
        summary.append(("power_ratio_db", 10.0 * math.log10(out_power / in_power)))
    sys.stdout.write(_lines([*summary, ("out", args.out)]))


def _cmd_spot(args: argparse.Namespace) -> None:
    frame, _, layout = _read_input(args)
    codebook = _get_codebook(args.codebook, layout)
    detector = DetectorConfig(layout=layout, codebook=codebook, gamma=args.gamma,
                              carrier_sense_snr_db=args.carrier_sense, denominator=args.denominator)
    report = spot_report(frame, detector)

    windows = [("windows_total", report.windows_total), ("windows_gated", report.windows_gated)]
    events = ("events", len(report.events))
    header = _header("spot", [
        ("in", args.in_path), ("codebook", codebook.name), ("gamma", args.gamma),
        ("carrier_sense_snr_db", args.carrier_sense), ("denominator", args.denominator),
        ("layout", _layout_summary(layout)), *windows, events,
    ])
    _emit(args.out, header + serialize_events(report.events))
    if args.out is not None:
        sys.stdout.write(_lines([
            *windows, ("windows_below_gamma", report.windows_below_gamma),
            ("windows_com_rejected", report.windows_com_rejected), ("candidates", report.candidates),
            events, ("out", args.out),
        ]))


def _cmd_curves(args: argparse.Namespace) -> None:
    layout = args.layout or REFERENCE_LAYOUT
    codebook = _get_codebook(args.codebook, layout)
    # --include-null-noise is this command's spelling of denominator="all"
    denominator = "all" if args.include_null_noise else "band"
    seed = _seed(args, "Monte Carlo columns are requested" if args.trials > 0 else None)
    pms = [float("nan")] * len(args.snr)
    if args.trials > 0:
        # one misclassification draw for the whole grid, made before the
        # family draws so the two are never in memory together
        pms = [pm for pm, _ in pm_mc(args.snr, codebook, layout, args.fading, args.trials, seed)]
    curves = build_roc(args.snr, args.gamma, layout, args.fading, codebook, args.trials, seed,
                       denominator)
    rows = [
        (gamma, snr_db, pd, pf, pm, args.trials, low, high, flagged)
        for snr_db, pm, curve in zip(args.snr, pms, curves)
        for gamma, pd, pf, low, high, flagged in curve
    ]

    fields = [
        ("model", args.fading),
        ("codebook", codebook.name),
        ("layout", _layout_summary(layout)),
        ("include_null_noise", args.include_null_noise),
        ("trials", args.trials),
        ("seed", args.seed),
    ]
    columns = "gamma snr_db pd pf pm trials pf_ci_low pf_ci_high flagged"
    _emit_table(args.out, "curves", fields, columns, rows)


def _cmd_leakage(args: argparse.Namespace) -> None:
    layout = args.layout or REFERENCE_LAYOUT
    fields = [
        ("layout", _layout_summary(layout)),
        ("max_offset", args.max_offset),
        ("block_leak_k1", np.pi**2 / 6.0),
    ]
    rows = [
        (k, float(leakage_single(k, 0.5)), leakage_block(k),
         expected_offset_leak(k, layout))
        for k in range(1, args.max_offset + 1)
    ]
    columns = "k single_leak_half_bin block_leak expected_offset_leak"
    _emit_table(args.out, "leakage", fields, columns, rows)


def _cmd_sweep(args: argparse.Namespace) -> None:
    seed = _seed(args, "Monte Carlo columns are requested" if args.trials > 0 else None)
    rows = sweep_active_carriers(args.carriers, args.snr, trials=args.trials, seed=seed)
    best_q, _, best_pf, *_ = min(rows, key=lambda row: row[2])
    fields = [
        ("carriers", args.carriers),
        ("snr_db", args.snr),
        ("trials", args.trials),
        ("seed", args.seed),
        ("argmin_q", best_q),
        ("argmin_pf", best_pf),
    ]
    columns = "q gamma0 pf pf_mc pf_mc_ci_low pf_mc_ci_high"
    _emit_table(args.out, "sweep", fields, columns, rows)


def _cmd_range(args: argparse.Namespace) -> None:
    rows = [(d, range_gain(args.snr_gap, d)) for d in args.exponents]
    columns = "path_loss_exponent range_gain"
    _emit_table(args.out, "range", [("snr_gap_db", args.snr_gap)], columns, rows)


def _cmd_overhead(args: argparse.Namespace) -> None:
    payload, sync_frames, tag_frames = args.payload_bytes, args.sync_frames, args.tag_frames
    fraction = overhead(payload, sync_frames=sync_frames, tag_frames=tag_frames)
    row = (payload, payload_frames(payload), sync_frames, tag_frames, fraction)
    columns = "payload_bytes payload_frames sync_frames tag_frames overhead"
    _emit_table(args.out, "overhead", [], columns, [row])


def _cmd_codebook_verify(args: argparse.Namespace) -> None:
    codebook = _get_codebook(args.codebook, None)  # rejects a violated declared distance
    _emit(args.out, _lines([
        ("name", codebook.name), ("size", codebook.size), ("word_length", codebook.word_length),
        ("declared_min_distance", codebook.min_distance),
        ("verified_min_distance", codebook.measured_distance),
        ("status", "ok"),
    ]))


# ---------------------------------------------------------------------------
# parser plumbing


def _add_command(commands, name: str, func, summary: str,
                 layout: bool = False, seed: bool = False):
    """A subparser with the options every command takes. Commands that read
    a carrier layout also accept a "layout" field in their config, and only
    commands that draw randomness take --seed."""
    sub = commands.add_parser(name, help=summary)
    sub.add_argument("--config", help="JSON config document; flags override its fields")
    if seed:
        sub.add_argument("--seed", type=_number(int, 0), help="randomness seed (required for stochastic runs)")
    sub.add_argument("--out", help="output path (tables default to stdout)")
    sub.set_defaults(func=func)
    if layout:
        sub.set_defaults(layout=None)
    return sub


def _add_codebook(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--codebook", help="codebook file (default: built-in family)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tagspot", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    # main applies a config document to the chosen command's parser
    parser.commands = commands.choices

    p = _add_command(commands, "modulate", _cmd_modulate,
                     "synthesize one tag frame to an IQ file", layout=True, seed=True)
    word = p.add_mutually_exclusive_group()
    word.add_argument("--word", type=_number(int), help="codeword index (default: 0)")
    word.add_argument("--random", action="store_true", help="draw the codeword index from the seed")
    p.add_argument("--power", type=_number(float, 0, open=True), default=1.0,
                   help="total spectral power (default %(default)s)")
    p.add_argument("--papr-cap", dest="papr_cap", type=_number(float), help="redraw phases until PAPR <= cap dB")
    p.add_argument("--max-attempts", dest="max_attempts", type=_number(int, 1), default=100,
                   help="draw budget for --papr-cap (default %(default)s)")
    p.add_argument("--sample-rate", dest="sample_rate", type=_number(float, 0, open=True), default=1.0,
                   help="metadata sample rate (default %(default)s)")
    _add_codebook(p)

    p = _add_command(commands, "impair", _cmd_impair, "apply fading, cfo, interference "
                     "and noise to an IQ file", layout=True, seed=True)
    p.add_argument("--in", dest="in_path", help="input IQ file")
    p.add_argument("--snr", type=_DB, help="target SNR in dB (input must be one tag frame)")
    p.add_argument("--cfo", type=_number(float), default=0.0,
                   help="carrier offset in thin-carrier widths (default %(default)s)")
    p.add_argument("--fading", choices=FADING_MODELS, default="none",
                   help="fading model (default %(default)s)")
    p.add_argument("--sir", type=_DB, help="add data-like interference at this SIR dB")
    p.add_argument("--interference-offset", dest="interference_offset", type=_number(int, 0), default=0,
                   help="interference start sample (default %(default)s)")

    p = _add_command(commands, "spot", _cmd_spot, "run the detector over an IQ file", layout=True)
    p.add_argument("--in", dest="in_path", help="input IQ file")
    p.add_argument("--gamma", type=_GAMMA, default=DetectorConfig.gamma,
                   help="detection threshold (default %(default)s)")
    p.add_argument("--carrier-sense", dest="carrier_sense", type=_number(float),
                   default=DetectorConfig.carrier_sense_snr_db,
                   help="carrier sense gate in dB over the noise floor (default %(default)s)")
    p.add_argument("--denominator", choices=STRENGTH_DENOMINATORS, default=DetectorConfig.denominator,
                   help="strength denominator convention (default %(default)s)")
    _add_codebook(p)

    p = _add_command(commands, "curves", _cmd_curves,
                     "detection and false-alarm tables over snr/gamma grids", layout=True, seed=True)
    p.add_argument("--snr", type=_grid(_DB), default="0", help="comma-separated SNR grid in dB, "
                   "default %(default)s (write --snr=-4,0,4 when the grid starts negative)")
    p.add_argument("--gamma", type=_grid(_GAMMA), default=str(DetectorConfig.gamma),
                   help="comma-separated threshold grid (default %(default)s)")
    p.add_argument("--fading", choices=FADING_ANALYSIS_MODELS, default="wideband",
                   help="analysis fading model (default %(default)s)")
    p.add_argument("--trials", type=_number(int, 0), default=0,
                   help="Monte Carlo trials per point (default %(default)s: closed forms only)")
    p.add_argument("--include-null-noise", dest="include_null_noise", action="store_true",
                   help="use the all-carrier strength denominator")
    _add_codebook(p)

    p = _add_command(commands, "leakage", _cmd_leakage, "off-grid tone leakage tables", layout=True)
    p.add_argument("--max-offset", dest="max_offset", type=_number(int, 1), default=8,
                   help="largest offset row (default %(default)s)")

    p = _add_command(commands, "sweep", _cmd_sweep, "active-carrier count optimization table",
                     seed=True)
    p.add_argument("--carriers", type=_number(int, 2), default=56,
                   help="total wide carriers (default %(default)s)")
    p.add_argument("--snr", type=_DB, default=0.0,
                   help="per-tone SNR in dB (default %(default)s)")
    p.add_argument("--trials", type=_number(int, 0), default=0,
                   help="Monte Carlo cross-check trials per split (default %(default)s)")

    p = _add_command(commands, "range", _cmd_range, "range gain from an SNR advantage")
    p.add_argument("--snr-gap", dest="snr_gap", type=_DB, default=20.0,
                   help="SNR advantage in dB (default %(default)s)")
    p.add_argument("--exponents", type=_grid(_number(float, 0, open=True)), default="3,6",
                   help="comma-separated path loss exponents (default %(default)s)")

    p = _add_command(commands, "overhead", _cmd_overhead, "tag airtime overhead for a payload size")
    p.add_argument("--payload-bytes", dest="payload_bytes", type=_number(int, 1), default=1500,
                   help="payload size (default %(default)s)")
    p.add_argument("--sync-frames", dest="sync_frames", type=_number(int, 0), default=6,
                   help="sync frames per packet (default %(default)s)")
    p.add_argument("--tag-frames", dest="tag_frames", type=_number(int, 1), default=8,
                   help="frames a tag occupies (default %(default)s)")

    p = _add_command(commands, "codebook-verify", _cmd_codebook_verify,
                     "re-verify a codebook's declared distance")
    _add_codebook(p)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # the fields become flags put before the given ones, which win
            fields = _config_fields(args)
            flags = _field_flags(parser.commands[args.command], fields)
            args = parser.parse_args([args.command, *flags, *argv[1:]])
            if "layout" in fields:
                try:
                    args.layout = layout_from_dict(fields["layout"])
                except ValueError as exc:
                    raise ValueError(f"bad layout in config: {exc}") from exc
        args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
