"""Command-line front end: reproducible experiment runs and IQ file I/O.

Subcommands: modulate, impair, spot, curves, leakage, sweep, range,
overhead, codebook-verify. Every command accepts --config pointing at a
JSON document (stamped with config_version) whose keys are the command's
parameter names; explicit flags override document fields, and a field the
command does not take is rejected. Only the commands that draw randomness
(modulate, impair, curves, sweep) take --seed, and they demand it for
stochastic work; identical config plus seed produces byte-identical
primary output: tables carry no timestamps and every float is formatted
with a fixed precision.

Before a command starts, each option value, from a flag or a config field,
is checked by how its option is declared: a float option takes a finite
number, an integer option an integer (20.0 counts), an on/off flag true or
false, any other option (paths, comma-separated grids) a string, an option
with choices one of them; null is never a value. A config "layout" field
must describe a valid carrier layout, and spot and impair reject one that
differs from the layout in the input's sidecar.

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

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
from .carriers import CarrierLayout, REFERENCE_LAYOUT, STRENGTH_DENOMINATORS, layout_from_dict
from .channel import FADING_MODELS, apply_awgn, apply_cfo, apply_fading, gain_for_sir, mix, noise_power_for_snr
from .codebook import Codebook, CodebookError, builtin_codebook, codeword_to_mask, load_codebook, verify_min_distance
from .detector import DetectorConfig, serialize_events, spot_report
from .iqfile import read_iq, write_iq
from .waveform import (
    interference_frame_len,
    mean_power,
    synthesize_data_interference,
    synthesize_tag_papr_limited,
)

CONFIG_VERSION = 1


class CliError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for I/O
    def error(self, message: str) -> None:
        raise CliError(1, f"{self.prog}: {message}")


def _fmt(value) -> str:
    """Deterministic scalar formatting for tables and summaries."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def _config_fields(args: argparse.Namespace) -> dict:
    """The --config document's parameter fields, checked against the
    command: every field must name one of its parameters."""
    try:
        doc = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise CliError(1, f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(1, "config must be a JSON object")
    if doc.pop("config_version", None) != CONFIG_VERSION:
        raise CliError(
            1, f"config must declare config_version: {CONFIG_VERSION}"
        )
    command = doc.pop("command", args.command)
    if command != args.command:
        raise CliError(1, f"config is for {command!r}, not {args.command!r}")
    unknown = sorted(set(doc) - (set(vars(args)) - {"config", "func"}))
    if unknown:
        raise CliError(
            1, f"unknown config fields for {args.command}: {', '.join(unknown)}"
        )
    return doc


def _input_layout(meta: dict, args: argparse.Namespace) -> CarrierLayout:
    """The layout an input file's sidecar declares, which a config layout
    must equal; the config layout (or the reference one) without it."""
    if "layout" not in meta:
        return args.layout or REFERENCE_LAYOUT
    layout = layout_from_dict(meta["layout"])
    if args.layout is not None and args.layout != layout:
        raise CliError(1, "config layout differs from the layout in the input's sidecar")
    return layout


def _parse_grid(text: str, name: str) -> "list[float]":
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise CliError(1, f"bad {name} grid {text!r}: {exc}") from exc
    if not values:
        raise CliError(1, f"{name} grid is empty")
    if not all(math.isfinite(value) for value in values):
        raise CliError(1, f"bad {name} grid {text!r}: values must be finite")
    return values


def _finite(value, option: str) -> float:
    """A float option's value, which must be finite (float() parses "inf" and "nan")."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise CliError(1, f"{option} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, option: str) -> int:
    """An integer option's value. argparse converts flags and string fields,
    but bools, fractional numbers and null from JSON are rejected, not truncated."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise CliError(1, f"{option} must be an integer, got {value!r}")


def _check_options(sub: argparse.ArgumentParser, args: argparse.Namespace, fields: dict) -> None:
    """Checks and normalizes each option value by its declaration (see the
    module docstring); a None that no config field set is an unset option."""
    for action in sub._actions:
        value = getattr(args, action.dest, None)  # None for --help
        if value is None and action.dest not in fields:
            continue
        option = action.option_strings[0]
        if action.type is float:
            value = _finite(value, option)
        elif action.type is int:
            value = _integer(value, option)
        elif isinstance(action, argparse._StoreTrueAction):
            if type(value) is not bool:
                raise CliError(1, f"{option} must be true or false, got {value!r}")
        elif type(value) is not str:
            raise CliError(1, f"{option} must be a string, got {value!r}")
        if action.choices is not None and value not in action.choices:
            raise CliError(
                1, f"{option} must be one of {', '.join(action.choices)}, got {value!r}"
            )
        setattr(args, action.dest, value)


def _require_seed(seed: "int | None", why: str) -> int:
    if seed is None:
        raise CliError(1, f"--seed is required: {why}")
    return seed


def _get_codebook(path: "str | None") -> Codebook:
    if path is None:
        return builtin_codebook()
    try:
        return load_codebook(path)
    except CodebookError as exc:
        raise CliError(1, f"bad codebook: {exc}") from exc


def _header_lines(command: str, fields: "list[tuple[str, object]]") -> "list[str]":
    lines = [f"# command: {command}", f"# config_version: {CONFIG_VERSION}"]
    lines.extend(f"# {key}: {_fmt(value)}" for key, value in fields)
    return lines


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
    header = _header_lines(command, [*fields, ("columns", columns)])
    body = [" ".join(_fmt(v) for v in row) for row in rows]
    _emit(out, "\n".join(header + body) + "\n")


# ---------------------------------------------------------------------------
# commands


def _cmd_modulate(args: argparse.Namespace) -> int:
    for option, value in (("--power", args.power), ("--sample-rate", args.sample_rate)):
        if not value > 0:
            raise CliError(1, f"{option} must be positive, got {_fmt(value)}")
    if args.max_attempts < 1:
        raise CliError(1, f"--max-attempts must be at least 1, got {args.max_attempts}")
    layout = args.layout or REFERENCE_LAYOUT
    codebook = _get_codebook(args.codebook)
    seed = _require_seed(args.seed, "tone phases are random")
    if args.out is None:
        raise CliError(1, "--out is required")

    rng = np.random.default_rng(seed)
    word_index = args.word
    if args.random:
        if word_index is not None:
            raise CliError(1, "--word and --random are mutually exclusive")
        word_index = rng.integers(codebook.size)
    word_index = int(word_index or 0)
    if not 0 <= word_index < codebook.size:
        raise CliError(
            1, f"codeword index {word_index} out of range 0..{codebook.size - 1}"
        )

    mask = codeword_to_mask(codebook.words[word_index], layout)
    # without a cap the first draw is accepted
    cap = math.inf if args.papr_cap is None else args.papr_cap
    limited = synthesize_tag_papr_limited(mask, layout, args.power, cap, rng, args.max_attempts)
    frame, papr_db = limited.frame, limited.papr_db

    extra = {
        "command": "modulate",
        "codebook": codebook.name,
        "codeword_index": word_index,
        "seed": seed,
        "total_power": args.power,
        "papr_db": round(papr_db, 9),
    }
    if args.papr_cap is not None:
        extra["papr_cap_db"] = args.papr_cap
        extra["papr_cap_met"] = bool(limited.met_cap)
        extra["attempts"] = limited.attempts
    write_iq(args.out, frame, layout=layout, extra=extra, sample_rate=args.sample_rate)

    print(f"codeword_index: {word_index}")
    print(f"samples: {len(frame)}")
    print(f"total_power: {_fmt(args.power)}")
    print(f"papr_db: {_fmt(papr_db)}")
    if args.papr_cap is not None:
        print(f"papr_cap_met: {_fmt(bool(limited.met_cap))}")
    print(f"out: {args.out}")
    return 0


def _cmd_impair(args: argparse.Namespace) -> int:
    if args.in_path is None:
        raise CliError(1, "--in is required")
    if args.out is None:
        raise CliError(1, "--out is required")
    if args.interference_offset < 0:
        raise CliError(1, "interference offset must be nonnegative")
    frame, meta = read_iq(args.in_path)
    layout = _input_layout(meta, args)
    if args.snr is not None and len(frame) != layout.frame_len:
        raise CliError(1, f"--snr needs one tag frame ({layout.frame_len} samples), got {len(frame)}")
    if args.snr is not None or args.sir is not None or args.fading != "none":
        _require_seed(args.seed, "noise, fading and interference draw randomness")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)

    in_power = mean_power(frame)
    # documented order: fading, then cfo, then interference, then noise
    if args.fading != "none":
        frame = apply_fading(frame, args.fading, rng, layout)
    if args.cfo:
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
        tones = layout.active_thin_per_wide * layout.groups
        p_tone = float(np.sum(np.abs(tag.samples[layout.cp_len :]) ** 2)) / tones
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
    print(f"in_power: {_fmt(in_power)}")
    print(f"out_power: {_fmt(out_power)}")
    if in_power > 0 and out_power > 0:
        print(f"power_ratio_db: {_fmt(10.0 * math.log10(out_power / in_power))}")
    print(f"out: {args.out}")
    return 0


def _cmd_spot(args: argparse.Namespace) -> int:
    if args.in_path is None:
        raise CliError(1, "--in is required")
    frame, meta = read_iq(args.in_path)
    layout = _input_layout(meta, args)
    codebook = _get_codebook(args.codebook)
    detector = DetectorConfig(
        layout=layout,
        codebook=codebook,
        gamma=args.gamma,
        carrier_sense_snr_db=args.carrier_sense,
        denominator=args.denominator,
    )
    report = spot_report(frame, detector)

    header = _header_lines(
        "spot",
        [
            ("in", args.in_path),
            ("codebook", codebook.name),
            ("gamma", args.gamma),
            ("carrier_sense_snr_db", args.carrier_sense),
            ("denominator", args.denominator),
            ("layout", _layout_summary(layout)),
            ("windows_total", report.windows_total),
            ("windows_gated", report.windows_gated),
            ("events", len(report.events)),
        ],
    )
    _emit(args.out, "\n".join(header) + "\n" + serialize_events(list(report.events)))
    if args.out is not None:
        print(f"windows_total: {report.windows_total}")
        print(f"windows_gated: {report.windows_gated}")
        print(f"events: {len(report.events)}")
        print(f"out: {args.out}")
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    layout = args.layout or REFERENCE_LAYOUT
    codebook = _get_codebook(args.codebook)
    snr_grid = _parse_grid(args.snr, "snr")
    gamma_grid = _parse_grid(args.gamma, "gamma")
    trials = args.trials
    # --include-null-noise is this command's spelling of denominator="all"
    denominator = "all" if args.include_null_noise else "band"
    seed = 0
    pms = [float("nan")] * len(snr_grid)
    if trials > 0:
        seed = _require_seed(args.seed, "Monte Carlo columns are requested")
        # one misclassification draw for the whole grid, made before the
        # family draws so the two are never in memory together
        pms = [pm for pm, _ in pm_mc(snr_grid, codebook, layout, args.fading, trials, seed)]
    curves = build_roc(snr_grid, gamma_grid, layout, args.fading, codebook, trials, seed,
                       denominator)
    rows = [
        (gamma, snr_db, pd, pf, pm, trials, low, high, flagged)
        for snr_db, pm, curve in zip(snr_grid, pms, curves)
        for gamma, pd, pf, low, high, flagged in curve
    ]

    fields = [
        ("model", args.fading),
        ("codebook", codebook.name),
        ("layout", _layout_summary(layout)),
        ("include_null_noise", denominator == "all"),
        ("trials", trials),
        ("seed", "none" if args.seed is None else args.seed),
    ]
    columns = "gamma snr_db pd pf pm trials pf_ci_low pf_ci_high flagged"
    _emit_table(args.out, "curves", fields, columns, rows)
    return 0


def _cmd_leakage(args: argparse.Namespace) -> int:
    layout = args.layout or REFERENCE_LAYOUT
    if args.max_offset < 1:
        raise CliError(1, "max offset must be at least 1")
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
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.trials > 0:
        _require_seed(args.seed, "Monte Carlo columns are requested")
    seed = args.seed if args.seed is not None else 0
    rows = sweep_active_carriers(args.carriers, args.snr, trials=args.trials, seed=seed)
    best_q, _, best_pf, *_ = min(rows, key=lambda row: row[2])
    fields = [
        ("carriers", args.carriers),
        ("snr_db", args.snr),
        ("trials", args.trials),
        ("seed", "none" if args.seed is None else args.seed),
        ("argmin_q", best_q),
        ("argmin_pf", best_pf),
    ]
    columns = "q gamma0 pf pf_mc pf_mc_ci_low pf_mc_ci_high"
    _emit_table(args.out, "sweep", fields, columns, rows)
    return 0


def _cmd_range(args: argparse.Namespace) -> int:
    rows = [(d, range_gain(args.snr_gap, d)) for d in _parse_grid(args.exponents, "exponents")]
    columns = "path_loss_exponent range_gain"
    _emit_table(args.out, "range", [("snr_gap_db", args.snr_gap)], columns, rows)
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    payload, sync_frames, tag_frames = args.payload_bytes, args.sync_frames, args.tag_frames
    fraction = overhead(payload, sync_frames=sync_frames, tag_frames=tag_frames)
    row = (payload, payload_frames(payload), sync_frames, tag_frames, fraction)
    columns = "payload_bytes payload_frames sync_frames tag_frames overhead"
    _emit_table(args.out, "overhead", [], columns, [row])
    return 0


def _cmd_codebook_verify(args: argparse.Namespace) -> int:
    codebook = _get_codebook(args.codebook)  # rejects a violated declared distance
    _emit(args.out, f"name: {codebook.name}\nsize: {codebook.size}\n"
          f"word_length: {codebook.word_length}\n"
          f"declared_min_distance: {codebook.min_distance}\n"
          f"verified_min_distance: {verify_min_distance(codebook.words)}\nstatus: ok\n")
    return 0


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
        sub.add_argument("--seed", type=int, help="randomness seed (required for stochastic runs)")
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
    p.add_argument("--word", type=int, help="codeword index (default: 0, or drawn from the seed with --random)")
    p.add_argument("--random", action="store_true", help="pick the codeword from the seed")
    p.add_argument("--power", type=float, default=1.0,
                   help="total spectral power (default %(default)s)")
    p.add_argument("--papr-cap", dest="papr_cap", type=float, help="redraw phases until PAPR <= cap dB")
    p.add_argument("--max-attempts", dest="max_attempts", type=int, default=100,
                   help="draw budget for --papr-cap (default %(default)s)")
    p.add_argument("--sample-rate", dest="sample_rate", type=float, default=1.0,
                   help="metadata sample rate (default %(default)s)")
    _add_codebook(p)

    p = _add_command(commands, "impair", _cmd_impair, "apply fading, cfo, interference "
                     "and noise to an IQ file", layout=True, seed=True)
    p.add_argument("--in", dest="in_path", help="input IQ file")
    p.add_argument("--snr", type=float, help="target SNR in dB (input must be one tag frame)")
    p.add_argument("--cfo", type=float, default=0.0,
                   help="carrier offset in thin-carrier widths (default %(default)s)")
    p.add_argument("--fading", choices=FADING_MODELS, default="none",
                   help="fading model (default %(default)s)")
    p.add_argument("--sir", type=float, help="add data-like interference at this SIR dB")
    p.add_argument("--interference-offset", dest="interference_offset", type=int, default=0,
                   help="interference start sample (default %(default)s)")

    p = _add_command(commands, "spot", _cmd_spot, "run the detector over an IQ file", layout=True)
    p.add_argument("--in", dest="in_path", help="input IQ file")
    p.add_argument("--gamma", type=float, default=0.62,
                   help="detection threshold (default %(default)s)")
    p.add_argument("--carrier-sense", dest="carrier_sense", type=float, default=-1.0,
                   help="carrier sense gate in dB over the noise floor (default %(default)s)")
    p.add_argument("--denominator", choices=STRENGTH_DENOMINATORS, default="band",
                   help="strength denominator convention (default %(default)s)")
    _add_codebook(p)

    p = _add_command(commands, "curves", _cmd_curves,
                     "detection and false-alarm tables over snr/gamma grids", layout=True, seed=True)
    p.add_argument("--snr", default="0", help="comma-separated SNR grid in dB, default "
                   "%(default)s (write --snr=-4,0,4 when the grid starts negative)")
    p.add_argument("--gamma", default="0.62",
                   help="comma-separated threshold grid (default %(default)s)")
    p.add_argument("--fading", choices=FADING_ANALYSIS_MODELS, default="wideband",
                   help="analysis fading model (default %(default)s)")
    p.add_argument("--trials", type=int, default=0,
                   help="Monte Carlo trials per point (default %(default)s: closed forms only)")
    p.add_argument("--include-null-noise", dest="include_null_noise", action="store_true",
                   help="use the all-carrier strength denominator")
    _add_codebook(p)

    p = _add_command(commands, "leakage", _cmd_leakage, "off-grid tone leakage tables", layout=True)
    p.add_argument("--max-offset", dest="max_offset", type=int, default=8,
                   help="largest offset row (default %(default)s)")

    p = _add_command(commands, "sweep", _cmd_sweep, "active-carrier count optimization table",
                     seed=True)
    p.add_argument("--carriers", type=int, default=56,
                   help="total wide carriers (default %(default)s)")
    p.add_argument("--snr", type=float, default=0.0, help="per-tone SNR in dB (default %(default)s)")
    p.add_argument("--trials", type=int, default=0,
                   help="Monte Carlo cross-check trials per split (default %(default)s)")

    p = _add_command(commands, "range", _cmd_range, "range gain from an SNR advantage")
    p.add_argument("--snr-gap", dest="snr_gap", type=float, default=20.0,
                   help="SNR advantage in dB (default %(default)s)")
    p.add_argument("--exponents", default="3,6",
                   help="comma-separated path loss exponents (default %(default)s)")

    p = _add_command(commands, "overhead", _cmd_overhead, "tag airtime overhead for a payload size")
    p.add_argument("--payload-bytes", dest="payload_bytes", type=int, default=1500,
                   help="payload size (default %(default)s)")
    p.add_argument("--sync-frames", dest="sync_frames", type=int, default=6,
                   help="sync frames per packet (default %(default)s)")
    p.add_argument("--tag-frames", dest="tag_frames", type=int, default=8,
                   help="frames a tag occupies (default %(default)s)")

    p = _add_command(commands, "codebook-verify", _cmd_codebook_verify,
                     "re-verify a codebook's declared distance")
    _add_codebook(p)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        fields = {}
        if args.config is not None:
            # config fields become the command's defaults, so flags still win
            fields = _config_fields(args)
            parser.commands[args.command].set_defaults(**fields)
            args = parser.parse_args(argv)
        _check_options(parser.commands[args.command], args, fields)
        if "layout" in fields:
            try:
                args.layout = layout_from_dict(fields["layout"])
            except ValueError as exc:
                raise CliError(1, f"bad layout in config: {exc}") from exc
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
