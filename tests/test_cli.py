"""Command-line interface: workflows, config documents, and exit codes."""

import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tagspot
from tagspot.analysis import AnalysisModel, pd_single, pf_single
from tagspot.carriers import REFERENCE_LAYOUT, layout_to_dict
from tagspot.channel import noise_power_for_snr
from tagspot.cli import main as cli_main
from tagspot.codebook import builtin_codebook, serialize_codebook
from tagspot.detector import parse_events
from tagspot.iqfile import read_iq, sidecar_path, write_iq
from tagspot.waveform import IqFrame, mean_power
from layouts import ODD

LAY = REFERENCE_LAYOUT


def _table_rows(text):
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append(line.split())
    return rows


def _modulate(tmp_path, name="tag.iq", word=0, seed=5, extra=()):
    out = tmp_path / name
    argv = ["modulate", "--word", str(word), "--seed", str(seed), "--out", str(out)]
    argv.extend(extra)
    assert cli_main(argv) == 0
    return out


def test_modulate_is_deterministic_and_documented(tmp_path, capsys):
    a = _modulate(tmp_path, "a.iq", word=3, seed=11)
    b = _modulate(tmp_path, "b.iq", word=3, seed=11)
    assert a.read_bytes() == b.read_bytes()
    frame, meta = read_iq(a)
    assert len(frame) == 640
    assert meta["codeword_index"] == 3
    assert meta["command"] == "modulate"
    assert meta["seed"] == 11
    out = capsys.readouterr().out
    assert "codeword_index: 3" in out
    assert "samples: 640" in out


def test_modulate_validates_input(tmp_path, capsys):
    out = tmp_path / "x.iq"
    assert cli_main(["modulate", "--out", str(out)]) == 1  # seed required
    assert "seed" in capsys.readouterr().err
    assert cli_main(["modulate", "--seed", "1", "--word", "99", "--out", str(out)]) == 1
    assert cli_main(["modulate", "--seed", "1"]) == 1  # --out required
    assert (
        cli_main(["modulate", "--seed", "1", "--word", "0", "--random", "--out", str(out)])
        == 1
    )


def test_modulate_random_word_comes_from_the_seed(tmp_path):
    out = tmp_path / "r.iq"
    assert cli_main(["modulate", "--random", "--seed", "29", "--out", str(out)]) == 0
    _, meta = read_iq(out)
    assert 0 <= meta["codeword_index"] < 56
    again = tmp_path / "r2.iq"
    assert cli_main(["modulate", "--random", "--seed", "29", "--out", str(again)]) == 0
    assert read_iq(again)[1]["codeword_index"] == meta["codeword_index"]


def test_modulate_papr_cap_is_reported(tmp_path):
    out = tmp_path / "capped.iq"
    assert (
        cli_main(
            ["modulate", "--seed", "3", "--papr-cap", "20", "--out", str(out)]
        )
        == 0
    )
    _, meta = read_iq(out)
    assert meta["papr_cap_met"] is True
    assert meta["papr_db"] <= 20.0


def test_impair_without_impairments_is_byte_identical(tmp_path):
    source = _modulate(tmp_path)
    out = tmp_path / "same.iq"
    assert cli_main(["impair", "--in", str(source), "--out", str(out)]) == 0
    assert out.read_bytes() == source.read_bytes()


def test_impair_adds_calibrated_noise(tmp_path):
    source = _modulate(tmp_path)
    out = tmp_path / "noisy.iq"
    assert (
        cli_main(["impair", "--in", str(source), "--snr", "0", "--seed", "7", "--out", str(out)])
        == 0
    )
    clean, _ = read_iq(source)
    noisy, meta = read_iq(out)
    assert meta["snr_db"] == 0.0
    tones = LAY.active_thin_per_wide * LAY.groups
    p_tone = float(np.sum(np.abs(clean.samples[LAY.cp_len :]) ** 2)) / tones
    n = noise_power_for_snr(0.0, p_tone, LAY)
    assert abs(mean_power(noisy) - mean_power(clean) - n) < 0.2 * n
    # the noise is exactly the seed's first normal draw, scaled by sqrt(n / 2)
    draws = np.random.default_rng(7).normal(size=(LAY.frame_len, 2))
    added = noisy.samples - clean.samples
    scale = np.sum(added.real * draws[:, 0] + added.imag * draws[:, 1]) / np.sum(draws**2)
    assert 2.0 * scale**2 == pytest.approx(n, rel=1e-5)
    # stochastic impairments refuse to run without a seed
    assert cli_main(["impair", "--in", str(source), "--snr", "0", "--out", str(out)]) == 1


def test_impair_interference_and_reruns(tmp_path):
    source = _modulate(tmp_path)
    first, second = tmp_path / "i1.iq", tmp_path / "i2.iq"
    argv = ["impair", "--in", str(source), "--sir", "0", "--seed", "9"]
    assert cli_main(argv + ["--out", str(first)]) == 0
    assert cli_main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    mixed, _ = read_iq(first)
    clean, _ = read_iq(source)
    # 0 dB interference roughly doubles the mean power
    assert mean_power(mixed) == pytest.approx(2 * mean_power(clean), rel=0.2)
    assert (
        cli_main(
            ["impair", "--in", str(source), "--sir", "0", "--seed", "9",
             "--interference-offset", "-4", "--out", str(first)]
        )
        == 1
    )


def test_impair_keeps_the_capture_sample_rate_through_interference(tmp_path):
    # the synthesized interferer has no rate of its own; the output keeps the input's
    source = _modulate(tmp_path, extra=["--sample-rate", "2e6"])
    out = tmp_path / "mixed.iq"
    assert cli_main(["impair", "--in", str(source), "--sir", "0", "--seed", "2",
                     "--out", str(out)]) == 0
    assert '"sample_rate": 2000000.0' in sidecar_path(out).read_text()


def test_impair_snr_ignores_the_interferer(tmp_path):
    # --snr calibrates on the tag alone: the noise added on top of a 0 dB
    # interferer matches the noise that --snr 0 adds without one
    source = _modulate(tmp_path)
    paths = {name: tmp_path / f"{name}.iq" for name in ("sir", "both", "snr")}
    base = ["impair", "--in", str(source), "--seed", "9"]
    assert cli_main(base + ["--sir", "0", "--out", str(paths["sir"])]) == 0
    assert cli_main(base + ["--sir", "0", "--snr", "0", "--out", str(paths["both"])]) == 0
    assert cli_main(base + ["--snr", "0", "--out", str(paths["snr"])]) == 0
    frames = {name: read_iq(path)[0] for name, path in paths.items()}
    clean, _ = read_iq(source)
    added_on_interferer = mean_power(
        IqFrame(frames["both"].samples - frames["sir"].samples)
    )
    added_alone = mean_power(IqFrame(frames["snr"].samples - clean.samples))
    assert added_on_interferer == pytest.approx(added_alone, rel=0.1)


def test_spot_finds_the_modulated_word(tmp_path, capsys):
    source = _modulate(tmp_path, word=17, seed=23)
    out = tmp_path / "events.txt"
    assert cli_main(["spot", "--in", str(source), "--out", str(out)]) == 0
    text = out.read_text()
    events = parse_events(text)
    assert len(events) == 1
    assert events[0].codeword_index == 17
    assert "# gamma: 0.62" in text
    assert "# windows_total:" in text
    summary = capsys.readouterr().out
    assert "events: 1" in summary


def test_spot_threshold_comes_from_config_unless_overridden(tmp_path):
    # a noiseless tag has strength exactly 1, so add noise to give the
    # threshold something to reject
    clean = _modulate(tmp_path, word=2, seed=31)
    source = tmp_path / "noisy.iq"
    assert (
        cli_main(["impair", "--in", str(clean), "--snr", "10", "--seed", "37",
                  "--out", str(source)])
        == 0
    )
    config = tmp_path / "spot.json"
    config.write_text(json.dumps({"config_version": 1, "gamma": 0.999}))
    out = tmp_path / "events.txt"
    argv = ["spot", "--in", str(source), "--config", str(config), "--out", str(out)]
    assert cli_main(argv) == 0
    assert parse_events(out.read_text()) == []  # config gamma too strict
    assert cli_main(argv + ["--gamma", "0.62"]) == 0  # flag wins
    events = parse_events(out.read_text())
    assert len(events) == 1 and events[0].codeword_index == 2


def test_curves_closed_forms_match_the_library(tmp_path):
    out = tmp_path / "curves.txt"
    assert (
        cli_main(
            ["curves", "--snr", "0,1", "--gamma", "0.62,0.5", "--out", str(out)]
        )
        == 0
    )
    rows = _table_rows(out.read_text())
    assert len(rows) == 4
    for gamma_s, snr_s, pd_s, pf_s, pm_s, trials_s, *_ in rows:
        model = AnalysisModel(snr_db=float(snr_s), fading="wideband")
        assert float(pd_s) == pytest.approx(pd_single(float(gamma_s), model), rel=1e-8)
        assert float(pf_s) == pytest.approx(pf_single(float(gamma_s)), rel=1e-8)
        assert pm_s == "nan" and trials_s == "0"


def test_curves_monte_carlo_rerun_is_byte_identical(tmp_path):
    first, second = tmp_path / "c1.txt", tmp_path / "c2.txt"
    argv = ["curves", "--snr", "0", "--gamma", "0.55,0.62", "--trials", "500",
            "--seed", "13"]
    assert cli_main(argv + ["--out", str(first)]) == 0
    assert cli_main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert "# seed: 13" in first.read_text()


def test_curves_include_null_noise_draws_the_all_carrier_monte_carlo(tmp_path):
    book = tmp_path / "one-word.txt"
    book.write_text("name: one-word\nword_length: 28\nmin_distance: 13\n" + "01" * 14 + "\n")
    out = tmp_path / "curves.txt"
    trials = 20_000
    assert cli_main(["curves", "--include-null-noise", "--gamma", "0.45,0.48",
                     "--trials", str(trials), "--seed", "3", "--codebook", str(book),
                     "--out", str(out)]) == 0
    text = out.read_text()
    assert "# include_null_noise: 1" in text
    rows = _table_rows(text)
    assert len(rows) == 2
    model = AnalysisModel(snr_db=0.0, fading="wideband")
    for gamma_s, _, pd_s, pf_s, *_ in rows:
        pd = pd_single(float(gamma_s), model, denominator="all")
        assert float(pd_s) == pytest.approx(pd, rel=1e-8)
        closed = pf_single(float(gamma_s), LAY, denominator="all")
        sigma = (closed * (1.0 - closed) / trials) ** 0.5
        assert abs(float(pf_s) - closed) <= 3.0 * sigma, (gamma_s, pf_s, closed)


def test_leakage_table_matches_the_closed_forms(tmp_path):
    out = tmp_path / "leak.txt"
    assert cli_main(["leakage", "--max-offset", "3", "--out", str(out)]) == 0
    rows = _table_rows(out.read_text())
    assert [int(r[0]) for r in rows] == [1, 2, 3]
    from tagspot.analysis import expected_offset_leak, leakage_block, leakage_single

    for k_s, single_s, block_s, expected_s in rows:
        k = int(k_s)
        assert float(single_s) == pytest.approx(float(leakage_single(k, 0.5)), rel=1e-8)
        assert float(block_s) == pytest.approx(leakage_block(k), rel=1e-8)
        assert float(expected_s) == pytest.approx(expected_offset_leak(k), rel=1e-8)


def test_sweep_table_reports_the_argmin(tmp_path):
    out = tmp_path / "sweep.txt"
    assert cli_main(["sweep", "--carriers", "16", "--snr", "0", "--out", str(out)]) == 0
    text = out.read_text()
    assert "# argmin_q:" in text
    rows = _table_rows(text)
    assert len(rows) == 15


def test_range_and_overhead_tables(tmp_path, capsys):
    assert cli_main(["range", "--snr-gap", "20", "--exponents", "3,6"]) == 0
    rows = _table_rows(capsys.readouterr().out)
    assert float(rows[0][1]) == pytest.approx(4.64158883, abs=1e-6)
    assert float(rows[1][1]) == pytest.approx(2.15443469, abs=1e-6)

    assert cli_main(["overhead", "--payload-bytes", "1500"]) == 0
    out = capsys.readouterr().out
    assert "0.0610687023" in out


def test_codebook_verify_builtin(capsys):
    assert cli_main(["codebook-verify"]) == 0
    out = capsys.readouterr().out
    assert "status: ok" in out
    assert "declared_min_distance: 13" in out
    assert "verified_min_distance: 13" in out


def test_codebook_verify_rejects_overclaimed_distance(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("name: bad\nword_length: 4\nmin_distance: 4\n0000\n0011\n")
    assert cli_main(["codebook-verify", "--codebook", str(bad)]) == 1


def test_codebook_verify_writes_its_report_to_out(tmp_path, capsys):
    assert cli_main(["codebook-verify"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.txt"
    assert cli_main(["codebook-verify", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


@pytest.mark.parametrize(
    "argv",
    [["spot", "--in", "{tag}"], ["leakage", "--max-offset", "1"], ["range"], ["overhead"],
     ["codebook-verify"]],
    ids=lambda argv: argv[0],
)
def test_commands_that_draw_no_randomness_reject_a_seed(tmp_path, capsys, argv):
    argv = [arg.format(tag=_modulate(tmp_path)) for arg in argv]
    capsys.readouterr()
    assert "--seed" in _fails_with_one_line(argv + ["--seed", "9"], capsys)
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"config_version": 1, "seed": 9}))
    assert "seed" in _fails_with_one_line(argv + ["--config", str(config)], capsys)


def test_config_document_rules(tmp_path):
    source = _modulate(tmp_path)
    out = tmp_path / "o.iq"

    unversioned = tmp_path / "nover.json"
    unversioned.write_text(json.dumps({"snr": 0}))
    argv = ["impair", "--in", str(source), "--out", str(out), "--config"]
    assert cli_main(argv + [str(unversioned)]) == 1

    mismatched = tmp_path / "wrongcmd.json"
    mismatched.write_text(json.dumps({"config_version": 1, "command": "spot"}))
    assert cli_main(argv + [str(mismatched)]) == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli_main(argv + [str(broken)]) == 1

    assert cli_main(argv + [str(tmp_path / "missing.json")]) == 2

    # config may carry command-specific fields; flags stay optional
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"config_version": 1, "command": "impair", "cfo": 0.5}))
    assert cli_main(argv + [str(good)]) == 0
    _, meta = read_iq(out)
    assert meta["cfo"] == 0.5


def test_unknown_config_fields_are_rejected_by_name(tmp_path, capsys):
    source = _modulate(tmp_path)
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"config_version": 1, "gamm": 0.5}))
    assert cli_main(["spot", "--in", str(source), "--config", str(typo)]) == 1
    assert "gamm" in capsys.readouterr().err

    # layout is a field only of the commands that read one
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps({"config_version": 1, "layout": {}}))
    assert cli_main(["sweep", "--carriers", "4", "--config", str(layout)]) == 1
    assert "layout" in capsys.readouterr().err
    assert cli_main(["leakage", "--max-offset", "1", "--config", str(layout)]) == 0
    capsys.readouterr()


# 32 wide carriers of 8 thin bins: 12 two-carrier groups and 8 nulls
SMALL_LAYOUT = {
    "fft_size": 256,
    "wide_total": 32,
    "groups": 12,
    "null_wide": [0, 1, 2, 16, 28, 29, 30, 31],
}


def _small_layout_config(tmp_path):
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"config_version": 1, "layout": SMALL_LAYOUT}))
    return config


def test_modulate_rejects_a_layout_that_does_not_fit_the_codebook(tmp_path, capsys):
    out = tmp_path / "t.iq"
    argv = ["modulate", "--seed", "1", "--config", str(_small_layout_config(tmp_path)),
            "--out", str(out)]
    assert cli_main(argv) == 1  # built-in codebook has 28-bit words
    assert "groups 12" in capsys.readouterr().err
    assert not out.exists()


def test_impair_interference_covers_the_signal_on_a_small_layout(tmp_path):
    codebook = tmp_path / "cb12.txt"
    codebook.write_text(
        "name: twelve\nword_length: 12\nmin_distance: 12\n"
        "000000000000\n111111111111\n"
    )
    source = tmp_path / "tag.iq"
    assert cli_main(["modulate", "--seed", "5", "--config", str(_small_layout_config(tmp_path)),
                     "--codebook", str(codebook), "--out", str(source)]) == 0
    mixed_path = tmp_path / "mixed.iq"
    assert cli_main(["impair", "--in", str(source), "--sir", "0", "--seed", "9",
                     "--out", str(mixed_path)]) == 0
    clean, _ = read_iq(source)
    mixed, _ = read_iq(mixed_path)
    assert len(clean) == len(mixed) == 320
    added = np.abs(mixed.samples - clean.samples) ** 2
    # every 40-sample interference frame of the tag carries interference
    per_frame = added.reshape(-1, 40).mean(axis=1)
    assert np.all(per_frame > 0.1 * added.mean())


def test_odd_layout_round_trip_finds_the_sent_word(tmp_path):
    config = tmp_path / "odd.json"
    config.write_text(json.dumps({"config_version": 1, "layout": layout_to_dict(ODD)}))
    codebook = tmp_path / "cb9.txt"
    codebook.write_text("name: nine\nword_length: 9\nmin_distance: 9\n000000000\n111111111\n")
    tag, impaired, events = tmp_path / "tag.iq", tmp_path / "impaired.iq", tmp_path / "events.txt"
    common = ["--config", str(config)]
    assert cli_main(["modulate", "--seed", "5", "--word", "1", "--codebook", str(codebook),
                     "--out", str(tag), *common]) == 0
    assert cli_main(["impair", "--in", str(tag), "--seed", "5", "--snr", "6",
                     "--fading", "wideband-rayleigh", "--cfo", "0.3",
                     "--out", str(impaired), *common]) == 0
    assert cli_main(["spot", "--in", str(impaired), "--codebook", str(codebook),
                     "--out", str(events), *common]) == 0
    frame, meta = read_iq(impaired)
    assert len(frame) == ODD.frame_len and meta["layout"] == layout_to_dict(ODD)
    assert [e.codeword_index for e in parse_events(events.read_text())] == [1]


def _fails_with_one_line(argv, capsys):
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    return err


def test_malformed_layout_and_sidecar_exit_with_code_1(tmp_path, capsys):
    source = _modulate(tmp_path)
    side = sidecar_path(source)
    good = json.loads(side.read_text())
    bad_metadata = [
        {"layout": None},
        {"layout": {**good["layout"], "fft_size": "512"}},
        {"sample_rate": None},
        {"sample_rate": float("inf")},
        {"sample_rate": 0},
        {"sample_rate": -1},
        {"sample_rate": True},
    ]
    for change in bad_metadata:
        side.write_text(json.dumps({**good, **change}))
        errors = [
            _fails_with_one_line(["spot", "--in", str(source)], capsys),
            _fails_with_one_line(["impair", "--in", str(source), "--out",
                                  str(tmp_path / "o.iq")], capsys),
        ]
        if "sample_rate" in change:
            assert all("sample_rate" in err for err in errors)

    layout = {**SMALL_LAYOUT, "null_wide": [0, 1, 2, 16, 28, 29, 30, 31.7]}
    config = tmp_path / "frac.json"
    config.write_text(json.dumps({"config_version": 1, "layout": layout}))
    _fails_with_one_line(["leakage", "--max-offset", "1", "--config", str(config)], capsys)


def test_a_layout_without_groups_exits_with_code_1(tmp_path, capsys):
    # every carrier null: leakage used to print nan rows and curves to crash
    layout = {"groups": 0, "wide_total": 4, "null_wide": [0, 1, 2, 3], "fft_size": 32}
    config = tmp_path / "no-groups.json"
    config.write_text(json.dumps({"config_version": 1, "layout": layout}))
    for command in ("leakage", "curves"):
        err = _fails_with_one_line([command, "--config", str(config)], capsys)
        assert "groups" in err


def test_layout_in_config_is_checked_before_the_command_and_against_the_sidecar(tmp_path, capsys):
    source = _modulate(tmp_path)  # its sidecar holds the reference layout
    readers = [["spot", "--in", str(source)],
               ["impair", "--in", str(source), "--out", str(tmp_path / "o.iq")]]
    cases = [(None, [["leakage", "--max-offset", "1"], *readers]),
             ({"fft_size": "bogus"}, [["leakage", "--max-offset", "1"], *readers]),
             (SMALL_LAYOUT, readers)]
    config = tmp_path / "layout.json"
    for layout, commands in cases:
        config.write_text(json.dumps({"config_version": 1, "layout": layout}))
        for argv in commands:
            assert "layout" in _fails_with_one_line(argv + ["--config", str(config)], capsys)

    config.write_text(json.dumps({"config_version": 1, "layout": layout_to_dict(REFERENCE_LAYOUT)}))
    for argv in readers:
        assert cli_main(argv + ["--config", str(config)]) == 0
    capsys.readouterr()


def test_negative_counts_exit_with_code_1(capsys):
    _fails_with_one_line(["curves", "--trials", "-5"], capsys)
    _fails_with_one_line(["sweep", "--carriers", "4", "--trials", "-3"], capsys)
    _fails_with_one_line(["overhead", "--sync-frames", "-6", "--tag-frames", "-1"], capsys)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["sweep", "--carriers", "3", "--snr=inf"], "--snr"),
        (["curves", "--snr=nan"], "snr grid"),
        (["curves", "--snr=0,inf", "--trials", "100", "--seed", "1"], "snr grid"),
        (["curves", "--gamma=0.5,nan"], "gamma grid"),
        (["range", "--snr-gap=nan"], "--snr-gap"),
        (["range", "--exponents=3,inf"], "exponents grid"),
        (["modulate", "--seed", "1", "--power=inf", "--out", "{out}"], "--power"),
        (["modulate", "--seed", "1", "--papr-cap=nan", "--out", "{out}"], "--papr-cap"),
        (["modulate", "--seed", "1", "--sample-rate=inf", "--out", "{out}"], "--sample-rate"),
        (["impair", "--in", "{tag}", "--seed", "1", "--snr=-inf", "--out", "{out}"], "--snr"),
        (["impair", "--in", "{two}", "--seed", "1", "--snr=0", "--out", "{out}"], "--snr"),
        (["impair", "--in", "{tag}", "--seed", "1", "--sir=nan", "--out", "{out}"], "--sir"),
        (["impair", "--in", "{tag}", "--cfo=inf", "--out", "{out}"], "--cfo"),
        (["spot", "--in", "{tag}", "--gamma=nan"], "--gamma"),
        (["spot", "--in", "{tag}", "--carrier-sense=-inf"], "--carrier-sense"),
        (["sweep", "--carriers", "3", "--config", "{config}"], "--snr"),
    ],
    ids=["sweep-snr", "curves-snr-nan", "curves-snr-inf", "curves-gamma", "range-snr-gap",
         "range-exponents", "modulate-power", "modulate-papr-cap", "modulate-sample-rate",
         "impair-snr", "impair-snr-two-frames", "impair-sir", "impair-cfo", "spot-gamma",
         "spot-carrier-sense", "sweep-config-snr"],
)
def test_non_finite_numbers_exit_with_code_1(tmp_path, capsys, argv, named):
    config = tmp_path / "inf.json"
    config.write_text(json.dumps({"config_version": 1, "snr": float("inf")}))
    paths = {"tag": _modulate(tmp_path), "out": tmp_path / "o.iq", "config": config,
             "two": tmp_path / "two.iq"}
    # two tag frames back to back: --snr calibrates on exactly one
    tag, _ = read_iq(paths["tag"])
    write_iq(paths["two"], IqFrame(np.tile(tag.samples, 2)), layout=LAY)
    capsys.readouterr()
    assert cli_main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and named in err
    assert not paths["out"].exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--power=0"], "--power"),
        (["--power=-1"], "--power"),
        (["--papr-cap", "6", "--max-attempts=0"], "--max-attempts"),
        (["--sample-rate=0"], "--sample-rate"),
    ],
    ids=["power-zero", "power-negative", "max-attempts-zero", "sample-rate-zero"],
)
def test_out_of_range_modulate_options_exit_with_code_1(tmp_path, capsys, flags, named):
    out = tmp_path / "o.iq"
    assert cli_main(["modulate", "--seed", "1", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, fields, named",
    [
        (["curves"], {"trials": 2.5, "seed": 1}, "--trials"),
        (["curves"], {"trials": True, "seed": 1}, "--trials"),
        (["curves", "--trials", "10"], {"seed": 1.7}, "--seed"),
        (["modulate", "--seed", "1", "--papr-cap", "6", "--out", "{out}"],
         {"max_attempts": None}, "--max-attempts"),
        (["sweep"], {"carriers": None}, "--carriers"),
        (["curves"], {"include_null_noise": "no"}, "--include-null-noise"),
        (["modulate", "--seed", "1", "--out", "{out}"], {"random": "no"}, "--random"),
        (["impair", "--out", "{out}"], {"in_path": 3}, "--in"),
        (["codebook-verify"], {"codebook": 1}, "--codebook"),
        (["leakage"], {"out": {}}, "--out"),
        (["curves"], {"fading": "wideband-rayleigh"}, "--fading"),
    ],
    ids=["curves-fractional-trials", "curves-bool-trials", "curves-fractional-seed",
         "modulate-null-max-attempts", "sweep-null-carriers", "curves-string-switch",
         "modulate-string-switch", "impair-number-path", "codebook-number-path",
         "leakage-object-out", "curves-unknown-fading"],
)
def test_non_integer_config_values_exit_with_code_1(tmp_path, capsys, argv, fields, named):
    config = tmp_path / "ints.json"
    config.write_text(json.dumps({"config_version": 1, **fields}))
    out = tmp_path / "o.iq"
    assert cli_main([arg.format(out=out) for arg in argv] + ["--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and named in err
    assert not out.exists()


def test_integral_config_numbers_are_integers(tmp_path):
    config = tmp_path / "ints.json"
    config.write_text(json.dumps({"config_version": 1, "trials": 20.0, "seed": 3.0}))
    from_config, from_flags = tmp_path / "config.txt", tmp_path / "flags.txt"
    assert cli_main(["curves", "--config", str(config), "--out", str(from_config)]) == 0
    assert cli_main(["curves", "--trials", "20", "--seed", "3", "--out", str(from_flags)]) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()


def test_io_errors_exit_with_code_2(tmp_path):
    assert cli_main(["impair", "--in", str(tmp_path / "absent.iq"),
                     "--out", str(tmp_path / "o.iq")]) == 2
    assert cli_main(["spot", "--in", str(tmp_path / "absent.iq")]) == 2
    assert cli_main(["codebook-verify", "--codebook", str(tmp_path / "absent.txt")]) == 2
    assert cli_main(["range", "--out", str(tmp_path / "absent" / "range.txt")]) == 2


def test_unknown_flags_and_commands_exit_with_code_1(capsys):
    assert cli_main(["modulate", "--bogus"]) == 1
    assert cli_main(["frobnicate"]) == 1
    capsys.readouterr()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_commands_run(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## CLI quickstart", 1)[1].split("\n## ", 1)[0]
    commands = [
        shlex.split(line)
        for line in section.replace("\\\n", " ").splitlines()
        if line.startswith("tagspot ")
    ]
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    Path("family.txt").write_text(serialize_codebook(builtin_codebook()))
    for argv in commands:
        assert cli_main(argv[1:]) == 0, " ".join(argv)
    capsys.readouterr()


RESULTS = Path(__file__).resolve().parents[1] / "results"


def _load_regenerator():
    path = Path(__file__).resolve().parents[1] / "scripts" / "regenerate_results.py"
    spec = importlib.util.spec_from_file_location("regenerate_results", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGENERATOR = _load_regenerator()


def test_the_recipe_list_names_every_committed_table():
    made = [name for name, _ in REGENERATOR.RECIPES] + [REGENERATOR.TIME_DOMAIN]
    assert sorted(made) == sorted(path.name for path in RESULTS.iterdir())


# the curves recipes (about 10 s together on a 2-core Xeon) run in full in CI;
# the row tests below check two SNRs of each
@pytest.mark.parametrize(
    "name, argv",
    [(name, argv) for name, argv in REGENERATOR.RECIPES if argv[0] in ("leakage", "sweep")],
)
def test_committed_tables_regenerate_byte_identical(tmp_path, name, argv):
    out = tmp_path / name
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (RESULTS / name).read_bytes()


def _check_committed_curves_rows(tmp_path, fading, snrs):
    """Runs the committed table's recipe on a subset of its SNR grid."""
    name = f"curves-{fading}.txt"
    [recipe] = [argv for table, argv in REGENERATOR.RECIPES if table == name]
    argv = [f"--snr={','.join(snrs)}" if arg.startswith("--snr=") else arg for arg in recipe]
    assert argv != recipe
    out = tmp_path / "curves.txt"
    assert cli_main(argv + ["--out", str(out)]) == 0
    committed = (RESULTS / name).read_text().splitlines(keepends=True)
    want = [row for row in committed
            if row.startswith("#") or row.split()[1] in snrs]
    assert len(want) == 9 + 16
    assert out.read_bytes() == "".join(want).encode()


def test_curves_regenerate_the_committed_rows(tmp_path):
    _check_committed_curves_rows(tmp_path, "wideband", ("0", "1"))


def test_narrowband_curves_regenerate_the_committed_rows(tmp_path):
    # each SNR's noncentral tone draw restarts from the generator state
    # after the draws the grid shares; pm at -2 dB (about 650 misses in
    # 200k) shows a draw that does not, where pm at 0 and 1 dB (1 and 0
    # misses) would not
    _check_committed_curves_rows(tmp_path, "narrowband", ("-4", "-2"))


_NO_SCIPY_SCRIPT = """
import json, sys
import tagspot.cli as cli

def run(*argv):
    code = cli.main(list(argv))
    return code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

workdir = sys.argv[1]
tag, noisy = workdir + "/tag.iq", workdir + "/noisy.iq"
steps = [
    run("modulate", "--word", "4", "--seed", "9", "--out", tag),
    run("impair", "--in", tag, "--snr", "3", "--seed", "10", "--out", noisy),
    run("spot", "--in", noisy, "--out", workdir + "/events.txt"),
    run("range", "--out", workdir + "/range.txt"),
    run("overhead", "--out", workdir + "/overhead.txt"),
    run("codebook-verify"),
    run("curves", "--snr", "0", "--gamma", "0.55,0.62", "--trials", "500",
        "--seed", "13", "--out", workdir + "/curves.txt"),
]
print(json.dumps(steps))
"""


def test_spot_and_calculator_commands_do_not_load_scipy(tmp_path):
    """spot and the commands that need no statistics start without scipy,
    and curves loads it on first use with unchanged rows."""
    src = str(Path(tagspot.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120, check=True,
    )
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert [code for code, _ in steps] == [0] * 7
    assert all(loaded == [] for _, loaded in steps[:-1])
    assert "scipy.stats" in steps[-1][1]
    # the same bytes as the same curves command run in this process
    out = tmp_path / "curves-here.txt"
    assert cli_main(["curves", "--snr", "0", "--gamma", "0.55,0.62", "--trials",
                     "500", "--seed", "13", "--out", str(out)]) == 0
    assert (tmp_path / "curves.txt").read_bytes() == out.read_bytes()
    assert parse_events((tmp_path / "events.txt").read_text())[0].codeword_index == 4
