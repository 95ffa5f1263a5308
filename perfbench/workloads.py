"""The benchmark's four workloads: input generation, the timed operation,
and the correctness checks on every output.

Each workload is a class with the same life cycle:

- ``generate(seed, workdir)`` runs in the launcher process before any
  timing and writes the inputs (IQ files and ground truth) into workdir.
  It returns the sha256 of every input it wrote, so two commits can be
  shown to have received identical bytes.
- ``setup()`` is what ``setup_s`` times in a fresh interpreter: the
  workload's own imports, ``builtin_codebook()`` with its distance
  re-verification, and config construction. Nothing in this module
  imports tagspot at module level, so each workload pays only for what it
  imports.
- ``prepare(seed, workdir)`` loads the inputs and ground truth, untimed.
- ``run_op(i)`` is one timed operation; ``check_op(i, result)`` checks its
  output, untimed. ``final_checks()`` returns run-level checks, each of
  which counts as one attempted operation.
- ``patches()`` names the functions the traced run rebinds, under the name
  their caller looks them up by.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from pathlib import Path

import numpy as np

# the default seed is the one the committed results/ tables were made with;
# at this seed every output is also pinned to the digest taken when the
# benchmark was defined
DEFAULT_SEED = 20260819

PINNED = {
    "capture-sparse": "af888dd30178e3c554c24b8bd0e6d7de05d1f80f945e73ac4d705b7723e4d576",
    "capture-dense": "27f7809abd2cca497bd545f06b20d1590d71db2d37b49e60ec67fa9fa4012590",
    "trials": "5ccd88ad74090e71f4ceeee3a347b56d4777142fccf50b5a6b26ff3011430d18",
}

FRAME = 640  # samples per reference-layout tag frame (512 + 128 prefix)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def _truth_bytes(rows: list) -> bytes:
    return (json.dumps(rows, separators=(",", ":")) + "\n").encode()


def _read_events(path: Path) -> "tuple[dict, list[tuple[int, int]]]":
    """Header fields and (interval_start, codeword_index) pairs of a
    `tagspot spot` output file, parsed without the package."""
    header: dict = {}
    events = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# ") and ": " in line:
            key, _, value = line[2:].partition(": ")
            header[key] = value
        elif line and not line.startswith("#"):
            parts = line.split("\t")
            events.append((int(parts[0]), int(parts[1])))
    return header, events


class _Workload:
    name = ""
    min_ops = 1
    trace_ops = 1

    def generate(self, seed: int, workdir: Path) -> dict:
        return {}

    def units(self, result) -> int:
        """Units of work one operation completed, for the throughput the
        report prints."""
        return 1

    def final_checks(self) -> "list[tuple[str, bool, str]]":
        return []

    def provenance(self) -> dict:
        return {}

    def reconcile(self, layers: dict, traced_ops: int) -> "list[tuple[str, bool, str]]":
        """Checks that the traced run's spans and counts agree."""
        excess = layers["trace.child_self_excess_s"]
        checks = [("children's self time within their parent span", excess <= 1e-9,
                   f"largest excess {excess:.3g} s")]
        if layers.get("detector.spot_report.calls"):
            folds = layers.get("detector.fold_spectrum.calls", 0)
            ffts = layers["detector.ffts"]
            checks.append(("fold_spectrum calls == windows_total - windows_gated",
                           folds == ffts, f"{folds} vs {ffts}"))
        return checks


# ---------------------------------------------------------------------------
# captures through `tagspot spot`


class _Capture(_Workload):
    """One IQ capture spotted through the `tagspot spot` command path:
    cli.main -> read_iq -> spot_report -> serialize_events -> file."""

    min_ops = 3
    trace_ops = 1

    def generate(self, seed: int, workdir: Path) -> dict:
        from tagspot.carriers import REFERENCE_LAYOUT as lay
        from tagspot.channel import noise_power_for_snr
        from tagspot.codebook import builtin_codebook
        from tagspot.iqfile import write_iq
        from tagspot.waveform import IqFrame

        # per-thin-carrier noise for a per-tone tag power of 1
        noise = noise_power_for_snr(self.snr_db, 1.0, lay)
        parts, total, truth = self._layout_stream(
            np.random.default_rng([seed, 1]), np.random.default_rng([seed, 2]),
            lay, builtin_codebook(), noise,
        )
        samples = _noise(np.random.default_rng([seed, 3]), total, noise)
        for part, offset in parts:
            samples[offset : offset + part.size] += part
        write_iq(workdir / "capture.iq", IqFrame(samples), layout=lay)
        del samples
        (workdir / "truth.json").write_bytes(_truth_bytes(truth))
        return {
            "capture.iq": sha256_file(workdir / "capture.iq"),
            "capture.iq.json": sha256_file(workdir / "capture.iq.json"),
            "truth.json": sha256_file(workdir / "truth.json"),
        }

    @staticmethod
    def _tag(rng, word, lay, fading, cfo_limit):
        from tagspot import channel, codebook, waveform

        power = float(lay.active_thin_per_wide * lay.groups)  # per-tone power 1
        mask = codebook.codeword_to_mask(word, lay)
        frame = waveform.synthesize_tag(
            waveform.build_tag_spectrum(mask, lay, power, rng), lay
        )
        if fading:
            frame = channel.apply_fading(frame, "wideband-rayleigh", rng, lay)
        if cfo_limit:
            frame = channel.apply_cfo(frame, float(rng.uniform(-cfo_limit, cfo_limit)), lay)
        return frame.samples

    # ---- timed path (worker process)

    def setup(self) -> None:
        import tagspot.cli as cli
        from tagspot.carriers import REFERENCE_LAYOUT
        from tagspot.codebook import builtin_codebook
        from tagspot.detector import DetectorConfig

        self.cli = cli
        # built for set-up timing only; every CLI run builds its own
        self.config = DetectorConfig(layout=REFERENCE_LAYOUT, codebook=builtin_codebook())

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.truth = json.loads((workdir / "truth.json").read_text())
        self.samples = (workdir / "capture.iq").stat().st_size // 8
        self.digests: "set[str]" = set()
        self.header: dict = {}
        self.recall = None
        self.far = None

    def run_op(self, i: int) -> None:
        # relative paths: the input path is written into the event file header
        rc = self.cli.main(["spot", "--in", "capture.iq", "--out", "events.txt"])
        if rc != 0:
            raise RuntimeError(f"tagspot spot exited {rc}")

    def units(self, result) -> int:
        return self.samples

    def check_op(self, i: int, result) -> bool:
        path = Path("events.txt")
        digest = sha256_file(path)
        self.header, events = _read_events(path)
        self.digests.add(digest)
        starts = np.asarray([t[0] for t in self.truth])
        hit = np.zeros(len(self.truth), dtype=bool)
        far = 0
        for start, word in events:
            near = np.flatnonzero(np.abs(starts - start) <= FRAME)
            if near.size == 0:
                far += 1
            for k in near:
                if self.truth[k][1] == word:
                    hit[k] = True
        self.recall = float(hit.mean())
        self.far = far
        return self.recall >= self.recall_floor and far <= self.far_ceiling

    def final_checks(self):
        found = ",".join(sorted(self.digests))
        checks = [("event file identical on every run", len(self.digests) == 1, found)]
        if self.seed == DEFAULT_SEED:
            checks.append(("event file digest equals the pin",
                           self.digests == {PINNED[self.name]}, found))
        return checks

    def report(self) -> dict:
        return {
            "event_digest": sorted(self.digests),
            "windows_total": self.header.get("windows_total"),
            "windows_gated": self.header.get("windows_gated"),
            "recall": self.recall,
            "recall_floor": self.recall_floor,
            "far_events": self.far,
            "far_ceiling": self.far_ceiling,
        }

    def patches(self):
        import tagspot.cli as cli
        import tagspot.detector as detector

        return [
            (cli, "main", "cli.main", None),
            (cli, "read_iq", "iqfile.read_iq", _read_iq_bytes),
            (cli, "builtin_codebook", "codebook.builtin_codebook", None),
            (cli, "spot_report", "detector.spot_report", _spot_counts),
            (cli, "serialize_events", "detector.serialize_events", None),
            (detector, "mask_matrix", "codebook.mask_matrix", None),
            (detector, "fold_spectrum", "detector.fold_spectrum", None),
            (detector, "center_of_mass", "detector.center_of_mass", None),
            (detector, "noise_tracker_update", "detector.noise_tracker_update", None),
        ]


def _noise(rng, total: int, noise_power: float) -> np.ndarray:
    """Circular complex Gaussian noise, per-sample power noise_power (the
    calibration of channel.apply_awgn), drawn in place to keep memory low."""
    out = np.empty(total, dtype=np.complex128)
    scale = np.sqrt(noise_power / 2.0)
    view = out.view(np.float64)
    step = 1 << 20
    for lo in range(0, view.size, step):
        hi = min(lo + step, view.size)
        view[lo:hi] = rng.normal(scale=scale, size=hi - lo)
    return out


class CaptureSparse(_Capture):
    """400 tags at 1 dB, wideband Rayleigh fading and CFO up to +-1 thin
    width, one per 12,800-sample slot at a random offset, plus 200 bursts of
    data-like interference 6 dB above the noise."""

    name = "capture-sparse"
    snr_db = 1.0
    n_tags = 400
    slot = 12_800
    n_bursts = 200
    burst_frames = 4
    burst_db = 6.0
    recall_floor = 0.85
    far_ceiling = 4

    def _layout_stream(self, rng, rng_intf, lay, codebook, noise):
        from tagspot.waveform import synthesize_data_interference

        parts, truth = [], []
        for k in range(self.n_tags):
            word = int(rng.integers(codebook.size))
            # tags sit in the first half of their slot and bursts in the
            # second, so the noise floor a burst lifts settles before a tag
            start = k * self.slot + int(rng.integers(0, self.slot // 2 - FRAME))
            parts.append((self._tag(rng, codebook.words[word], lay, True, 1.0), start))
            truth.append([start, word])
        # one interference frame spans wide_total samples of body, so its
        # per-sample power is total_power / wide_total
        burst_power = lay.wide_total * noise * 10.0 ** (self.burst_db / 10.0)
        for j in range(self.n_bursts):
            slot = 2 * j + 1
            start = slot * self.slot + self.slot // 2 + int(rng_intf.integers(0, self.slot // 4))
            burst = synthesize_data_interference(lay, self.burst_frames, burst_power, rng_intf)
            parts.append((burst.samples, start))
        return parts, self.n_tags * self.slot, truth


class CaptureDense(_Capture):
    """1,500 back-to-back tags, one every 640 samples, at 6 dB after a
    noise-only lead-in."""

    name = "capture-dense"
    snr_db = 6.0
    n_tags = 1500
    recall_floor = 0.98
    far_ceiling = 0

    def _layout_stream(self, rng, rng_intf, lay, codebook, noise):
        lead = int(rng.integers(2 * FRAME, 3 * FRAME))
        parts, truth = [], []
        for k in range(self.n_tags):
            word = int(rng.integers(codebook.size))
            start = lead + k * FRAME
            parts.append((self._tag(rng, codebook.words[word], lay, False, 0.0), start))
            truth.append([start, word])
        return parts, lead + (self.n_tags + 1) * FRAME, truth


# ---------------------------------------------------------------------------
# short-stream detection trials


class Trials(_Workload):
    """2,000 short-stream detection trials shaped like acceptance criteria
    04 and 06: a 2,560-sample stream holding one random codeword at a random
    offset, then the spotter. Even trials are arm (a): wideband Rayleigh
    fading, CFO up to +-2 thin widths, 1 dB. Odd trials are arm (b): 0 dB
    with a third of the disturbance replaced by data-like interference.
    Trial t draws from default_rng([seed, t])."""

    name = "trials"
    n_trials = 2000
    min_ops = n_trials
    trace_ops = n_trials
    stream_len = 2560
    pd_floor = 0.9  # criterion 04, arm (a)

    def setup(self) -> None:
        from tagspot import channel, codebook, detector, waveform
        from tagspot.carriers import REFERENCE_LAYOUT as lay

        self.channel, self.codebook, self.detector, self.waveform = (
            channel, codebook, detector, waveform,
        )
        self.lay = lay
        self.book = codebook.builtin_codebook()
        self.config = detector.DetectorConfig(layout=lay, codebook=self.book, gamma=0.62)
        self.tag_power = float(lay.active_thin_per_wide * lay.groups)
        self.noise_a = channel.noise_power_for_snr(1.0, 1.0, lay)
        n_ref = channel.noise_power_for_snr(0.0, 1.0, lay)
        self.noise_b = n_ref * (2.0 / 3.0)
        self.interferer_power = (n_ref / 3.0) / self._interferer_band_density()

    def _interferer_band_density(self) -> float:
        """Mean folded in-band power per thin bin per unit interferer frame
        power over the spotter's interval grid, as criterion 06 measures it."""
        lay = self.lay
        stream = self.waveform.synthesize_data_interference(
            lay, 128, 1.0, np.random.default_rng(85)
        ).samples
        band = np.asarray(lay.band_wide)
        starts = range(0, stream.size - lay.fft_size + 1, lay.cp_len)
        windows = np.stack([stream[s : s + lay.fft_size] for s in starts])
        spectra = np.fft.fftshift(np.fft.fft(windows, axis=1), axes=1) / np.sqrt(lay.fft_size)
        wide = (np.abs(spectra) ** 2).reshape(len(windows), lay.wide_total, -1).sum(axis=2)
        return float(np.mean(wide[:, band].sum(axis=1) / (band.size * lay.thin_per_wide)))

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.truth: "list[list | None]" = [None] * self.n_trials
        self.outcomes: "list[str | None]" = [None] * self.n_trials

    def run_op(self, i: int):
        t = i % self.n_trials
        lay, channel, waveform = self.lay, self.channel, self.waveform
        rng = np.random.default_rng([self.seed, t])
        arm_a = t % 2 == 0
        word = int(rng.integers(self.book.size))
        mask = self.codebook.codeword_to_mask(self.book.words[word], lay)
        frame = waveform.synthesize_tag(
            waveform.build_tag_spectrum(mask, lay, self.tag_power, rng), lay
        )
        cfo = 0.0
        if arm_a:
            frame = channel.apply_fading(frame, "wideband-rayleigh", rng, lay)
            cfo = float(rng.uniform(-2.0, 2.0))
            frame = channel.apply_cfo(frame, cfo, lay)
        offset = int(rng.integers(0, self.stream_len // 2))
        parts = [
            (waveform.IqFrame(np.zeros(self.stream_len, dtype=complex)), 0, 1.0),
            (frame, offset, 1.0),
        ]
        if not arm_a:
            parts.append((waveform.synthesize_data_interference(
                lay, self.stream_len // 80, self.interferer_power, rng), 0, 1.0))
        stream = channel.apply_awgn(
            channel.mix(parts), self.noise_a if arm_a else self.noise_b, rng
        )
        report = self.detector.spot_report(stream, self.config)
        return t, [int(arm_a), word, offset, cfo], report

    def check_op(self, i: int, result) -> bool:
        t, truth, report = result
        hit = any(e.codeword_index == truth[1] for e in report.events)
        outcome = f"{t} {int(hit)} " + " ".join(
            f"{e.interval_start}:{e.codeword_index}" for e in report.events
        )
        if self.outcomes[t] is None:
            self.truth[t] = truth
            self.outcomes[t] = outcome
            return True
        # a repeated trial must reproduce its first outcome exactly
        return self.truth[t] == truth and self.outcomes[t] == outcome

    def _pd(self, arm: int) -> float:
        rows = [o for o, tr in zip(self.outcomes, self.truth) if tr and tr[0] == arm]
        return sum(o.split()[1] == "1" for o in rows) / len(rows) if rows else 0.0

    def outcome_digest(self) -> str:
        return sha256_bytes(("\n".join(map(str, self.outcomes)) + "\n").encode())

    def final_checks(self):
        checks = [(
            "criterion 04 floor: pd on arm (a) >= 0.9",
            self._pd(1) >= self.pd_floor,
            f"{self._pd(1):.4f}",
        )]
        if self.seed == DEFAULT_SEED:
            checks.append(("outcome digest equals the pin",
                           self.outcome_digest() == PINNED[self.name], self.outcome_digest()))
        return checks

    def provenance(self) -> dict:
        # every input is drawn inside its trial from (seed, t), so the
        # ground truth is hashed as the trials ran
        return {"truth": sha256_bytes(_truth_bytes(self.truth))}

    def report(self) -> dict:
        return {
            "pd_arm_a": self._pd(1),
            "pd_arm_b": self._pd(0),
            "outcome_digest": self.outcome_digest(),
        }

    def patches(self):
        from tagspot import channel, codebook, detector, waveform

        return [
            (codebook, "codeword_to_mask", "codebook.codeword_to_mask", None),
            (codebook, "builtin_codebook", "codebook.builtin_codebook", None),
            (waveform, "build_tag_spectrum", "waveform.build_tag_spectrum", None),
            (waveform, "synthesize_tag", "waveform.synthesize_tag", None),
            (waveform, "synthesize_data_interference",
             "waveform.synthesize_data_interference", None),
            (channel, "apply_fading", "channel.apply_fading", None),
            (channel, "apply_cfo", "channel.apply_cfo", None),
            (channel, "mix", "channel.mix", None),
            (channel, "apply_awgn", "channel.apply_awgn", None),
            (detector, "spot_report", "detector.spot_report", _spot_counts),
            (detector, "mask_matrix", "codebook.mask_matrix", None),
            (detector, "fold_spectrum", "detector.fold_spectrum", None),
            (detector, "center_of_mass", "detector.center_of_mass", None),
            (detector, "noise_tracker_update", "detector.noise_tracker_update", None),
        ]


# ---------------------------------------------------------------------------
# analysis Monte Carlo tables


class Analysis(_Workload):
    """`tagspot curves --snr=0,1` on the committed 8-point gamma grid,
    wideband, 200,000 trials; then `tagspot sweep --carriers 56 --snr 0
    --trials 100000`; both in-process through cli.main. The workload seed
    is the Monte Carlo seed."""

    name = "analysis"
    # one pass takes about 11 s on a 2-core Xeon; two make the median a mean
    # of two passes instead of a single reading
    min_ops = 2
    gamma_grid = "0.5,0.55,0.58,0.6,0.62,0.64,0.66,0.7"
    curves_trials = 200_000
    sweep_trials = 100_000
    sweep_carriers = 56
    snr_points = 2

    def setup(self) -> None:
        import tagspot.cli as cli
        from tagspot.analysis import AnalysisModel
        from tagspot.carriers import REFERENCE_LAYOUT
        from tagspot.codebook import builtin_codebook

        self.cli = cli
        # built for set-up timing only; every CLI run builds its own
        self.book = builtin_codebook()
        self.model = AnalysisModel(layout=REFERENCE_LAYOUT, snr_db=0.0, fading="wideband")

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        root = Path(__file__).resolve().parents[1] / "results"
        self.ref_curves = (root / "curves-wideband.txt").read_text().splitlines()
        self.ref_sweep = (root / "carrier-sweep.txt").read_text().splitlines()
        self.curves_times: "list[float]" = []
        self.sweep_times: "list[float]" = []
        self.mismatches: "list[str]" = []

    def _argv(self):
        seed = str(self.seed)
        curves = ["curves", "--snr=0,1", f"--gamma={self.gamma_grid}",
                  "--fading", "wideband", "--trials", str(self.curves_trials),
                  "--seed", seed, "--out", "curves.txt"]
        sweep = ["sweep", "--carriers", str(self.sweep_carriers), "--snr", "0",
                 "--trials", str(self.sweep_trials), "--seed", seed, "--out", "sweep.txt"]
        return curves, sweep

    def draws_per_op(self) -> int:
        gammas = len(self.gamma_grid.split(","))
        # pf_family_mc per (snr, gamma) point and pm_mc per snr point, then
        # one chi-square pair per trial for each of the sweep's splits
        curves = self.curves_trials * self.snr_points * (gammas + 1)
        return curves + self.sweep_trials * (self.sweep_carriers - 1)

    def units(self, result) -> int:
        return self.draws_per_op()

    def reconcile(self, layers: dict, traced_ops: int):
        calls = layers.get("analysis.pf_family_mc.calls", 0)
        want = traced_ops * self.snr_points * len(self.gamma_grid.split(","))
        return super().reconcile(layers, traced_ops) + [
            ("pf_family_mc calls == 16 per curves run", calls == want, f"{calls} vs {want}")
        ]

    def run_op(self, i: int) -> None:
        from time import perf_counter

        curves, sweep = self._argv()
        t0 = perf_counter()
        rc = self.cli.main(curves)
        t1 = perf_counter()
        rc = rc or self.cli.main(sweep)
        t2 = perf_counter()
        if rc != 0:
            raise RuntimeError(f"tagspot exited {rc}")
        self.curves_times.append(t1 - t0)
        self.sweep_times.append(t2 - t1)

    def check_op(self, i: int, result) -> bool:
        exact = self.seed == DEFAULT_SEED
        bad = _compare_table(Path("curves.txt").read_text().splitlines(),
                             self.ref_curves, 2, 3, exact, "curves",
                             lambda key: key[1] in ("0", "1"))
        bad += _compare_table(Path("sweep.txt").read_text().splitlines(),
                              self.ref_sweep, 1, 3, exact, "sweep", lambda key: True)
        self.mismatches.extend(bad)
        return not bad

    def report(self) -> dict:
        return {
            "curves_s": self.curves_times,
            "sweep_s": self.sweep_times,
            "mismatches": self.mismatches[:10],
        }

    def patches(self):
        import tagspot.analysis as analysis
        import tagspot.cli as cli

        return [
            (cli, "main", "cli.main", None),
            (cli, "builtin_codebook", "codebook.builtin_codebook", None),
            (cli, "build_roc", "analysis.build_roc", None),
            (cli, "pm_mc", "analysis.pm_mc", _draws("analysis.pm_mc", cli.pm_mc)),
            (cli, "sweep_active_carriers", "analysis.sweep_active_carriers", None),
            (analysis, "pf_family_mc", "analysis.pf_family_mc",
             _draws("analysis.pf_family_mc", analysis.pf_family_mc)),
            (analysis, "pd_single", "analysis.pd_single", None),
            (analysis, "mask_matrix", "codebook.mask_matrix", None),
        ]


def _compare_table(got, ref, key_cols, free_cols, exact, label, expected) -> "list[str]":
    """Checks a table against its committed counterpart. Header lines must
    match except the seed line. Rows are keyed by their first key_cols
    columns, and got must hold exactly the committed rows whose key
    satisfies expected. Each must equal its committed row when exact, else
    match its first free_cols (seed-free) columns."""
    def split(lines):
        header = [r for r in lines if r.startswith("#") and (exact or not r.startswith("# seed:"))]
        rows = {tuple(r.split()[:key_cols]): r for r in lines if not r.startswith("#")}
        return header, rows

    got_header, got_rows = split(got)
    ref_header, ref_rows = split(ref)
    bad = [] if got_header == ref_header else [f"{label}: header differs"]
    if got_rows.keys() != {key for key in ref_rows if expected(key)}:
        bad.append(f"{label}: rows are not the expected committed rows")
    for key, row in got_rows.items():
        want = ref_rows.get(key)
        if want is None:
            continue
        if exact and row != want:
            bad.append(f"{label}: row {key} differs")
        elif row.split()[:free_cols] != want.split()[:free_cols]:
            bad.append(f"{label}: seed-free columns of row {key} differ")
    return bad


# ---------------------------------------------------------------------------
# counters read at layer boundaries during the traced run


def _spot_counts(args, kwargs, report) -> dict:
    return {
        "detector.windows_total": report.windows_total,
        "detector.windows_gated": report.windows_gated,
        "detector.events": len(report.events),
    }


def _read_iq_bytes(args, kwargs, result) -> dict:
    frame, _meta = result
    return {"iqfile.read_iq.bytes": 8 * len(frame)}


def _draws(span: str, fn):
    """Counts a Monte Carlo function's `trials` argument as its draws."""
    signature = inspect.signature(fn)

    def observe(args, kwargs, result) -> dict:
        trials = signature.bind(*args, **kwargs).arguments["trials"]
        return {f"{span}.draws": int(trials)}

    return observe


WORKLOADS = {w.name: w for w in (CaptureSparse, CaptureDense, Trials, Analysis)}
