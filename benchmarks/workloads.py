"""Seeded inputs and the operations of the three benchmark workloads.

Each workload is a pass of OPS_PER_PASS distinct inputs drawn from the seed.
A run repeats whole passes, so every run executes the same mix of operation
sizes and the metrics do not depend on where the clock stopped. Op sizes
(array side counts, probe counts) are fixed ladders over their ranges; the
seed draws the continuous parameters, one per stratum of their range, and
the order of the pass. The stratum an input takes for each parameter follows
a fixed lattice (i * multiplier mod OPS_PER_PASS), so the parameters stay
decorrelated.

Nothing in this module imports nfmimo: the operations receive the package
from the caller, which is how the tests and the worker share them.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("sweep_spacing", "offaxis_dense", "gainmap_cli")

OPS_PER_PASS = 15  # odd, so p50 and p90 fall inside a size class, not between two
WAVELENGTH = 0.01
SEPARATION = 40.0
SIDE = 25
SPACING_RANGE = (2.0, 20.0)  # wavelengths
SEPARATION_RANGE = (10.0, 80.0)  # meters
# probes per axis, one op each; a fixed ladder over [21, 61] for the same
# reason as OFFAXIS_SIDES: with a drawn count the 2nd-largest op, which sets
# p90, moved by 10 % from seed to seed
GAIN_POINTS = (21, 24, 27, 30, 32, 35, 38, 41, 44, 47, 50, 52, 55, 58, 61)
GAIN_MODES = ("exact", "phase_only", "fresnel")
ENERGY_FRACTION = 0.999
NOISE_VARIANCE = 1.0
FOCUSED_SNR = 10.0  # linear; the experiments module's auto power uses 10 dB

# offaxis_dense pairs tx side OFFAXIS_SIDES[i] with rx side OFFAXIS_SIDES[i + 7]:
# every side count in [10, 40] appears once on each end, no pair is square,
# and the widest matrix is 1600 x 625. Fixed sizes keep the cubic-cost mix
# identical across seeds; with independent draws per op the ops/s of a 20 s
# run spread by 15-35 % from seed to seed.
OFFAXIS_SIDES = (10, 12, 14, 16, 19, 21, 23, 25, 27, 29, 31, 34, 36, 38, 40)
OFFAXIS_RX_SHIFT = 7


def threshold_spacing(side: int = SIDE) -> float:
    """Optimal spacing sqrt(lambda L / sqrt(N)) of the fig5 system."""
    return math.sqrt(WAVELENGTH * SEPARATION / side)


def focused_power(n_tx: int, separation: float) -> float:
    """Transmit power giving a focused single-antenna SNR of 10 dB (noise variance 1)."""
    return FOCUSED_SNR * NOISE_VARIANCE * (4 * math.pi * separation) ** 2 / n_tx


def _lattice(
    rng: random.Random, lo: float, hi: float, multiplier: int, n: int = OPS_PER_PASS
) -> list[float]:
    """One draw per each of n strata of [lo, hi); input i takes stratum i * multiplier mod n."""
    width = (hi - lo) / n
    return [lo + ((i * multiplier) % n + rng.random()) * width for i in range(n)]


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The pass of distinct inputs for `workload`, in execution order."""
    rng = random.Random(f"{workload}:{seed}")
    n = OPS_PER_PASS
    lam = WAVELENGTH
    if workload == "sweep_spacing":
        spacings = [v * lam for v in _lattice(rng, *SPACING_RANGE, 1, n - 1)]
        spacings.append(threshold_spacing())
        inputs = [{"spacing": d} for d in spacings]
    elif workload == "offaxis_dense":
        tx_spacing = _lattice(rng, *SPACING_RANGE, 4)
        rx_spacing = _lattice(rng, *SPACING_RANGE, 11)
        separation = _lattice(rng, *SEPARATION_RANGE, 7)
        inputs = []
        for i in range(n):
            tx_side = OFFAXIS_SIDES[i]
            rx_side = OFFAXIS_SIDES[(i + OFFAXIS_RX_SHIFT) % n]
            d_tx = tx_spacing[i] * lam
            # the rx centre lands up to one tx aperture width off the axis
            reach = tx_side * d_tx
            inputs.append(
                {
                    "tx_side": tx_side,
                    "rx_side": rx_side,
                    "tx_spacing": d_tx,
                    "rx_spacing": rx_spacing[i] * lam,
                    "separation": separation[i],
                    "offset_x": rng.uniform(-reach, reach),
                    "offset_y": rng.uniform(-reach, reach),
                }
            )
    elif workload == "gainmap_cli":
        spacing = _lattice(rng, *SPACING_RANGE, 4)
        inputs = [
            {"mode": GAIN_MODES[i % len(GAIN_MODES)], "points": GAIN_POINTS[i], "spacing": spacing[i] * lam}
            for i in range(n)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(inputs)
    return inputs


def warmup_index(workload: str, inputs: list[dict]) -> int:
    """The input of the untimed warm-up op: a fixed-size one, so set-up time
    does not depend on the seed, and the largest one, so peak memory is
    reached on every run."""
    if workload == "offaxis_dense":
        # SVD cost grows as max(N) * min(N)^2
        def cost(inp):
            big, small = sorted((inp["tx_side"] ** 2, inp["rx_side"] ** 2), reverse=True)
            return big * small * small
    elif workload == "gainmap_cli":
        def cost(inp):
            return inp["points"]
    else:
        def cost(inp):
            return inp["spacing"] == threshold_spacing()
    return max(range(len(inputs)), key=lambda i: cost(inputs[i]))


class Operations:
    """Runs the inputs of one workload against an nfmimo package.

    CLI workloads write their outputs under `workdir`; `capture` reads them
    back after the timed call, so file reads are not part of an op.
    """

    def __init__(self, nf, workload: str, inputs: list[dict], workdir: Path):
        self.nf = nf
        self.workload = workload
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.output = self.workdir / "out.csv"
        self.argv = [self._argv(i, inp) for i, inp in enumerate(inputs)]

    def _argv(self, index: int, inp: dict):
        if self.workload == "sweep_spacing":
            spec = self.workdir / f"spec-{index}.json"
            spec.write_text(_sweep_spec_json(inp["spacing"]))
            return ["sweep", str(spec), "--output", str(self.output)]
        if self.workload == "gainmap_cli":
            return [
                "gainmap",
                "--mode", inp["mode"],
                "--points", str(inp["points"]),
                "--spacing", repr(inp["spacing"]),
                "--wavelength", repr(WAVELENGTH),
                "--side-count", str(SIDE),
                "--separation", repr(SEPARATION),
                "--output", str(self.output),
            ]
        return None

    def execute(self, index: int, inp: dict):
        """The op itself: what the benchmark times."""
        argv = self.argv[index]
        if argv is not None:
            return self.nf.cli.main(argv)
        return _offaxis(self.nf, inp)

    def capture(self, raw) -> dict:
        """A JSON-ready copy of an op's output, for comparison and the oracle."""
        if self.workload == "offaxis_dense":
            spec, report, cap_full, cap_edof = raw
            out = report.to_dict()
            out.update(
                capacity_full=cap_full,
                capacity_edof_exact=cap_edof,
                total_energy=spec.total_energy,
                source_dims=list(spec.source_dims),
                values=spec.values.tolist(),
            )
            return out
        out = {"exit_code": raw, "csv": self.output.read_text()}
        if self.workload == "sweep_spacing":
            out["sidecar"] = Path(str(self.output) + ".spec.json").read_text()
        return out


def _sweep_spec_json(spacing: float) -> str:
    return json.dumps(
        {
            "swept_variable": "spacing",
            "grid": [spacing],
            "wavelength": WAVELENGTH,
            "side_count": SIDE,
            "separation": SEPARATION,
        }
    )


def _offaxis(nf, inp: dict):
    geometry, channel, spectrum = nf.geometry, nf.channel, nf.spectrum
    separation = inp["separation"]
    tx = geometry.build_upa(inp["tx_side"], inp["tx_spacing"], 0.0)
    grid = geometry.build_upa(inp["rx_side"], inp["rx_spacing"], separation)
    shifted = grid.positions + (inp["offset_x"], inp["offset_y"], 0.0)
    rx = geometry.PlanarArray(
        side_count=grid.side_count,
        spacing=grid.spacing,
        plane_offset=grid.plane_offset,
        positions=shifted,
    )
    system = channel.SystemGeometry(tx=tx, rx=rx, wavelength=WAVELENGTH)
    spec = spectrum.eigen_spectrum(channel.build_channel(system))
    report = spectrum.edof_report(
        spec, spectrum.plane_area(tx), spectrum.plane_area(rx), WAVELENGTH, separation
    )
    power = focused_power(tx.size, separation)
    cap_full = spectrum.capacity(spec, power, NOISE_VARIANCE, tx.size)
    cap_edof = spectrum.capacity(spec, power, NOISE_VARIANCE, tx.size, report.n_edof_exact)
    return spec, report, cap_full, cap_edof
