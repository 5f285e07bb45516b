"""Reference results for the benchmark's outputs, computed without nfmimo.

The array positions, the Green's-function channel, its spectrum and the
gains are assembled here from the op inputs alone:

- spectra come from numpy.linalg.eigvalsh on the smaller Gram matrix
  (G G^H or G^H G; both have the nonzero spectrum of G G^H);
- gains are direct phasor sums; rho1_closed is the Dirichlet kernel summed
  term by term.

Tolerances:

- floats derived from the spectrum or from closed forms match within
  RTOL = 1e-12 relative, the bound ROADMAP item 1 sets;
- integer counts (n_dof, n_edof_exact) must equal the reference. Only when a
  reference eigenvalue (or cumulative energy share) lies within the
  eigensolver's error bound of the cut-off does the check accept every count
  in that band; such checks are counted as ambiguous;
- eigenvalue error bound: EIG_ERR * sqrt(M) * eps * lambda_max for an M x M
  Gram matrix. Measured errors stay below a tenth of it;
- gains: RTOL relative plus 2 N dphi absolute, dphi = PHASE_ULPS * eps * k *
  r_max bounding the rounding of phases near k r_max (about 2.5e4 rad at
  L = 40 m), which bounds |delta gain| for N unit phasors.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from workloads import (
    ENERGY_FRACTION,
    NOISE_VARIANCE,
    SEPARATION,
    SIDE,
    WAVELENGTH,
    focused_power,
)

EPS = float(np.finfo(float).eps)
RTOL = 1e-12
EIG_ERR = 64
PHASE_ULPS = 8
DOF_FLOOR = 1e-12
SWEEP_FIELDS = (
    "swept_value",
    "n_dof",
    "n_edof_exact",
    "n_edof_fringes",
    "n_edof_trace",
    "rho1_closed",
    "rho1_phase_only",
    "capacity_full",
    "capacity_edof_exact",
    "capacity_edof_fringes",
    "capacity_edof_trace",
    "epsilon",
)
GAIN_CHUNK = 512  # probes per phasor-sum block, to bound memory


class Checker:
    """Collects problems found in one output, plus diagnostics."""

    def __init__(self):
        self.problems: list[str] = []
        self.ambiguous = 0
        self.worst_ratio = 0.0  # largest |error| / tolerance among float checks

    def close(self, name, got, ref, tol):
        err = abs(got - ref)
        if tol > 0:
            self.worst_ratio = max(self.worst_ratio, err / tol)
        if not err <= tol:
            self.problems.append(f"{name}: got {got!r}, reference {ref!r}, tolerance {tol:.3g}")

    def rel(self, name, got, ref):
        self.close(name, got, ref, RTOL * abs(ref))

    def within(self, name, got, lo, hi):
        if lo != hi:
            self.ambiguous += 1
        if not lo <= got <= hi:
            band = f"{lo}" if lo == hi else f"[{lo}, {hi}]"
            self.problems.append(f"{name}: got {got!r}, reference {band}")

    def equal(self, name, got, ref):
        if got != ref:
            self.problems.append(f"{name}: got {got!r}, expected {ref!r}")


def upa(side: int, spacing: float, z: float, offset=(0.0, 0.0)) -> np.ndarray:
    """Row-major (n, m) grid of a centred square UPA in the plane z, shifted by offset."""
    coords = spacing * (np.arange(side) - (side - 1) / 2)
    x, y = np.meshgrid(coords + offset[0], coords + offset[1], indexing="ij")
    return np.column_stack([x.ravel(), y.ravel(), np.full(side * side, float(z))])


def green_matrix(rx: np.ndarray, tx: np.ndarray, wavelength: float) -> np.ndarray:
    """-exp(ikr) / (4 pi r), with r rounded as sqrt of a summed square.

    A phase k r near 2.5e4 rad moves by about 1e-12 per rounding of r, which
    shifts spectral floats by up to 4e-13 relative; rounding r the way the
    program does keeps that shift out of the 1e-12 checks.
    """
    d = rx[:, None, :] - tx[None, :, :]
    r = np.sqrt((d * d).sum(axis=2))
    return -np.exp(1j * (2 * np.pi / wavelength) * r) / (4 * np.pi * r)


class Spectrum:
    """Gram spectrum of G with the trace identities and an error bound."""

    def __init__(self, g: np.ndarray):
        gram = g @ g.conj().T if g.shape[0] <= g.shape[1] else g.conj().T @ g
        self.values = np.linalg.eigvalsh(gram)[::-1]
        self.tol = EIG_ERR * math.sqrt(self.values.size) * EPS * self.values[0]
        self.sum = float(np.vdot(g, g).real)  # tr(G G^H) = sum of eigenvalues
        self.sum_sq = float(np.vdot(gram, gram).real)  # ||G G^H||_F^2 = sum of squares

    def dof_band(self):
        cut = DOF_FLOOR * self.values[0]
        return (
            int(np.count_nonzero(self.values >= cut + self.tol)),
            int(np.count_nonzero(self.values >= cut - self.tol)),
        )

    def edof_band(self, fraction=ENERGY_FRACTION):
        share = np.cumsum(self.values) / self.sum
        slack = 2 * self.values.size * self.tol / self.sum
        n = self.values.size
        lo = int(np.searchsorted(share, fraction - slack)) + 1
        hi = int(np.searchsorted(share, fraction + slack)) + 1
        return min(lo, n), min(hi, n)

    def trace_estimate(self) -> float:
        return self.sum**2 / self.sum_sq

    def capacity(self, power, n_tx, truncate_to=None) -> float:
        vals = np.maximum(self.values[:truncate_to], 0.0)
        return float(np.sum(np.log2(1 + power * vals / (NOISE_VARIANCE * n_tx))))


def _check_spectrum(c: Checker, spec: Spectrum, out: dict, power: float, n_tx: int):
    c.within("n_dof", out["n_dof"], *spec.dof_band())
    c.within("n_edof_exact", out["n_edof_exact"], *spec.edof_band())
    c.rel("n_edof_trace", out["n_edof_trace"], spec.trace_estimate())
    c.rel("capacity_full", out["capacity_full"], spec.capacity(power, n_tx))
    c.rel(
        "capacity_edof_exact",
        out["capacity_edof_exact"],
        spec.capacity(power, n_tx, out["n_edof_exact"]),
    )


def gains(tx, probes, focus, wavelength, separation, mode) -> np.ndarray:
    """Phasor-sum gain (1/N)|sum_j a_j exp(i phase_j)|^2 at each probe point."""
    k = 2 * math.pi / wavelength
    n = tx.shape[0]
    out = np.empty(len(probes))
    focus_dist = np.linalg.norm(focus - tx, axis=1)
    for lo in range(0, len(probes), GAIN_CHUNK):
        p = probes[lo : lo + GAIN_CHUNK]
        rel = p[:, None, :] - tx[None, :, :]
        if mode == "fresnel":
            lateral = (rel[..., :2] ** 2).sum(axis=2) - ((focus[:2] - tx[:, :2]) ** 2).sum(axis=1)
            phasors = np.exp(1j * k * lateral / (2 * separation))
        else:
            dist = np.sqrt((rel**2).sum(axis=2))
            phasors = np.exp(1j * k * (dist - focus_dist))
            if mode == "exact":
                phasors *= separation / dist
        out[lo : lo + GAIN_CHUNK] = np.abs(phasors.sum(axis=1)) ** 2 / n
    return out


def gain_tol(tx, probes, wavelength) -> float:
    k = 2 * math.pi / wavelength
    r_max = float(np.max(np.linalg.norm(probes, axis=1))) + float(np.max(np.linalg.norm(tx, axis=1)))
    return 2 * tx.shape[0] * PHASE_ULPS * EPS * k * r_max


def dirichlet_gain(side: int, x: float) -> float:
    """|sum_{n<side} exp(2 pi i x n)|^2: the nearest-neighbour gain, summed term by term."""
    return float(abs(np.exp(2j * math.pi * x * np.arange(side)).sum()) ** 2)


def check_offaxis(inp: dict, out: dict) -> Checker:
    c = Checker()
    lam, sep = WAVELENGTH, inp["separation"]
    tx = upa(inp["tx_side"], inp["tx_spacing"], 0.0)
    rx = upa(inp["rx_side"], inp["rx_spacing"], sep, (inp["offset_x"], inp["offset_y"]))
    spec = Spectrum(green_matrix(rx, tx, lam))
    n_tx = tx.shape[0]
    c.equal("source_dims", out["source_dims"], [rx.shape[0], n_tx])
    values = np.asarray(out["values"])
    if values.shape != spec.values.shape:
        c.problems.append(f"values: got {values.size}, expected {spec.values.size}")
    else:
        worst = float(np.max(np.abs(values - spec.values)))
        c.close("values (max abs error)", worst, 0.0, spec.tol)
    c.rel("total_energy", out["total_energy"], spec.sum)
    area_tx = n_tx * inp["tx_spacing"] ** 2
    area_rx = rx.shape[0] * inp["rx_spacing"] ** 2
    c.rel("n_edof_fringes", out["n_edof_fringes"], area_tx * area_rx / (lam * sep) ** 2)
    c.equal("energy_fraction", out["energy_fraction"], ENERGY_FRACTION)
    _check_spectrum(c, spec, out, focused_power(n_tx, sep), n_tx)
    return c


def _parse_csv(text: str, c: Checker, header: tuple, rows: int):
    table = list(csv.reader(io.StringIO(text)))
    if not table or tuple(table[0]) != header:
        c.problems.append(f"header: got {table[:1]!r}, expected {list(header)!r}")
        return None
    if len(table) - 1 != rows:
        c.problems.append(f"rows: got {len(table) - 1}, expected {rows}")
        return None
    return table[1:]


def check_sweep(inp: dict, out: dict) -> Checker:
    c = Checker()
    c.equal("exit_code", out["exit_code"], 0)
    table = _parse_csv(out["csv"], c, SWEEP_FIELDS, 1)
    if table is None:
        return c
    row = dict(zip(SWEEP_FIELDS, table[0]))
    try:
        rec = {k: (int(v) if k in ("n_dof", "n_edof_exact") else float(v)) for k, v in row.items()}
    except ValueError as exc:
        c.problems.append(f"unparseable record: {exc}")
        return c
    d, lam, sep, side = inp["spacing"], WAVELENGTH, SEPARATION, SIDE
    n = side * side
    c.equal("swept_value", rec["swept_value"], d)
    tx = upa(side, d, 0.0)
    rx = upa(side, d, sep)
    spec = Spectrum(green_matrix(rx, tx, lam))
    power = focused_power(n, sep)
    _check_spectrum(c, spec, rec, power, n)
    fringes = (n * d * d) ** 2 / (lam * sep) ** 2
    c.rel("n_edof_fringes", rec["n_edof_fringes"], fringes)
    for name, estimate in (("fringes", rec["n_edof_fringes"]), ("trace", rec["n_edof_trace"])):
        keep = min(n, max(1, math.ceil(estimate)))
        c.rel(f"capacity_edof_{name}", rec[f"capacity_edof_{name}"], spec.capacity(power, n, keep))
    x = d * d / (lam * sep)
    c.close("rho1_closed", rec["rho1_closed"], dirichlet_gain(side, x), RTOL * n)
    focus = np.array([0.0, 0.0, sep])
    probe = np.array([[d, 0.0, sep]])
    ref = gains(tx, probe, focus, lam, sep, "phase_only")[0]
    c.close("rho1_phase_only", rec["rho1_phase_only"], ref, RTOL * ref + gain_tol(tx, probe, lam))
    c.rel("epsilon", rec["epsilon"], side * x)
    try:
        sidecar = json.loads(out["sidecar"])
    except ValueError as exc:
        c.problems.append(f"sidecar: {exc}")
        return c
    for key, want in (
        ("swept_variable", "spacing"),
        ("grid", [d]),
        ("wavelength", lam),
        ("side_count", side),
        ("separation", sep),
    ):
        c.equal(f"sidecar {key}", sidecar.get(key), want)
    return c


def check_gainmap(inp: dict, out: dict) -> Checker:
    c = Checker()
    c.equal("exit_code", out["exit_code"], 0)
    p, d, mode = inp["points"], inp["spacing"], inp["mode"]
    table = _parse_csv(out["csv"], c, ("probe_x", "probe_y", "mode", "gain"), p * p)
    if table is None:
        return c
    lam, sep, side = WAVELENGTH, SEPARATION, SIDE
    extent = 2 * math.sqrt(lam * sep / side)
    axis = np.linspace(-extent, extent, p)
    want_xy = np.array([(x, y) for x in axis for y in axis])
    try:
        got_xy = np.array([(float(r[0]), float(r[1])) for r in table])
        got_gain = np.array([float(r[3]) for r in table])
    except ValueError as exc:
        c.problems.append(f"unparseable row: {exc}")
        return c
    c.close("probe coordinates (max abs error)", float(np.max(np.abs(got_xy - want_xy))), 0.0, 8 * EPS * extent)
    modes = {r[2] for r in table}
    c.equal("mode column", modes, {mode})
    tx = upa(side, d, 0.0)
    probes = np.column_stack([want_xy, np.full(len(want_xy), sep)])
    ref = gains(tx, probes, np.array([0.0, 0.0, sep]), lam, sep, mode)
    tol = RTOL * np.abs(ref) + gain_tol(tx, probes, lam)
    err = np.abs(got_gain - ref)
    worst = int(np.argmax(err / tol))
    c.close(f"gain at probe {worst}", got_gain[worst], ref[worst], tol[worst])
    return c


CHECKS = {
    "sweep_spacing": check_sweep,
    "offaxis_dense": check_offaxis,
    "gainmap_cli": check_gainmap,
}


def check(workload: str, inp: dict, out: dict) -> Checker:
    """Check one captured output of `workload` against the reference for `inp`."""
    return CHECKS[workload](inp, out)
