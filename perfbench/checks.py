"""Correctness checks on what a benchmark job wrote.

Each check reads the job's CSV/JSON output and its manifest (for the
settings in force) and returns a list of (name, ok, detail) tuples. The
library is used only to regenerate the seeded channel draw, to lift a
stored reduced beamformer with `Beamformer.full()` and to evaluate it
with the full-size `rate_pair` / `relay_power`, and for the closed-form
references (c_ub0, the MAC region) the checks compare against. Import
this module only after `twrelay` is importable from the checkout.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Dict, List, Tuple

import numpy as np

from twrelay.beamformer import RateProfile
from twrelay.bounds import c_ub0
from twrelay.df import mac_region
from twrelay.model import Beamformer, PowerConfig, effective, gen_channels, rate_pair, relay_power

Check = Tuple[str, bool, str]

# A lifted beamformer must reach its row's stored rates within RATE_TOL
# bits. Each probe's SDP is solved to a relative tolerance of 1e-8, so its
# SNR constraints hold to about that relative slack, which costs at most
# 0.5 * 1e-8 / ln 2 = 7.2e-9 bits of rate; 1e-9 is exceeded (1.1e-9 on a
# seeded region draw) while the solver is within its stated accuracy.
RATE_TOL = 1e-8
POWER_TOL = 1e-6  # and must spend at most P_R (1 + POWER_TOL)
BOUND_TOL = 1e-6  # slack for the sum-rate bound orderings
BC_TOL = 1e-8  # single-link broadcast endpoints against the closed form


def read_csv(path: str) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def read_settings(out: str) -> dict:
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as handle:
        return json.load(handle)["settings"]


def _beamformer(row: Dict[str, str]) -> np.ndarray:
    re = [float(row[f"B_re[{k}]"]) for k in range(4)]
    im = [float(row[f"B_im[{k}]"]) for k in range(4)]
    return (np.array(re) + 1j * np.array(im)).reshape(2, 2)


def lifted_rows(tag: str, rows: List[Dict[str, str]], pair, p_relay: float) -> List[Check]:
    """Every row's reduced B, lifted to M x M, reaches the row's rate pair
    and fits the relay budget at the row's source powers."""
    eff = effective(pair)
    out: List[Check] = []
    for i, row in enumerate(rows):
        A = Beamformer(B=_beamformer(row), U=eff.U).full()
        pc = PowerConfig(float(row["p1"]), float(row["p2"]), p_relay)
        got = rate_pair(A, pair, pc)
        spent = relay_power(A, pair, pc)
        short = max(float(row["r21"]) - got.r21, float(row["r12"]) - got.r12)
        ok = short <= RATE_TOL and spent <= p_relay * (1.0 + POWER_TOL)
        out.append((f"{tag}-lift-{i}", ok, f"rate shortfall {short:.3e}, power {spent:.9g} of {p_relay:.9g}"))
    return out


def ray_values(tag: str, rows, pair, p_relay: float, delta_r: float, mr_rows=None) -> List[Check]:
    """Each optimal ray value t = r21 + r12 is at most c_ub0 and, when an MR
    boundary is given, at least the best MR ray value less the bisection
    tolerance delta_r."""
    mr = [(float(r["r21"]), float(r["r12"])) for r in mr_rows or []]
    out: List[Check] = []
    for i, row in enumerate(rows):
        alpha = float(row["alpha21"])
        t = float(row["r21"]) + float(row["r12"])
        ub = c_ub0(PowerConfig(float(row["p1"]), float(row["p2"]), p_relay), pair.theta1, pair.theta2)
        ok = t <= ub + RATE_TOL
        detail = f"t {t:.9f} <= c_ub0 {ub:.9f}"
        if mr:
            t_mr = max(
                min(x / alpha if alpha > 0.0 else math.inf, y / (1.0 - alpha) if alpha < 1.0 else math.inf)
                for x, y in mr
            )
            ok = ok and t >= t_mr - delta_r - 1e-12
            detail += f", >= MR {t_mr:.9f} - {delta_r:g}"
        out.append((f"{tag}-ray-{i}", ok, detail))
    return out


def _pair(settings: dict):
    return gen_channels(settings["m"], settings["rho"], settings["seed"])


def check_region(out: str) -> List[Check]:
    s = read_settings(out)
    pair = _pair(s)
    opt = read_csv(os.path.join(out, "boundary_optimal.csv"))
    mr = read_csv(os.path.join(out, "boundary_mr.csv"))
    checks = lifted_rows("optimal", opt, pair, s["pr"])
    checks += ray_values("optimal", opt, pair, s["pr"], s["delta-r"], mr)
    present = os.path.exists(os.path.join(out, "boundary_zf.csv"))
    checks.append(("zf-written", present, "boundary_zf.csv present"))
    return checks


def check_capacity(out: str) -> List[Check]:
    s = read_settings(out)
    pair = _pair(s)
    rows = read_csv(os.path.join(out, "capacity.csv"))
    return lifted_rows("capacity", rows, pair, s["pr"]) + ray_values(
        "capacity", rows, pair, s["pr"], s["delta-r"]
    )


def check_df(out: str) -> List[Check]:
    s = read_settings(out)
    pair = _pair(s)
    checks: List[Check] = []
    af = read_csv(os.path.join(out, "af_region.csv"))
    checks += lifted_rows("af", af, pair, s["pr"]) + ray_values("af", af, pair, s["pr"], s["delta-r"])

    pent = mac_region(pair, s["p1"], s["p2"])
    rows = read_csv(os.path.join(out, "df_region.csv"))
    for i, (row, alpha) in enumerate(zip(rows, np.linspace(0.0, 1.0, s["profiles"]))):
        t = float(row["r21"]) + float(row["r12"])
        tau = float(row["tau"])
        t_mac = pent.ray_exit(RateProfile(float(alpha), float(1.0 - alpha)))
        ok = t <= t_mac + RATE_TOL and 0.0 <= tau <= 1.0
        checks.append((f"df-ray-{i}", ok, f"t {t:.9f} <= MAC {t_mac:.9f}, tau {tau:.6f}"))
    checks.append(("df-rows", len(rows) == s["profiles"], f"{len(rows)} rows"))

    bc = read_csv(os.path.join(out, "half_bc.csv"))
    for col, theta in (("r21", pair.theta1), ("r12", pair.theta2)):
        got = 2.0 * max(float(r[col]) for r in bc)
        want = math.log2(1.0 + s["pr"] * theta)
        checks.append((f"bc-single-link-{col}", abs(got - want) <= BC_TOL, f"got {got:.12f} want {want:.12f}"))
    return checks


def check_sumrate(out: str) -> List[Check]:
    checks: List[Check] = []
    if os.path.exists(os.path.join(out, "bounds.json")):
        with open(os.path.join(out, "bounds.json"), encoding="utf-8") as handle:
            b = json.load(handle)
        ok = b["r_lb_mr"] <= b["c_ub"] + BOUND_TOL and b["c_ub"] <= b["c_ub0"] + BOUND_TOL
        checks.append(("bounds-chain", ok, f"{b['r_lb_mr']:.9f} <= {b['c_ub']:.9f} <= {b['c_ub0']:.9f}"))
        return checks
    for row in read_csv(os.path.join(out, "sumrate.csv")):
        v = {k: float(x) for k, x in row.items()}
        ok = v["r_lb_mr"] <= v["r_mr"] + BOUND_TOL and v["r_lb_zf"] <= v["r_zf"] + BOUND_TOL
        ok = ok and all(v[k] <= v["c_ub_sym"] + BOUND_TOL for k in SCHEME_COLUMNS)
        checks.append((f"sumrate-{v['snr_db']:g}db", ok, ", ".join(f"{k} {v[k]:.6f}" for k in row)))
    return checks


SCHEME_COLUMNS = ("r_mr", "r_zf", "r_dr", "r_ow")
# Sum rates the program searches for; the other columns are closed forms,
# and r_dr also moves with the phases of the channel draw.
SEARCHED_COLUMNS = ("r_mr", "r_zf")

CHECKS = {
    "region": check_region,
    "capacity": check_capacity,
    "df": check_df,
    "sumrate": check_sumrate,
}


def rate_sums(out: str) -> List[float]:
    """r21 + r12 of every rate pair a job wrote; for the sum-rate table,
    its searched scheme sum rates."""
    sums: List[float] = []
    for name in sorted(os.listdir(out)):
        if not name.endswith(".csv"):
            continue
        rows = read_csv(os.path.join(out, name))
        for row in rows:
            if "r21" in row:
                sums.append(float(row["r21"]) + float(row["r12"]))
            else:
                sums.extend(float(row[k]) for k in SEARCHED_COLUMNS)
    return sums


def csv_bytes(out: str) -> Dict[str, bytes]:
    """Every CSV a job wrote, by file name, for the determinism check."""
    found = {}
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as handle:
                found[name] = handle.read()
    return found
