"""Command line front end producing CSV data files and JSON manifests.

Each file-writing subcommand emits its data tables plus a manifest
recording the seed, every setting in force (flag, config file entry,
or built-in default), the library version, and wall-clock timings.
Power flags accept linear values or decibels via a 'db' suffix. An
optional flat key=value config file can stand in for any flag;
explicit flags always win over the file.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import io as tio
from . import __version__
from .beamformer import (
    DEFAULT_DELTA_R,
    DEFAULT_N_PROFILES,
    DEFAULT_POWER_GRID,
    RateProfile,
    _profiles,
    max_sum_rate,
    min_relay_power,
    capacity_region,
    rate_region_boundary,
    snr_targets,
)
from .bounds import bounds_report, c_ub0, c_ub_sym, r_lb_mr, r_lb_zf
from .df import DEFAULT_TAU_GRID, DEFAULT_WEIGHTS, _bc_arc, _df_ray, _tau_grid, bc_wsrmax, df_boundary_value, df_tau_slices, mac_region
from .errors import InvalidInputError, NumericalFailureError, RankDeficiencyError
from .model import (
    PowerConfig,
    effective,
    gen_channels,
    rate_pair_reduced,
    relay_power_reduced,
)
from .oracle import oracle_max_sum_rate, oracle_min_power
from .schemes import (
    DEFAULT_RATIOS,
    _ChannelForms,
    _Sweep,
    _direct_relay_sum,
    oneway_alternating,
    scheme_max_sum_rate,
    sweep_region,
)

# ---------------------------------------------------------------- converters


def _from_db(db: float) -> float:
    """Linear power of a value in decibels."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise InvalidInputError(f"{db!r} dB overflows a float power") from None


def parse_power(text: str) -> float:
    """Linear power, or decibels when suffixed with 'db' (10 -> 10, 20db -> 100)."""
    s = text.strip().lower()
    if s.endswith("db"):
        return _from_db(float(s[:-2]))
    value = float(s)
    if value < 0.0:
        raise ValueError(f"power must be nonnegative, got {text}")
    return value


def parse_rho(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"must lie in [0, 1], got {text}")
    return value


def parse_positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise ValueError(f"must be positive and finite, got {text}")
    return value


def parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text}")
    return value


def _parse_int_min(minimum: int) -> Callable[[str], int]:
    def convert(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise ValueError(f"must be at least {minimum}, got {text}")
        return value

    return convert


def parse_bool(text: str) -> bool:
    s = text.strip().lower()
    if s in ("true", "1", "yes", "on"):
        return True
    if s in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected true/false, got {text}")


def _parse_choice(options: Sequence[str]) -> Callable[[str], str]:
    def convert(text: str) -> str:
        s = text.strip().lower()
        if s not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {text}")
        return s

    return convert


# ------------------------------------------------------------- option table


@dataclass(frozen=True)
class Opt:
    name: str
    convert: Callable[[str], object]
    default: object
    help: str
    is_flag: bool = False

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


def _common(*names: str) -> List[Opt]:
    table = {
        "m": Opt("m", _parse_int_min(2), 4, "number of relay antennas"),
        "rho": Opt("rho", parse_rho, 0.5, "squared channel correlation in [0, 1]"),
        "p1": Opt("p1", parse_power, 10.0, "terminal 1 transmit power (linear or '..db')"),
        "p2": Opt("p2", parse_power, 10.0, "terminal 2 transmit power (linear or '..db')"),
        "pr": Opt("pr", parse_power, 10.0, "relay power budget (linear or '..db')"),
        "profiles": Opt("profiles", _parse_int_min(2), DEFAULT_N_PROFILES, "rate-profile rays traced"),
        "ratios": Opt("ratios", _parse_int_min(2), DEFAULT_RATIOS, "ratio sweep points per scheme"),
        "delta-r": Opt("delta-r", parse_positive, DEFAULT_DELTA_R, "largest gap in bits between a traced sum rate and its ray's exit"),
        "seed": Opt("seed", _parse_int_min(0), 42, "channel draw seed"),
        "out": Opt("out", str, ".", "output directory"),
    }
    return [table[name] for name in names]


SUMRATE_MAX_POINTS = 100_001  # sumrate keeps every row in memory until it writes

OPTS: Dict[str, List[Opt]] = {
    "region": _common("m", "rho", "p1", "p2", "pr", "profiles", "ratios", "delta-r", "seed", "out")
    + [
        Opt(
            "scheme",
            _parse_choice(("all", "optimal", "mr", "zf")),
            "all",
            "which boundaries to write",
        )
    ],
    "capacity": _common("m", "rho", "p1", "p2", "pr", "profiles", "delta-r", "seed", "out")
    + [Opt("grid", _parse_int_min(2), DEFAULT_POWER_GRID, "log-spaced points per source-power axis; "
           "only cells with one source at full power are searched")],
    "sumrate": [
        *_common("m"),
        replace(_common("rho")[0], default=1.0 / 3.0),
        Opt("snr-min", parse_finite, 0.0, "grid start in dB"),
        Opt("snr-max", parse_finite, 40.0, "grid end in dB"),
        Opt("snr-step", parse_positive, 2.0, f"grid step in dB; the grid holds at most {SUMRATE_MAX_POINTS} points"),
        *_common("seed"),
        Opt("ow-equal-energy", parse_bool, False, "one-way relay splits the budget across its two forwarding slots", is_flag=True),
        *_common("out"),
    ],
    "bounds": [
        *_common("rho"),
        Opt("theta1", parse_positive, 1.0, "squared gain of channel 1"),
        Opt("theta2", parse_positive, 1.0, "squared gain of channel 2"),
        *_common("p1", "p2", "pr"),
        Opt("grid", _parse_int_min(5), 33, "accepted and recorded; does not change the result (c_ub is a closed-form saddle point)"),
        *_common("out"),
    ],
    "df-compare": _common("m", "rho", "profiles", "delta-r", "seed", "out")
    + [
        Opt("p", parse_power, 100.0, "power for every node unless overridden"),
        Opt("p1", parse_power, None, "terminal 1 power override"),
        Opt("p2", parse_power, None, "terminal 2 power override"),
        Opt("pr", parse_power, None, "relay budget override"),
        Opt("taus", _parse_int_min(1), DEFAULT_TAU_GRID, "time-split grid size"),
        Opt("weights", _parse_int_min(2), DEFAULT_WEIGHTS, "broadcast weight sweep size"),
    ],
    "validate": [
        Opt(
            "suite",
            _parse_choice(("all", "oracle", "schemes", "bounds", "df")),
            "all",
            "which invariant suites to run",
        ),
        Opt("seed", _parse_int_min(0), 42, "instance generation seed"),
        Opt("instances", _parse_int_min(1), 3, "instances per suite"),
    ],
}

_HELP = {
    "region": "trace optimal/MR/ZF boundaries for one channel draw",
    "capacity": "outer capacity envelope over a source power grid",
    "sumrate": "scheme sum rates and closed-form bounds over an SNR grid",
    "bounds": "closed-form capacity bounds for one configuration",
    "df-compare": "decode-and-forward regions next to the relay-beamforming region",
    "validate": "run seeded invariant suites, exit 0 only if all pass",
}


def build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="twrelay",
        description="Two-way relay beamforming: rate regions, bounds, baselines.",
    )
    parser.add_argument("--version", action="version", version=f"twrelay {__version__}")
    subs = parser.add_subparsers(dest="command")
    handles = {}
    for name, opts in OPTS.items():
        sub = subs.add_parser(name, help=_HELP[name])
        for opt in opts:
            if opt.is_flag:
                sub.add_argument(
                    f"--{opt.name}", action="store_const", const="true", default=None, help=opt.help
                )
            else:
                sub.add_argument(
                    f"--{opt.name}", default=None, metavar="V", help=opt.help
                )
        sub.add_argument(
            "--config",
            default=None,
            metavar="FILE",
            help="key=value file supplying any flag's value; explicit flags win",
        )
        handles[name] = sub
    return parser, handles


@functools.lru_cache(maxsize=None)
def _parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """build_parser's result, built once per process: every default is
    None and parsing leaves the parser as it was, so calls can share it."""
    return build_parser()


_ALL_KEYS = {opt.name for opts in OPTS.values() for opt in opts}


def resolve_settings(
    sub: argparse.ArgumentParser,
    ns: argparse.Namespace,
    opts: List[Opt],
    config: Dict[str, str],
) -> dict:
    for key in config:
        if key not in _ALL_KEYS:
            sub.error(f"config file: unknown key {key!r}")
    settings = {}
    for opt in opts:
        raw = getattr(ns, opt.dest)
        if raw is None:
            raw = config.get(opt.name)
        if raw is None:
            settings[opt.name] = opt.default
            continue
        try:
            settings[opt.name] = opt.convert(raw)
        except ValueError as exc:
            sub.error(f"argument --{opt.name}: {exc}")
    return settings


# ------------------------------------------------------------------ helpers


class Timer:
    def __init__(self) -> None:
        self.laps: Dict[str, float] = {}
        self._t0 = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.laps[name] = round(now - self._t0, 6)
        self._t0 = now


def _write_tables(command: str, settings: dict, timer: Timer, texts: List[Tuple[str, str]], notes: List[str], lines: Optional[List[str]] = None) -> int:
    """The tail of every file-writing command, called once all its texts
    are formatted and checked: write each (file, text) into
    settings["out"] atomically, take the write lap, write the manifest,
    then print lines, or the files' paths when lines is None."""
    out = settings["out"]
    for name, text in texts:
        tio.atomic_write_text(os.path.join(out, name), text)
    timer.lap("write")
    files = [name for name, _ in texts]
    manifest = {
        "command": command,
        "library_version": __version__,
        "seed": settings.get("seed"),
        "settings": settings,
        "files": files,
        "timings_s": dict(timer.laps, total=round(sum(timer.laps.values()), 6)),
        "notes": notes,
    }
    tio.write_manifest(os.path.join(out, "manifest.json"), manifest)
    for line in [os.path.join(out, name) for name in files] if lines is None else lines:
        print(line)
    return 0


# ----------------------------------------------------------------- commands


def cmd_region(settings: dict) -> int:
    pair = gen_channels(settings["m"], settings["rho"], settings["seed"])
    pc = PowerConfig(settings["p1"], settings["p2"], settings["pr"])
    eff = effective(pair)  # one reduced frame for every boundary
    timer = Timer()
    tables = []  # (file, boundary, scheme), all traced and formatted before the first write
    notes: List[str] = []
    pick = settings["scheme"]

    if pick in ("all", "optimal"):
        boundary = rate_region_boundary(eff, pc, settings["profiles"], settings["delta-r"])
        tables.append(("boundary_optimal.csv", boundary, None))
        timer.lap("optimal")
    for scheme in ("mr", "zf"):
        if pick not in ("all", scheme):
            continue
        try:
            boundary = sweep_region(scheme, eff, pc, settings["ratios"])
        except RankDeficiencyError as exc:
            if pick == scheme:
                raise
            notes.append(f"{scheme} skipped: {exc}")
            continue
        tables.append((f"boundary_{scheme}.csv", boundary, scheme))
        timer.lap(scheme)

    texts = [(name, tio.format_region_csv(boundary, scheme)) for name, boundary, scheme in tables]
    return _write_tables("region", settings, timer, texts, notes)


def cmd_capacity(settings: dict) -> int:
    pair = gen_channels(settings["m"], settings["rho"], settings["seed"])
    timer = Timer()
    envelope = capacity_region(
        pair,
        settings["p1"],
        settings["p2"],
        settings["pr"],
        power_grid=settings["grid"],
        n_profiles=settings["profiles"],
        delta_r=settings["delta-r"],
    )
    timer.lap("envelope")
    return _write_tables("capacity", settings, timer, [("capacity.csv", tio.format_region_csv(envelope))], [])


SUMRATE_HEADER = ["snr_db", "c_ub_sym", "r_lb_mr", "r_mr", "r_lb_zf", "r_zf", "r_dr", "r_ow"]


def cmd_sumrate(settings: dict) -> int:
    lo, hi, step = settings["snr-min"], settings["snr-max"], settings["snr-step"]
    if hi < lo:
        raise InvalidInputError("snr-max must not be below snr-min")
    steps = (hi - lo) / step + 1e-9
    if not steps < SUMRATE_MAX_POINTS:  # an infinite span fails too
        raise InvalidInputError(f"the SNR grid would hold more than {SUMRATE_MAX_POINTS} points")
    count = int(math.floor(steps)) + 1
    _from_db(lo + (count - 1) * step)  # the grid's largest power overflows before any work
    pair = gen_channels(settings["m"], settings["rho"], settings["seed"])
    theta1, theta2, rho = pair.theta1, pair.theta2, pair.correlation
    timer = Timer()
    # one reduced frame and one set of channel gains per job, and each
    # scheme's channel forms built at its first use (after the first row's
    # bounds have checked rho) and scaled at every grid point
    eff = effective(pair)
    cross = float(abs(pair.h1 @ pair.h2) ** 2)  # |h1^T h2|^2, the direct relay's gain
    forms: Dict[str, _ChannelForms] = {}

    def scheme_sum(scheme: str, pc: PowerConfig) -> float:
        if scheme not in forms:
            forms[scheme] = _ChannelForms(scheme, eff)
        rates = _Sweep(forms[scheme], pc).best_rates()
        return rates.r21 + rates.r12

    rows = []
    for k in range(count):
        snr_db = lo + k * step
        p = 10.0 ** (snr_db / 10.0)
        pc = PowerConfig(p, p, p)
        rows.append(
            [
                snr_db,
                c_ub_sym(theta1, p),
                r_lb_mr(pc, theta1, theta2, rho),
                scheme_sum("mr", pc),
                r_lb_zf(pc, theta1, theta2, rho),
                scheme_sum("zf", pc),
                _direct_relay_sum(theta1, theta2, cross, pair.m, pc),
                oneway_alternating(pair, pc, settings["ow-equal-energy"]),
            ]
        )
    timer.lap("grid")
    return _write_tables("sumrate", settings, timer, [("sumrate.csv", tio.format_columns(SUMRATE_HEADER, np.array(rows).T))], [])


def cmd_bounds(settings: dict) -> int:
    pc = PowerConfig(settings["p1"], settings["p2"], settings["pr"])
    timer = Timer()
    report = bounds_report(pc, settings["theta1"], settings["theta2"], settings["rho"])
    timer.lap("bounds")
    names = ("c21", "c12", "c_ub", "c_ub0", "r_lb_mr", "r_lb_zf", "c_ub_sym", "kappa21_star", "p21_star")
    values = [getattr(report, name) for name in names]
    lines = [f"{name:12s} {'n/a' if v is None else repr(float(v))}" for name, v in zip(names, values)]
    return _write_tables("bounds", settings, timer, [("bounds.json", report.to_json() + "\n")], [], lines)


def _slice_csv(taus: Sequence[float], index: np.ndarray, x: np.ndarray, y: np.ndarray) -> str:
    """df_tau_slices.csv from df_tau_slices' columns, each tau cell formatted once."""
    tau_cells = list(map(float.__repr__, taus))
    return tio.format_columns(tio.TAU_HEADER, [[tau_cells[i] for i in index.tolist()], x, y])


def cmd_df_compare(settings: dict) -> int:
    p1 = settings["p1"] if settings["p1"] is not None else settings["p"]
    p2 = settings["p2"] if settings["p2"] is not None else settings["p"]
    pr = settings["pr"] if settings["pr"] is not None else settings["p"]
    settings = dict(settings, p1=p1, p2=p2, pr=pr)
    pair = gen_channels(settings["m"], settings["rho"], settings["seed"])
    pc = PowerConfig(p1, p2, pr)
    timer = Timer()

    # every table is computed, formatted and checked before the first write
    pent = mac_region(pair, p1, p2)
    mac = 0.5 * np.array(pent.corners())
    timer.lap("half_mac")

    eff = effective(pair)  # one reduced frame for the broadcast arc and the AF region
    arc = _bc_arc(eff, pr)  # one broadcast arc for the sweep and every ray
    bc = arc.boundary(settings["weights"])
    timer.lap("half_bc")

    taus = _tau_grid(settings["taus"])
    index, x, y = df_tau_slices(pent, bc, taus)
    timer.lap("df_tau_slices")

    env_rows = []
    for profile in _profiles(settings["profiles"]):
        t, tau = _df_ray(pent, arc, profile)
        env_rows.append((tau, profile.alpha21 * t, profile.alpha12 * t))
    timer.lap("df_region")

    boundary = rate_region_boundary(eff, pc, settings["profiles"], settings["delta-r"])
    timer.lap("af_region")

    texts = [
        ("half_mac.csv", tio.format_columns(tio.RATE_PAIR_HEADER, mac.T)),
        ("half_bc.csv", tio.format_columns(tio.RATE_PAIR_HEADER, [0.5 * bc.r21, 0.5 * bc.r12])),
        ("df_tau_slices.csv", _slice_csv(taus, index, x, y)),
        ("df_region.csv", tio.format_columns(tio.TAU_HEADER, np.array(env_rows).T)),
        ("af_region.csv", tio.format_region_csv(boundary)),
    ]
    return _write_tables("df-compare", settings, timer, texts, [])


# ----------------------------------------------------------------- validate

Check = Tuple[str, bool, str]


def _instances(seed: int, count: int) -> List[Tuple[int, float]]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append((int(rng.integers(0, 2**31)), float(rng.uniform(0.1, 0.9))))
    return out


def _suite_oracle(seed: int, count: int) -> List[Check]:
    checks: List[Check] = []
    pc = PowerConfig(10.0, 10.0, 10.0)
    profile = RateProfile(0.5, 0.5)
    for i, (child, rho) in enumerate(_instances(seed, count)):
        pair = gen_channels(4, rho, child)
        eff = effective(pair)
        r_opt, _ = max_sum_rate(eff, pc, profile)
        res = oracle_max_sum_rate(eff, pc, profile, seed=child)
        ub = c_ub0(pc, pair.theta1, pair.theta2)
        ok = res.value <= r_opt + 1e-3 and r_opt <= ub + 1e-9 and res.value >= r_opt - 1e-3
        checks.append((f"oracle-max-{i}", ok, f"oracle {res.value:.6f} vs solver {r_opt:.6f} vs ub {ub:.6f}"))
        # the exit itself: its targets fit the budget, and 2 delta_r beyond them do not
        p_at, _ = min_relay_power(eff, pc, *snr_targets(profile, r_opt))
        p_above, _ = min_relay_power(eff, pc, *snr_targets(profile, r_opt + 2.0 * DEFAULT_DELTA_R))
        ok = p_at <= pc.p_relay * (1.0 + 1e-9) and p_above > pc.p_relay
        checks.append(
            (
                f"oracle-exit-{i}",
                ok,
                f"power {p_at:.9f} at the exit, {p_above:.9f} 2 delta-r beyond, budget {pc.p_relay:g}",
            )
        )
        g1, g2 = snr_targets(profile, 0.8 * r_opt)
        p_min, _ = min_relay_power(eff, pc, g1, g2)
        res_min = oracle_min_power(eff, pc, g1, g2, seed=child)
        ok = math.isfinite(p_min) and abs(res_min.value - p_min) <= 1e-2 * max(p_min, 1.0)
        checks.append((f"oracle-min-{i}", ok, f"oracle {res_min.value:.6f} vs solver {p_min:.6f}"))
    return checks


def _suite_schemes(seed: int, count: int) -> List[Check]:
    checks: List[Check] = []
    pc = PowerConfig(10.0, 10.0, 10.0)
    for i, (child, rho) in enumerate(_instances(seed, count)):
        pair = gen_channels(4, rho, child)
        eff = effective(pair)
        for scheme in ("mr", "zf"):
            boundary = sweep_region(scheme, eff, pc, n_ratios=17)
            spend = max(abs(relay_power_reduced(B, eff, pc) - pc.p_relay) for B in boundary.B)
            checks.append(
                (f"{scheme}-budget-{i}", spend <= 1e-9 * pc.p_relay, f"max deviation {spend:.3e}")
            )
            # the sweep's closed-form rates against the matrix path
            gap = 0.0
            for B, r21, r12 in zip(boundary.B, boundary.r21.tolist(), boundary.r12.tolist()):
                want = rate_pair_reduced(B, eff, pc)
                gap = max(gap, abs(r21 - want.r21), abs(r12 - want.r12))
            checks.append((f"{scheme}-rates-{i}", gap <= 1e-9, f"max deviation {gap:.3e}"))
            worst = 0.0
            for r21, r12 in zip(boundary.r21[4:-4:2].tolist(), boundary.r12[4:-4:2].tolist()):
                g1 = 2.0 ** (2.0 * r21) - 1.0
                g2 = 2.0 ** (2.0 * r12) - 1.0
                p_min, _ = min_relay_power(eff, pc, g1, g2)
                worst = max(worst, p_min)
            ok = worst <= pc.p_relay * (1.0 + 1e-6)
            checks.append((f"{scheme}-inside-optimal-{i}", ok, f"needed at most {worst:.9f}"))
    return checks


def _suite_bounds(seed: int, count: int) -> List[Check]:
    checks: List[Check] = []
    pc = PowerConfig(10.0, 10.0, 10.0)
    for i, (child, rho) in enumerate(_instances(seed, count)):
        pair = gen_channels(4, rho, child)
        eff = effective(pair)
        report = bounds_report(pc, pair.theta1, pair.theta2, pair.correlation)
        r_mr = scheme_max_sum_rate("mr", pair, pc)
        r_best = max(
            max_sum_rate(eff, pc, RateProfile(a, 1.0 - a))[0]
            for a in np.linspace(0.1, 0.9, 9)
        )
        chain = (
            report.r_lb_mr <= r_mr + 1e-6
            and r_mr <= r_best + 1e-6
            and r_best <= report.c_ub + 1e-6
            and report.c_ub <= report.c_ub0 + 1e-6
        )
        detail = (
            f"{report.r_lb_mr:.4f} <= {r_mr:.4f} <= {r_best:.4f}"
            f" <= {report.c_ub:.4f} <= {report.c_ub0:.4f}"
        )
        checks.append((f"bound-chain-{i}", chain, detail))
        gap = abs(report.c_ub - report.c_ub_sym) if report.c_ub_sym is not None else math.inf
        checks.append((f"sym-bound-{i}", gap <= 1e-12, f"|c_ub - c_ub_sym| = {gap:.2e}"))
        if report.r_lb_zf is not None:
            r_zf = scheme_max_sum_rate("zf", pair, pc)
            checks.append(
                (
                    f"zf-bound-{i}",
                    report.r_lb_zf <= r_zf + 1e-6,
                    f"{report.r_lb_zf:.4f} <= {r_zf:.4f}",
                )
            )
    return checks


def _suite_df(seed: int, count: int) -> List[Check]:
    checks: List[Check] = []
    for i, (child, rho) in enumerate(_instances(seed, count)):
        pair = gen_channels(4, rho, child)
        p1 = p2 = pr = 100.0
        pent = mac_region(pair, p1, p2)
        h1 = pair.h1.reshape(-1, 1)
        h2 = pair.h2.reshape(-1, 1)
        gram = np.eye(pair.m) + p1 * h1 @ h1.conj().T + p2 * h2 @ h2.conj().T
        direct = math.log2(abs(np.linalg.det(gram).real))
        checks.append(
            (f"mac-det-{i}", abs(pent.c_sum - direct) <= 1e-10, f"gap {abs(pent.c_sum - direct):.2e}")
        )
        single = bc_wsrmax(pair, pr, 1.0, 0.0)
        want = math.log2(1.0 + pr * pair.theta1)
        checks.append(
            (
                f"bc-single-link-{i}",
                abs(single.rates.r21 - want) <= 1e-8,
                f"got {single.rates.r21:.9f} want {want:.9f}",
            )
        )
        t, tau = df_boundary_value(pair, p1, p2, pr, RateProfile(0.5, 0.5))
        t_mac = pent.ray_exit(RateProfile(0.5, 0.5))
        ok = 0.0 < t <= t_mac + 1e-9 and 0.0 < tau < 1.0
        checks.append((f"df-split-{i}", ok, f"t {t:.4f}, tau {tau:.4f}, mac-only {t_mac:.4f}"))
    return checks


_SUITES = {
    "oracle": _suite_oracle,
    "schemes": _suite_schemes,
    "bounds": _suite_bounds,
    "df": _suite_df,
}


def cmd_validate(settings: dict) -> int:
    names = list(_SUITES) if settings["suite"] == "all" else [settings["suite"]]
    failures = 0
    total = 0
    for name in names:
        for check, ok, detail in _SUITES[name](settings["seed"], settings["instances"]):
            total += 1
            failures += 0 if ok else 1
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {check} ({detail})")
    if failures:
        print(f"{failures} of {total} checks failed")
        return 1
    print(f"all {total} checks passed")
    return 0


_HANDLERS = {
    "region": cmd_region,
    "capacity": cmd_capacity,
    "sumrate": cmd_sumrate,
    "bounds": cmd_bounds,
    "df-compare": cmd_df_compare,
    "validate": cmd_validate,
}


_NEGATIVE_DB = re.compile(r"-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?db", re.IGNORECASE)


def _join_negative_db(argv: Sequence[str]) -> List[str]:
    """Rewrite '--pr -3db' as '--pr=-3db': argparse takes a lone token that
    starts with '-' and is not a plain negative number for an option."""
    out: List[str] = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_DB.fullmatch(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, handles = _parser()
    ns = parser.parse_args(_join_negative_db(sys.argv[1:] if argv is None else argv))
    if ns.command is None:
        parser.print_help()
        return 2
    sub = handles[ns.command]
    config = tio.read_config(ns.config) if ns.config else {}
    settings = resolve_settings(sub, ns, OPTS[ns.command], config)
    if ns.command == "region" and settings["scheme"] == "zf" and settings["rho"] >= 1.0:
        sub.error("argument --scheme: zero-forcing is undefined at rho = 1 (parallel channels)")
    try:
        return _HANDLERS[ns.command](settings)
    except InvalidInputError as exc:
        sub.error(str(exc))
    except NumericalFailureError as exc:
        print(f"twrelay {ns.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
