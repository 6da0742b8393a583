"""Outside-in span tracing of the twrelay layers.

`Tracer.install` replaces each traced function, at runtime, with a
wrapper that records a span (name, start, end, parent span, job id). The
wrapper is bound into every `twrelay` module namespace that held the
original, so calls between modules and within one module (for example
`max_sum_rate -> min_relay_power`, `cli -> rate_region_boundary`) are
seen. `uninstall` puts the originals back. Spans stay in memory until
`save` writes them out; `summary` reduces them to per-function call
counts, inclusive time and self time (inclusive time minus the time of
the direct child spans).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

Observer = Callable[[Counter, tuple, dict, object], None]


def _solve_sdp(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    counts["sdp.solve_sdp.iters"] += result.iterations
    if result.status == "optimal":
        counts["sdp.solve_sdp.optimal"] += 1
    elif result.status == "infeasible":
        counts["sdp.solve_sdp.infeasible"] += 1
    else:
        counts["sdp.solve_sdp.failed"] += 1


def _min_relay_power(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    pc = args[1] if len(args) > 1 else kwargs["pc"]
    if result[0] <= pc.p_relay * (1.0 + 1e-9):
        counts["beamformer.min_relay_power.feasible"] += 1


def _atomic_write_text(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["io.bytes_written"] += len(text.encode("utf-8"))


# (module, function, observer): every public function of the layers that
# the benchmark's commands reach, so that each layer's self time excludes
# the layers it calls. The oracle is not reached by any workload.
TARGETS: List[Tuple[str, str, Optional[Observer]]] = [
    ("model", "gen_channels", None),
    ("model", "effective", None),
    ("model", "rate_pair", None),
    ("model", "relay_power", None),
    ("model", "rate_pair_reduced", None),
    ("model", "relay_power_reduced", None),
    ("linalg", "eig_sym", None),
    ("linalg", "eig_herm2", None),
    ("linalg", "svd_tall", None),
    ("linalg", "herm_sqrt_2x2", None),
    ("sdp", "solve_sdp", _solve_sdp),
    ("sdp", "extract_rank_one", None),
    ("beamformer", "build_qcqp", None),
    ("beamformer", "min_relay_power", _min_relay_power),
    ("beamformer", "max_sum_rate", None),
    ("beamformer", "rate_region_boundary", None),
    ("beamformer", "capacity_region", None),
    ("schemes", "mrr_mrt", None),
    ("schemes", "zfr_zft", None),
    ("schemes", "sweep_region", None),
    ("schemes", "scheme_max_sum_rate", None),
    ("schemes", "direct_relay", None),
    ("schemes", "oneway_alternating", None),
    ("bounds", "c_ub", None),
    ("bounds", "c_ub0", None),
    ("bounds", "c_ub_sym", None),
    ("bounds", "r_lb_mr", None),
    ("bounds", "r_lb_zf", None),
    ("bounds", "bounds_report", None),
    ("df", "mac_region", None),
    ("df", "bc_wsrmax", None),
    ("df", "bc_boundary", None),
    ("df", "bc_ray_exit", None),
    ("df", "df_tau_slice", None),
    ("df", "df_boundary_value", None),
    ("io", "write_csv", None),
    ("io", "write_region_csv", None),
    ("io", "write_manifest", None),
    ("io", "atomic_write_text", _atomic_write_text),
    ("cli", "main", None),
]


class Tracer:
    """Span recorder for one benchmark run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._job = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self._wrappers: List[Tuple[Callable, Callable]] = []
        self._patched: List[Tuple[object, str, Callable]] = []

    # ---------------------------------------------------------- recording

    def _wrap(self, span: str, fn: Callable, observe: Optional[Observer]) -> Callable:
        name_id = len(self.names)
        self.names.append(span)
        names, parents, jobs = self._name, self._parent, self._job
        starts, ends, stack, counts = self._start, self._end, self._stack, self.counts
        clock = time.perf_counter
        raised_key = f"{span}.raised"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[raised_key] += 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Bind the wrapper of every target into each twrelay namespace that
        binds the original. The wrappers are made once per tracer, so spans
        of repeated install/uninstall rounds share one name table."""
        if not self._wrappers:
            for module, func, observe in TARGETS:
                original = getattr(sys.modules[f"twrelay.{module}"], func)
                self._wrappers.append((original, self._wrap(f"{module}.{func}", original, observe)))
        modules = [m for n, m in sorted(sys.modules.items()) if n == "twrelay" or n.startswith("twrelay.")]
        for original, wrapper in self._wrappers:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # ----------------------------------------------------------- reduction

    def _arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self._job, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        return _reduce(self.names, self._arrays())

    def calls_under(self, child: str, parent: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        cols = self._arrays()
        inner = cols["parent"] >= 0
        parent_name = np.full(len(cols["name"]), -1, dtype=np.int32)
        parent_name[inner] = cols["name"][cols["parent"][inner]]
        hit = (cols["name"] == self.names.index(child)) & (parent_name == self.names.index(parent))
        return int(np.count_nonzero(hit))

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self._arrays())


def _reduce(names: List[str], cols: Dict[str, np.ndarray]) -> Dict[str, Dict[str, float]]:
    n_names = len(names)
    name, parent = cols["name"], cols["parent"]
    dur = cols["end"] - cols["start"]
    inner = parent >= 0
    child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
    own = dur - child
    calls = np.bincount(name, minlength=n_names)
    incl = np.bincount(name, weights=dur, minlength=n_names)
    self_s = np.bincount(name, weights=own, minlength=n_names)
    return {
        span: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
        for i, span in enumerate(names)
    }
