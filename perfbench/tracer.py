"""Span tracing of decentsim's layers, applied from outside the package.

Each traced function is replaced by a wrapper in every decentsim module
namespace that holds it, so a call is caught where it is looked up:
`algorithms.decompress` is wrapped as well as `compression.decompress`.
Nothing under src/ changes. A span records its name, start, end and the
span open when it started; spans live in flat in-memory arrays and are
written out once, when the benchmark ends. Runs are single-threaded
(workers=1), so spans nest strictly and a span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
from array import array
from time import perf_counter

import numpy as np

# The public functions behind the per-layer metrics, by module, plus
# initial_states as the set-up boundary. Everything left unwrapped
# (unflatten, neighbors, _tally_exchange, _mean_cluster_norm,
# dataclasses.replace, ...) is charged to the wrapped function calling it.
TRACED = {
    "models": ("loss_and_gradient", "cross_gradient", "evaluate", "generate_synthetic"),
    "compression": ("ef_step", "compress", "decompress"),
    "algorithms": ("gossip_step", "ngc_mix", "momentum_update", "dpsgd_prepare", "ngc_prepare",
                   "compngc_prepare", "ngc_update", "ngc_apply", "dpsgd_finalize"),
    "simulator": ("run", "run_round", "initial_states", "exchange_params",
                  "exchange_cross_gradients"),
    "metrics": ("consensus_model", "consensus_error"),
    "topology": ("build_mixing_matrix", "spectral_gap"),
    "partition": ("partition_iid", "partition_label_skew"),
    "cli": ("run_sweep", "write_config_file", "emit_metrics_csv"),
}

ROUND = "simulator.run_round"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "decentsim" or name.startswith("decentsim."))]


@contextlib.contextmanager
def patched(replace_fn):
    """Swap every decentsim binding of each TRACED function for replace_fn(name, fn).

    Bindings are matched by identity with the function the defining module
    holds when the context opens; all of them are restored on exit.
    """
    modules = _package_modules()
    saved = []
    try:
        for short, names in TRACED.items():
            home = sys.modules[f"decentsim.{short}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = replace_fn(f"{short}.{attr}", original)
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


class Tracer:
    """Flat span store: name id, parent span id (-1 at top level), start, end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # (round span id, messages the ledger counted during that round)
        self.round_messages: list[tuple[int, int]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(float("nan"))
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(self.name_id(name))
        try:
            yield sid
        finally:
            self.close(sid)

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)
        if name == ROUND:
            return self._wrap_round(name_id, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def _wrap_round(self, name_id: int, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ledger = kwargs.get("ledger")
            before = ledger.messages if ledger is not None else 0
            sid = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
                if ledger is not None:
                    self.round_messages.append((sid, ledger.messages - before))

        return traced

    def arrays(self):
        """Copies, so the store can keep growing afterwards."""
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def write(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, name=name, parent=parent, start=start, end=end,
                            names=np.array(json.dumps(self.names)))


class SpanTable:
    """Per-span duration and self time, with sums over names and over subtrees."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name, self.parent, self.start, self.end = tracer.arrays()
        n = self.name.size
        if np.isnan(self.end).any():
            raise ValueError("trace holds spans that never closed")
        self.dur = self.end - self.start
        nested = self.parent >= 0
        children = np.bincount(self.parent[nested], weights=self.dur[nested], minlength=n)
        self.self_time = self.dur - children

    def ids(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def self_total(self, *names: str) -> float:
        return float(sum(self.self_time[self.ids(n)].sum() for n in names))

    def calls(self, *names: str) -> int:
        return int(sum(self.ids(n).size for n in names))

    def within(self, outer: np.ndarray, *names: str, self_time: bool = False) -> np.ndarray:
        """Per span in `outer`: how many `names` spans lie inside it, or their self time.

        Span ids follow start order and spans nest, so the descendants of
        span s are exactly the ids after s that start before s ends.
        """
        mask = np.isin(self.name, [self.names.index(n) for n in names if n in self.names])
        vals = np.where(mask, self.self_time, 0.0) if self_time else mask.astype(np.int64)
        cum = np.concatenate(([0], np.cumsum(vals)))
        hi = np.searchsorted(self.start, self.end[outer], side="right")
        return cum[hi] - cum[outer + 1]
