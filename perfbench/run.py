"""decentsim benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload skew-ring5 --seed 1 --seconds 30 --trace 0

The workload's runs go through `decentsim.cli.run_sweep` (and so through
`decentsim.simulator.run`) with seeds derived from --seed, in this one
process with workers=1. A pass runs every sweep of the workload once;
passes repeat for --seconds after an untimed warm-up, and time metrics
are built from per-run medians (see pass_times). Every run's outputs are checked (finite state,
exact per-round ledger bytes and message counts, metrics.csv read back,
bitwise repeat across passes, the paper's accuracy gaps on skew-ring5); a
run fails if it raises or any check fails.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
passes with passes whose layers are wrapped by tracer.py, prints the
per-layer metrics, checks the traced counts against their closed forms,
and adds the kernel and gate probes of probes.py. Spans, the environment
and all numbers are written under perfbench/out/. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

E2E_UNITS = {
    "wall_s": "s", "setup_s": "s", "round_ms": "ms", "peak_rss_mb": "MB",
    "consensus_acc": "share", "wire_bytes_per_round": "B", "success_share": "share",
}


def _import_package():
    """Import decentsim from this checkout's src/, and only from there."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import decentsim
    except ImportError as exc:
        raise SystemExit(f"error: cannot import decentsim from {ROOT / 'src'}: {exc}")
    if Path(decentsim.__file__).resolve().parent != ROOT / "src" / "decentsim":
        raise SystemExit(f"error: decentsim resolved to {decentsim.__file__}, "
                         f"not to this checkout")


# ------------------------------------------------------------ environment


def _blas_threads():
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                       if k in os.environ},
        "cpu": cpu,
        "loadavg_1m_start": os.getloadavg()[0],
    }


# ----------------------------------------------------------------- passes


class Hooks:
    """Thin taps left in place for the whole benchmark, traced or not.

    simulator.initial_states is timed (setup_s) and cli.run keeps each
    run's start time and RunResult. The tap on cli.run calls
    simulator.run through the module, so a tracer patching
    simulator.run still sees the call.
    """

    def __init__(self):
        from decentsim import cli, simulator

        self.setup_s: list[float] = []
        self.run_starts: list[float] = []
        self.results: list = []
        initial_states = simulator.initial_states

        def timed_initial_states(config):
            t0 = perf_counter()
            try:
                return initial_states(config)
            finally:
                self.setup_s.append(perf_counter() - t0)

        def kept_run(config):
            self.run_starts.append(perf_counter())
            result = simulator.run(config)
            self.results.append(result)
            return result

        simulator.initial_states = timed_initial_states
        cli.run = kept_run

    def reset(self):
        self.setup_s.clear()
        self.run_starts.clear()
        self.results.clear()


@dataclasses.dataclass
class PassStats:
    wall_s: float
    segments: dict          # sweep label -> wall of each run, sweep start to sweep end
    setups: dict            # sweep label -> initial_states time of each run
    rounds: int
    runs: int
    failed_runs: set        # indices of runs that raised or failed a check
    problems: list          # one message per failed check
    accs: dict              # sweep label -> [final consensus val_acc per seed]
    fingerprint: list       # per run: (val_acc, total bytes); must repeat across passes
    wire_bytes: int
    param_bytes: int
    crossgrad_bytes: int
    messages: int


def _check_run(result, sweep, seed, sweep_dir) -> list[str]:
    """Output checks for one run; returns failure messages."""
    import numpy as np

    from decentsim.cli import read_metrics_csv

    bad = []
    if result.config.seed != seed:
        return [f"expected seed {seed}, got {result.config.seed}"]
    for st in result.states:
        tensors = [st.params, st.momentum]
        if st.err_self is not None:
            tensors += [st.err_self, *st.err_out.values()]
        if not all(np.isfinite(t).all() for t in tensors):
            bad.append(f"agent {st.agent_id} has non-finite state")
            break
    ledger, pr = result.ledger, sweep.per_round
    rounds = result.final_row.round
    if rounds < 1 or len(ledger.round_param_bytes) != rounds:
        bad.append(f"ledger holds {len(ledger.round_param_bytes)} rounds, run reports {rounds}")
    if set(ledger.round_param_bytes) != {pr.param_bytes}:
        bad.append(f"param bytes per round {sorted(set(ledger.round_param_bytes))} "
                   f"!= {pr.param_bytes}")
    if set(ledger.round_crossgrad_bytes) != {pr.crossgrad_bytes}:
        bad.append(f"cross-gradient bytes per round {sorted(set(ledger.round_crossgrad_bytes))}"
                   f" != {pr.crossgrad_bytes}")
    if ledger.total_bytes != pr.wire_bytes * rounds:
        bad.append(f"ledger total {ledger.total_bytes} != {pr.wire_bytes} x {rounds} rounds")
    if ledger.messages != pr.messages * rounds:
        bad.append(f"{ledger.messages} messages != {pr.messages} x {rounds} rounds")
    rows = read_metrics_csv(os.path.join(sweep_dir, f"seed_{seed}", "metrics.csv"))
    if len(rows) != len(result.rows):
        bad.append(f"metrics.csv has {len(rows)} rows, run emitted {len(result.rows)}")
    elif not all(math.isfinite(v) for r in rows for v in dataclasses.astuple(r)):
        bad.append("metrics.csv holds non-finite values")
    else:
        last, mem = rows[-1], result.final_row
        if (last.round, last.param_bytes, last.crossgrad_bytes) != (
                mem.round, ledger.param_bytes, ledger.crossgrad_bytes):
            bad.append("metrics.csv last row disagrees with the ledger")
        if abs(last.val_acc - mem.val_acc) > 1e-8:
            bad.append(f"metrics.csv val_acc {last.val_acc} != {mem.val_acc}")
    return bad


def skew_gaps(accs: dict) -> dict:
    """The criterion-7 accuracy gaps, in points of the mean over seeds."""
    mean = {k: statistics.fmean(v) for k, v in accs.items()}
    return {"ngc-dpsgd": 100 * (mean["ngc"] - mean["dpsgd"]),
            "a0-dpsgd": 100 * (mean["ngc-a0"] - mean["dpsgd"]),
            "compngc-ngc": 100 * (mean["compngc"] - mean["ngc"])}


# Criterion 7 (acceptance suite): each gap's lower bound in points.
CRITERION_7 = {"ngc-dpsgd": 5.0, "a0-dpsgd": 2.0, "compngc-ngc": -3.0}
# Gaps that hold on the mean of any three consecutive seeds. The alpha=0
# gain does not (it fell below +2 points on 6 of 31 windows in seeds
# 0-32), so it is gated on the criterion's own seeds in the warm-up only.
PASS_GAPS = ("ngc-dpsgd", "compngc-ngc")


def run_pass(sweeps, hooks: Hooks, sweep_root: Path, tracer=None) -> PassStats:
    from decentsim import cli

    shutil.rmtree(sweep_root, ignore_errors=True)
    hooks.reset()
    runs = sum(len(sw.seeds) for sw in sweeps)
    span = tracer.span("bench.pass") if tracer is not None else contextlib.nullcontext()
    summaries, bounds = [], []
    t0 = perf_counter()
    try:
        with span:
            for sw in sweeps:
                t_sweep = perf_counter()
                summaries.append(
                    cli.run_sweep(sw.config, list(sw.seeds), str(sweep_root / sw.label)))
                bounds.append((t_sweep, perf_counter()))
    except Exception:
        traceback.print_exc()
        summaries = None
    wall = perf_counter() - t0
    if summaries is None:
        return PassStats(wall, {}, {}, 0, runs, set(range(runs)), ["pass raised"],
                         {}, [], 0, 0, 0, 0)

    # Split each sweep's wall at the start of each run, so the pieces add
    # up to the sweep and each piece holds one run plus its writes.
    segments, setups = {}, {}
    first = 0
    for sw, (t_sweep, t_end) in zip(sweeps, bounds):
        mine = slice(first, first + len(sw.seeds))
        cuts = [t_sweep, *hooks.run_starts[mine][1:], t_end]
        segments[sw.label] = [b - a for a, b in zip(cuts, cuts[1:])]
        setups[sw.label] = hooks.setup_s[mine]
        first += len(sw.seeds)

    failed, problems = set(), []
    accs: dict = {}
    fingerprint = []
    results = iter(hooks.results)
    k = 0
    for sw, summary in zip(sweeps, summaries):
        problems += [f"{sw.label}: {f}" for f in summary["failed"]]
        for seed in sw.seeds:
            if seed not in summary["completed"]:
                failed.add(k)
                k += 1
                continue
            result = next(results)
            try:
                bad = _check_run(result, sw, seed, sweep_root / sw.label)
            except Exception as exc:  # unreadable outputs fail the run
                bad = [f"output check raised {exc!r}"]
            if bad:
                failed.add(k)
                problems += [f"{sw.label} seed {seed}: {m}" for m in bad]
            accs.setdefault(sw.label, []).append(result.final_row.val_acc)
            fingerprint.append((result.final_row.val_acc, result.ledger.total_bytes))
            k += 1
    ledgers = [r.ledger for r in hooks.results]
    return PassStats(
        wall_s=wall, segments=segments, setups=setups,
        rounds=sum(len(lg.round_param_bytes) for lg in ledgers), runs=runs,
        failed_runs=failed, problems=problems, accs=accs, fingerprint=fingerprint,
        wire_bytes=sum(lg.total_bytes for lg in ledgers),
        param_bytes=sum(lg.param_bytes for lg in ledgers),
        crossgrad_bytes=sum(lg.crossgrad_bytes for lg in ledgers),
        messages=sum(lg.messages for lg in ledgers),
    )


def fail_pass(stats: PassStats, message: str):
    """A pass-level check failed: every run of the pass counts as failed."""
    stats.problems.append(message)
    stats.failed_runs = set(range(stats.runs))


def pass_times(passes, sweeps) -> tuple[float, float]:
    """Wall and setup time of one pass, each built from per-run medians.

    Runs of one sweep do the same work, so each sweep contributes its
    seed count times the median over all its runs in all passes; a
    burst of noise then moves one sample instead of a whole pass.
    """
    wall = setup = 0.0
    for sw in sweeps:
        wall += len(sw.seeds) * statistics.median(
            x for p in passes for x in p.segments[sw.label])
        setup += len(sw.seeds) * statistics.median(
            x for p in passes for x in p.setups[sw.label])
    return wall, setup


def check_gaps(stats: PassStats, names):
    if not stats.rounds:
        return
    gaps = skew_gaps(stats.accs)
    for n in names:
        if gaps[n] < CRITERION_7[n]:
            fail_pass(stats, f"criterion-7 gap {n} = {gaps[n]:+.2f} pts < {CRITERION_7[n]:+.1f}")


# ----------------------------------------------------------- per-layer


def layer_metrics(tracer, traced: list, expected: list) -> tuple[dict, list]:
    """Per-layer metrics from the traced passes, plus self-check failures.

    `expected` holds the PerRound closed form of every traced run, in
    run order. Round-path metrics are per round and sum only spans
    inside run_round; emission, setup and write metrics are per run.
    """
    import numpy as np

    from tracer import ROUND, SpanTable

    t = SpanTable(tracer)
    rounds = sum(p.rounds for p in traced)
    runs = sum(p.runs for p in traced)
    round_ids = t.ids(ROUND)
    problems = []

    def calls_in_rounds(*names):
        return float(t.within(round_ids, *names).sum())

    def self_per_round(*names):
        return float(t.within(round_ids, *names, self_time=True).sum()) / rounds

    # Self-check 1: per-round counts repeat exactly and meet the closed forms.
    run_ids = t.ids("simulator.run")
    if run_ids.size != len(expected):
        problems.append(f"traced {run_ids.size} runs, expected {len(expected)}")
    else:
        owner = np.searchsorted(t.start[run_ids], t.start[round_ids], side="right") - 1
        msgs = dict(tracer.round_messages)
        per_round = {
            "grad": t.within(round_ids, "models.loss_and_gradient"),
            "ef_step": t.within(round_ids, "compression.ef_step"),
            "decompress": t.within(round_ids, "compression.decompress"),
            "messages": np.array([msgs.get(int(r), -1) for r in round_ids]),
        }
        for field, counts in per_round.items():
            want = np.array([getattr(expected[o], field) for o in owner])
            off = np.flatnonzero(counts != want)
            if off.size:
                i = off[0]
                problems.append(f"{field} per round: {counts[i]} in run {owner[i]} "
                                f"!= closed form {want[i]} ({off.size} rounds off)")

    # Self-check 2: layer self times plus the residual (the pass span's
    # own time) account for the traced wall.
    pass_ids = t.ids("bench.pass")
    wall = sum(p.wall_s for p in traced)
    residual = float(t.self_time[pass_ids].sum())
    layers = float(t.self_time[t.parent >= 0].sum())
    if t.self_time.min() < -1e-9:
        problems.append(f"negative self time {t.self_time.min():.3e}: spans overlap")
    if abs(layers + residual - wall) > 1e-3 * wall:
        problems.append(f"layer self {layers:.6f}s + residual {residual:.6f}s "
                        f"!= traced wall {wall:.6f}s")

    grad_calls = calls_in_rounds("models.loss_and_gradient")
    grad_s = self_per_round("models.loss_and_gradient", "models.cross_gradient")
    ef_calls = calls_in_rounds("compression.ef_step")
    dec_calls = calls_in_rounds("compression.decompress")
    emit = ("metrics.consensus_model", "metrics.consensus_error")
    m = {
        "models.grad_calls": (grad_calls / rounds, "calls/round"),
        "models.grad_s": (grad_s, "s/round"),
        "models.grad_us_per_call": (1e6 * grad_s * rounds / grad_calls, "us"),
        "models.eval_calls": (t.calls("models.evaluate") / runs, "calls/run"),
        "models.eval_s": (t.self_total("models.evaluate") / runs, "s/run"),
        "metrics.emit_calls": (t.calls(*emit) / runs, "calls/run"),
        "metrics.emit_s": (t.self_total(*emit) / runs, "s/run"),
        "compression.ef_step_calls": (ef_calls / rounds, "calls/round"),
        "compression.ef_step_s": (
            self_per_round("compression.ef_step", "compression.compress"), "s/round"),
        "compression.decompress_calls": (dec_calls / rounds, "calls/round"),
        "compression.decompress_s": (self_per_round("compression.decompress"), "s/round"),
        "compression.decompress_per_ef_step": (
            dec_calls / ef_calls if ef_calls else 0.0, "ratio"),
        "algorithms.gossip_calls": (
            calls_in_rounds("algorithms.gossip_step") / rounds, "calls/round"),
        "algorithms.gossip_s": (self_per_round("algorithms.gossip_step"), "s/round"),
        "algorithms.mix_s": (self_per_round("algorithms.ngc_mix"), "s/round"),
        "algorithms.momentum_s": (self_per_round("algorithms.momentum_update"), "s/round"),
        "algorithms.prepare_s": (self_per_round(
            "algorithms.ngc_prepare", "algorithms.compngc_prepare",
            "algorithms.dpsgd_prepare"), "s/round"),
        "algorithms.update_s": (self_per_round("algorithms.ngc_update"), "s/round"),
        "algorithms.apply_s": (self_per_round(
            "algorithms.ngc_apply", "algorithms.dpsgd_finalize"), "s/round"),
        "simulator.round_calls": (round_ids.size / runs, "calls/run"),
        "simulator.round_self_s": (t.self_total(ROUND) / rounds, "s/round"),
        "simulator.exchange_s": (self_per_round(
            "simulator.exchange_params", "simulator.exchange_cross_gradients"), "s/round"),
        "simulator.loop_self_s": (t.self_total("simulator.run") / rounds, "s/round"),
        "simulator.messages_per_round": (sum(p.messages for p in traced) / rounds, "count"),
        "simulator.param_bytes_per_round": (sum(p.param_bytes for p in traced) / rounds, "B"),
        "simulator.crossgrad_bytes_per_round": (sum(p.crossgrad_bytes for p in traced)
                                                / rounds, "B"),
        "topology.build_s": (t.self_total("topology.build_mixing_matrix") / runs, "s/run"),
        "topology.spectral_gap_s": (t.self_total("topology.spectral_gap") / runs, "s/run"),
        "partition.s": (t.self_total("partition.partition_iid", "partition.partition_label_skew")
                        / runs, "s/run"),
        "models.datagen_s": (t.self_total("models.generate_synthetic") / runs, "s/run"),
        "cli.write_s": (t.self_total("cli.write_config_file", "cli.emit_metrics_csv",
                                     "cli.run_sweep") / runs, "s/run"),
        "trace.residual_share": (residual / wall, "share"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, problems


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    from decentsim.benchmarks import BENCHMARK_SEEDS

    workload = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env), flush=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    sweep_root = OUT / "sweeps" / tag
    hooks = Hooks()

    # Warm-up, untimed. On skew-ring5 it is criterion 7 itself: the four
    # variants on the acceptance seeds, gated on all three gaps.
    if workload.name == "skew-ring5":
        warm = workload.sweeps(BENCHMARK_SEEDS[0])
        warm = [dataclasses.replace(sw, seeds=tuple(BENCHMARK_SEEDS)) for sw in warm]
    else:
        warm = workload.sweeps(args.seed, epochs=1)
    warm_stats = run_pass(warm, hooks, sweep_root)
    if workload.name == "skew-ring5":
        check_gaps(warm_stats, CRITERION_7)
        if warm_stats.rounds:
            print(f"criterion-7 gaps, seeds {list(BENCHMARK_SEEDS)}: "
                  + json.dumps(skew_gaps(warm_stats.accs)))

    sweeps = workload.sweeps(args.seed)
    plain: list[PassStats] = []
    traced: list[PassStats] = []
    tracer = None
    if args.trace:
        from tracer import Tracer, patched

        tracer = Tracer()
    t_start = perf_counter()
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            with patched(tracer.wrap):
                stats = run_pass(sweeps, hooks, sweep_root, tracer)
            traced.append(stats)
        else:
            stats = run_pass(sweeps, hooks, sweep_root)
            plain.append(stats)
        if workload.name == "skew-ring5":
            check_gaps(stats, PASS_GAPS)
        done = plain + traced
        reference = next((p.fingerprint for p in done if p.rounds), None)
        if stats.rounds and stats.fingerprint != reference:
            fail_pass(stats, "pass outputs differ bitwise from the first pass")
        elapsed = perf_counter() - t_start
        typical = statistics.median([p.wall_s for p in done])
        if elapsed + typical > args.seconds and (tracer is None or traced):
            break

    good = [p for p in plain if p.rounds]
    if not good:
        raise SystemExit("error: no pass of the workload completed")
    first = good[0]
    wall_s, setup_s = pass_times(good, sweeps)
    e2e = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "round_ms": 1e3 * (wall_s - setup_s) / first.rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "consensus_acc": statistics.fmean(a for v in first.accs.values() for a in v),
        "wire_bytes_per_round": first.wire_bytes / first.rounds,
    }
    every = [warm_stats] + plain + traced
    attempted = sum(p.runs for p in every)
    failed = sum(len(p.failed_runs) for p in every)
    problems = [m for p in every for m in p.problems]
    e2e["success_share"] = 1.0 - failed / attempted

    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "passes": [{"traced": p in traced, "wall_s": p.wall_s,
                          "segments": p.segments, "setups": p.setups,
                          "rounds": p.rounds, "failed_runs": sorted(p.failed_runs)}
                         for p in plain + traced],
              "accs": first.accs,
              "failures": problems,
              "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}}
    if workload.name == "skew-ring5":
        report["gaps_pts"] = skew_gaps(first.accs)

    metrics = report["end_to_end"]
    correct = not problems
    if tracer is not None:
        expected = [sw.per_round for _ in traced for sw in sweeps for _ in sw.seeds]
        layer, trace_problems = layer_metrics(tracer, traced, expected)
        overhead = (statistics.median(p.wall_s for p in traced)
                    / statistics.median(p.wall_s for p in plain) - 1.0)
        layer["trace.overhead_share"] = {"value": overhead, "unit": "share"}
        for msg in trace_problems:
            print(f"trace self-check: {msg}", file=sys.stderr)
        correct = correct and not trace_problems
        report["per_layer"] = layer
        report["trace_problems"] = trace_problems
        metrics = layer
        from probes import gate_probes, kernel_probes

        report["probes"] = kernel_probes()
        report["gates"] = gate_probes()
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{tag}.npz")
        for name, probe in {**report["probes"], **report["gates"]}.items():
            print(f"probe {name}: {json.dumps(probe)}")

    env["loadavg_1m_end"] = os.getloadavg()[0]
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(report, fh, indent=2, default=float)
    for msg in report["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    _import_package()
    sys.exit(main())
