"""Layer probes and acceptance-gate headroom, timed outside the workloads.

Kernel probes time single public functions on fixed inputs and report
the median over repeats. Gate probes replay the work of acceptance
criteria 3 and 6 in a fresh interpreter, which is how the test suite
meets them, and compare the elapsed time with their 1.0 s gates.

Run as a script with `--gate NAME`, it times that gate in this process
and prints one JSON line.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
GATE_SECONDS = 1.0


def _median_us(fn, min_seconds: float = 0.2, min_reps: int = 5) -> dict:
    fn()  # first call pays lazy allocation; not timed
    samples = []
    t_end = perf_counter() + min_seconds
    while len(samples) < min_reps or perf_counter() < t_end:
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return {"us": statistics.median(samples) * 1e6, "reps": len(samples)}


def kernel_probes() -> dict:
    import numpy as np

    from decentsim.algorithms import gossip_step
    from decentsim.compression import compress, decompress, ef_step, encode
    from decentsim.models import ModelSpec, generate_synthetic, init_params, loss_and_gradient
    from decentsim.topology import TopologySpec, build_mixing_matrix, spectral_gap

    rng = np.random.default_rng(0)
    out: dict = {}
    for k, h in ((16, 32), (320, 305)):
        spec = ModelSpec(k, 10, h)
        data = generate_synthetic(10, k, 40, 0.15, 0)
        params = init_params(spec, rng)
        for b in (32, 200):
            batch = np.arange(b)
            out[f"loss_and_gradient.B{b}.d{spec.param_count}"] = _median_us(
                lambda: loss_and_gradient(spec, params, data, batch))

    for d in (874, 100_965):
        grad, err = rng.standard_normal(d), rng.standard_normal(d)
        ct = compress(grad)
        out[f"ef_step.d{d}"] = _median_us(lambda: ef_step(grad, err))
        out[f"decompress.d{d}"] = _median_us(lambda: decompress(ct))
        out[f"encode.d{d}"] = _median_us(lambda: encode(ct))
        for degree in (2, 4):
            peers = {j: rng.standard_normal(d) for j in range(degree + 1)}
            weights = {j: 1.0 / (degree + 1) for j in peers}
            x_tilde = rng.standard_normal(d)
            out[f"gossip_step.deg{degree}.d{d}"] = _median_us(
                lambda: gossip_step(x_tilde, 0, peers, weights, 0.5))

    # Timed once each: the n > 64 path iterates to convergence or its cap.
    for kind, n in (("ring", 64), ("ring", 256), ("chain", 200)):
        w = build_mixing_matrix(TopologySpec(kind, n))
        t0 = perf_counter()
        try:
            gap = spectral_gap(w)
            entry = {"ok": True, "sqrt_rho": gap.sqrt_rho}
        except Exception as exc:  # a failed probe is reported, not raised
            entry = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        entry["us"] = (perf_counter() - t0) * 1e6
        out[f"spectral_gap.{kind}{n}"] = entry
    return out


def _criterion_3():
    import numpy as np

    from decentsim.algorithms import GradientBundle, bias_terms, ngc_mix

    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 41))
        ids = [int(j) for j in rng.choice(100, size=m, replace=False)]
        bundle = GradientBundle(
            agent_id=ids[0], self_grad=rng.standard_normal(dim),
            model_variant={j: rng.standard_normal(dim) for j in ids[1:]},
            data_variant={j: rng.standard_normal(dim) for j in ids[1:]},
            weights={j: 1.0 / m for j in ids},
        )
        bias_terms(bundle)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            ngc_mix(bundle, alpha)


def _criterion_6():
    from decentsim.simulator import RunConfig, run

    small = dict(agents=5, topology="ring", partition="iid", classes=4, dim=6,
                 per_class=40, val_per_class=4, model="mlp", hidden_dim=5,
                 epochs=1, batch_size=16, seed=3)
    for extra in (dict(algorithm="dpsgd"), dict(algorithm="ngc", alpha=1.0),
                  dict(algorithm="ngc", alpha=0.0)):
        run(RunConfig(**small, **extra))
    big = dict(agents=5, topology="ring", partition="iid", classes=10, dim=320,
               per_class=20, val_per_class=2, model="mlp", hidden_dim=305,
               epochs=1, batch_size=32, seed=1)
    run(RunConfig(algorithm="compngc", **big))
    run(RunConfig(algorithm="dpsgd", **big))


GATES = {"criterion-3": _criterion_3, "criterion-6": _criterion_6}


def gate_probes(timeout: float = 120.0) -> dict:
    """Time each gate cold, one fresh interpreter per gate."""
    out = {}
    for name in GATES:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--gate", name],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        process_s = perf_counter() - t0
        if proc.returncode != 0:
            out[name] = {"ok": False, "error": proc.stderr.strip()[-500:]}
            continue
        elapsed = json.loads(proc.stdout.strip().splitlines()[-1])["elapsed_s"]
        out[name] = {"ok": True, "elapsed_s": elapsed, "gate_s": GATE_SECONDS,
                     "headroom_share": 1.0 - elapsed / GATE_SECONDS,
                     "process_s": process_s}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gate", choices=sorted(GATES), required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import decentsim  # noqa: F401  (imports are outside the timed region, as in the tests)

    t0 = perf_counter()
    GATES[args.gate]()
    print(json.dumps({"gate": args.gate, "elapsed_s": perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
