"""Acceptance suite: one test per shipped guarantee.

Each test states its tolerance inline and prints a `[criterion NN]` line
with the measured values, so a verbose run doubles as a conformance report.
"""
from __future__ import annotations

import time

import numpy as np

from conftest import make_states
from reference import round_with_bundles
from decentsim import (
    BENCHMARK_SEEDS,
    ConfigurationError,
    GradientBundle,
    ModelSpec,
    RunConfig,
    StackedState,
    TopologySpec,
    bias_terms,
    build_mixing_matrix,
    consensus_error,
    consensus_model,
    evaluate,
    finite_difference_gradient,
    generate_synthetic,
    iid_benchmark_config,
    init_params,
    initial_states,
    loss_and_gradient,
    ngc_mix,
    run,
    run_round,
    skew_benchmark_config,
    spectral_gap,
    validate_doubly_stochastic,
    variance_bound_check,
)
from decentsim.cli import emit_metrics_csv
from decentsim.compression import decompress, ef_step, wire_size_bytes


def report(num: int, detail: str) -> None:
    print(f"[criterion {num:02d}] PASS {detail}")


# ----------------------------------------------------- 1: gradient correctness


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for spec in (ModelSpec(2, 3, hidden_dim=8), ModelSpec(2, 3)):
        for _ in range(20):
            feats = rng.standard_normal((4, 2))
            labels = rng.integers(0, 3, size=4)
            from decentsim import Dataset
            data = Dataset(feats, labels, 3)
            params = init_params(spec, rng) + 0.3 * rng.standard_normal(spec.param_count)
            batch = np.arange(4)
            _, analytic = loss_and_gradient(spec, params, data, batch)
            fd = finite_difference_gradient(spec, params, data, batch, 1e-4)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5, f"max relative gradient error {worst:.3e} > 1e-5"
    assert elapsed < 5.0, f"gradient check took {elapsed:.1f}s >= 5s"
    report(1, f"analytic vs central differences: max rel err {worst:.3e} <= 1e-5 "
              f"(2-8-3 MLP + logistic, 20 draws each, {elapsed:.2f}s)")


# ----------------------------------------------------- 2: mixing-matrix suite


def dense_eig_sqrt_rho(w: np.ndarray) -> float:
    vals = np.sort(np.abs(np.linalg.eigvalsh(w)))
    return float(vals[-2]) if len(vals) > 1 else 0.0


def test_criterion_02_mixing_matrix_suite():
    t0 = time.perf_counter()
    sizes = (4, 5, 8, 10, 16, 20)
    checked = 0
    worst_dev = 0.0
    worst_gap_err = 0.0
    for n in sizes:
        for kind in ("ring", "chain", "torus", "full"):
            try:
                w = build_mixing_matrix(TopologySpec(kind, n))
            except ConfigurationError:
                assert kind == "torus" and n == 5, f"unexpected rejection: {kind}-{n}"
                continue
            rep = validate_doubly_stochastic(w)
            assert rep.passed, f"{kind}-{n} failed stochasticity: {rep}"
            worst_dev = max(worst_dev, rep.max_row_dev, rep.max_col_dev)
            assert worst_dev <= 1e-12
            got = spectral_gap(w).sqrt_rho
            worst_gap_err = max(worst_gap_err, abs(got - dense_eig_sqrt_rho(w)))
            assert worst_gap_err <= 1e-8, f"{kind}-{n} sqrt_rho off by {worst_gap_err:.2e}"
            if kind == "ring":
                nonzero = w[w != 0.0]
                assert np.all(nonzero == 1.0 / 3.0), f"ring-{n} weights not exactly 1/3"
            if kind == "full":
                assert got <= 1e-12, f"full-{n} sqrt_rho {got:.2e} not ~0"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"mixing-matrix suite took {elapsed:.1f}s >= 5s"
    report(2, f"{checked} matrices doubly stochastic to {worst_dev:.1e} <= 1e-12, "
              f"sqrt_rho vs dense eigensolve off by {worst_gap_err:.1e} <= 1e-8, "
              f"ring weights exactly 1/3, full graph ~0 ({elapsed:.2f}s)")


# ------------------------------------------- 3: mixing decomposition identity


def random_uniform_bundle(rng: np.random.Generator) -> GradientBundle:
    m = int(rng.integers(1, 6))          # cluster size including self
    dim = int(rng.integers(1, 41))
    ids = list(rng.choice(100, size=m, replace=False))
    me = int(ids[0])
    weights = {int(j): 1.0 / m for j in ids}
    peers = [int(j) for j in ids[1:]]
    return GradientBundle(
        agent_id=me,
        self_grad=rng.standard_normal(dim),
        model_variant={j: rng.standard_normal(dim) for j in peers},
        data_variant={j: rng.standard_normal(dim) for j in peers},
        weights=weights,
    )


def test_criterion_03_mix_decomposition_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        bundle = random_uniform_bundle(rng)
        eps, omega = bias_terms(bundle)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            direct = ngc_mix(bundle, alpha)
            decomposed = bundle.self_grad + (1.0 - alpha) * eps + alpha * omega
            worst = max(worst, float(np.abs(direct - decomposed).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"mix != decomposition by {worst:.3e}"
    assert elapsed < 1.0, f"identity check took {elapsed:.2f}s >= 1s"
    report(3, f"mixed gradient == self + (1-a)*eps + a*omega to {worst:.1e} <= 1e-12 "
              f"(100 bundles, alpha in {{0, 0.25, 0.5, 1}}, {elapsed:.2f}s)")


# ----------------------------------------------- 4: compression identities


def test_criterion_04_compression_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 2001))
        scale = 10.0 ** rng.uniform(-6, 6)
        g = scale * rng.standard_normal(dim)
        e = scale * rng.standard_normal(dim) * rng.uniform(0, 2)
        delta, e_next = ef_step(g, e)
        recon = decompress(delta) + e_next
        rel = np.abs(recon - (g + e)).max() / max(np.abs(g + e).max(), 1e-300)
        worst = max(worst, float(rel))
    assert worst <= 1e-12, f"EF identity violated by rel {worst:.3e}"

    for d in (1, 8, 9, 1000, 76000, 100000):
        expected = -(-d // 8) + 12
        assert wire_size_bytes(d) == expected, f"wire size at d={d}"
    ratio = (4 * 100000) / wire_size_bytes(100000)
    assert ratio >= 31.5, f"compression ratio {ratio:.2f} < 31.5 at d=1e5"
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"compression checks took {elapsed:.2f}s >= 2s"
    report(4, f"EF identity rel {worst:.1e} <= 1e-12 over 1000 calls, wire size "
              f"== ceil(d/8)+12, ratio {ratio:.2f}x >= 31.5x at d=1e5 ({elapsed:.2f}s)")


# ------------------------------- 5: single-node and pure-gossip reductions


def heavyball_oracle(spec, data, shard, seed, beta, eta, steps, batch_size):
    """Independent single-node momentum-SGD recurrence."""
    rng = np.random.default_rng(seed)
    params = init_params(spec, np.random.default_rng(99))
    v = np.zeros_like(params)
    queue: list = []
    for _ in range(steps):
        if not queue:
            perm = rng.permutation(shard)
            count = shard.size // batch_size
            queue = [perm[k * batch_size:(k + 1) * batch_size] for k in range(count)]
        batch = queue.pop(0)
        _, g = loss_and_gradient(spec, params, data, batch)
        v = beta * v - eta * g
        params = params + v
    return params


def test_criterion_05_single_node_and_pure_gossip_reductions():
    data = generate_synthetic(3, 4, 30, 0.3, 7)
    spec = ModelSpec(4, 3, hidden_dim=6)
    shard = np.arange(data.n)
    worst = 0.0
    for algorithm in ("ngc", "dpsgd"):
        config = RunConfig(algorithm=algorithm, alpha=1.0, beta=0.9, gamma=1.0, batch_size=10)
        states = make_states(1, spec, data, [shard], seed=99, shared_rng_seed=1234)
        stack = StackedState(states, np.ones((1, 1)), config)
        for _ in range(100):
            run_round(stack, 0.05)
        oracle = heavyball_oracle(spec, data, shard, 1234, 0.9, 0.05, 100, 10)
        denom = max(np.abs(oracle).max(), 1e-12)
        worst = max(worst, float(np.abs(states[0].params - oracle).max() / denom))
    assert worst <= 1e-12, f"single-node trajectory off by rel {worst:.3e}"

    w = build_mixing_matrix(TopologySpec("ring", 5))
    rho = spectral_gap(w).rho
    shards = np.array_split(np.arange(data.n), 5)
    states = make_states(5, spec, data, shards, seed=8)
    rng = np.random.default_rng(3)
    for s in states:
        s.params = rng.standard_normal(spec.param_count)
    gossip = RunConfig(algorithm="dpsgd", beta=0.0, gamma=1.0, batch_size=5)
    mean_before = np.mean([s.params for s in states], axis=0)
    stack = StackedState(states, w, gossip)
    err = consensus_error(stack.x)
    worst_contract = 0.0
    for _ in range(8):
        run_round(stack, 0.0)
        new_err = consensus_error(stack.x)
        worst_contract = max(worst_contract, new_err / err)
        err = new_err
    mean_drift = float(np.abs(
        np.mean([s.params for s in states], axis=0) - mean_before).max())
    assert worst_contract <= rho + 1e-6, (
        f"gossip contraction {worst_contract:.8f} > rho + 1e-6 = {rho + 1e-6:.8f}")
    assert mean_drift <= 1e-10, f"gossip mean drift {mean_drift:.2e} > 1e-10"
    report(5, f"N=1 trajectories match momentum SGD to rel {worst:.1e} <= 1e-12 "
              f"(100 steps); pure gossip: mean drift {mean_drift:.1e} <= 1e-10, "
              f"contraction {worst_contract:.4f} <= rho+1e-6 = {rho + 1e-6:.4f}")


# ------------------------------------------------- 6: communication ledger


def test_criterion_06_communication_ledger_ratios():
    t0 = time.perf_counter()
    small = dict(agents=5, topology="ring", partition="iid", classes=4, dim=6,
                 per_class=40, val_per_class=4, model="mlp", hidden_dim=5,
                 epochs=1, batch_size=16, seed=3)
    dpsgd_total = run(RunConfig(algorithm="dpsgd", **small)).ledger.total_bytes
    ngc_total = run(RunConfig(algorithm="ngc", alpha=1.0, **small)).ledger.total_bytes
    a0_total = run(RunConfig(algorithm="ngc", alpha=0.0, **small)).ledger.total_bytes
    assert ngc_total == 2 * dpsgd_total, (
        f"NGC bytes {ngc_total} != 2.0 x D-PSGD {dpsgd_total}")
    assert a0_total == dpsgd_total, (
        f"NGC(alpha=0) bytes {a0_total} != D-PSGD {dpsgd_total}")

    big = dict(agents=5, topology="ring", partition="iid", classes=10, dim=320,
               per_class=20, val_per_class=2, model="mlp", hidden_dim=305,
               epochs=1, batch_size=32, seed=1)
    d = ModelSpec(320, 10, 305).param_count
    assert d >= 1e5
    comp_total = run(RunConfig(algorithm="compngc", **big)).ledger.total_bytes
    base_total = run(RunConfig(algorithm="dpsgd", **big)).ledger.total_bytes
    ratio = comp_total / base_total
    assert 1.031 <= ratio <= 1.04, f"CompNGC/D-PSGD ratio {ratio:.6f} at d={d}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"ledger checks took {elapsed:.2f}s >= 1s"
    report(6, f"NGC == 2.0x D-PSGD exactly ({ngc_total} vs {dpsgd_total} bytes), "
              f"alpha=0 == 1.0x, CompNGC/D-PSGD = {ratio:.5f} in [1.031, 1.04] "
              f"at d={d} ({elapsed:.2f}s)")


# ---------------------------------------------------- 7: non-IID efficacy


VARIANTS = (
    ("ngc", dict(algorithm="ngc", alpha=1.0)),
    ("ngc-a0", dict(algorithm="ngc", alpha=0.0)),
    ("compngc", dict(algorithm="compngc", alpha=1.0)),
    ("dpsgd", dict(algorithm="dpsgd")),
)


def consensus_accuracy(result) -> float:
    center = consensus_model(np.stack([s.params for s in result.states]))
    return evaluate(result.spec, center, result.val_data)[1]


def test_criterion_07_noniid_efficacy():
    t0 = time.perf_counter()
    accs = {name: [] for name, _ in VARIANTS}
    for seed in BENCHMARK_SEEDS:
        for name, extra in VARIANTS:
            accs[name].append(consensus_accuracy(run(skew_benchmark_config(seed, **extra))))
    ngc = np.array(accs["ngc"])
    a0 = np.array(accs["ngc-a0"])
    comp = np.array(accs["compngc"])
    dpsgd = np.array(accs["dpsgd"])
    elapsed = time.perf_counter() - t0

    gap_ngc = float(ngc.mean() - dpsgd.mean())
    gap_a0 = float(a0.mean() - dpsgd.mean())
    gap_comp = float(comp.mean() - ngc.mean())
    ordered = int(np.sum((ngc >= a0) & (a0 >= dpsgd)))
    assert gap_ngc >= 0.05, (
        f"NGC {ngc.mean():.3f} vs D-PSGD {dpsgd.mean():.3f}: gap "
        f"{100 * gap_ngc:+.1f} pts < +5 pts")
    assert gap_a0 >= 0.02, (
        f"NGC(alpha=0) {a0.mean():.3f} vs D-PSGD {dpsgd.mean():.3f}: gap "
        f"{100 * gap_a0:+.1f} pts < +2 pts")
    assert gap_comp >= -0.03, (
        f"CompNGC {comp.mean():.3f} vs NGC {ngc.mean():.3f}: gap "
        f"{100 * gap_comp:+.1f} pts < -3 pts")
    assert ordered >= 2, f"ordering holds in only {ordered}/3 seeds"
    assert elapsed < 600.0, f"benchmark took {elapsed:.0f}s >= 10 min"
    report(7, f"label-skew consensus accuracy: NGC {ngc.mean():.3f}, "
              f"NGC(a=0) {a0.mean():.3f}, CompNGC {comp.mean():.3f}, "
              f"D-PSGD {dpsgd.mean():.3f}; gaps {100 * gap_ngc:+.1f} >= +5, "
              f"{100 * gap_a0:+.1f} >= +2, {100 * gap_comp:+.1f} >= -3 pts, "
              f"ordering {ordered}/3 seeds ({elapsed:.0f}s)")


# -------------------------------------------------------- 8: IID sanity


def trailing_mean(series: np.ndarray, window: int = 5) -> np.ndarray:
    out = np.empty_like(series, dtype=float)
    for k in range(len(series)):
        out[k] = series[max(0, k - window + 1):k + 1].mean()
    return out


def test_criterion_08_iid_sanity():
    worst_acc = 1.0
    worst_rise = -np.inf
    for seed in BENCHMARK_SEEDS:
        for name, extra in VARIANTS:
            if name == "ngc-a0":
                continue
            result = run(iid_benchmark_config(seed, **extra))
            worst_acc = min(worst_acc, consensus_accuracy(result))
            losses = np.array([row.val_loss for row in result.rows[1:]])
            smooth = trailing_mean(losses)
            tail = smooth[len(smooth) // 2:]
            worst_rise = max(worst_rise, float(np.max(np.diff(tail))))
    assert worst_acc >= 0.90, f"IID consensus accuracy {worst_acc:.3f} < 0.90"
    assert worst_rise <= 1e-6, (
        f"epoch-smoothed val loss rises by {worst_rise:.2e} in the last half")
    report(8, f"IID: worst consensus accuracy {worst_acc:.3f} >= 0.90 across "
              f"ngc/compngc/dpsgd x 3 seeds; smoothed val-loss tail max rise "
              f"{worst_rise:+.1e} <= 1e-6 (window 5)")


# --------------------------------------------- 9: variance bound diagnostic


def test_criterion_09_variance_bound_diagnostic():
    t0 = time.perf_counter()
    states0, w, _ = initial_states(skew_benchmark_config(1))
    rep_init = variance_bound_check(states0, w, batch_size=200,
                                    sample_count=500, seed=99)
    mid = run(skew_benchmark_config(1, epochs=30))
    rep_mid = variance_bound_check(mid.states, w, batch_size=200,
                                   sample_count=500, seed=99)
    elapsed = time.perf_counter() - t0
    assert rep_init.lhs <= 1.2 * rep_init.bound, (
        f"at init: lhs {rep_init.lhs:.4e} > 1.2 x bound {rep_init.bound:.4e}")
    assert rep_mid.lhs <= 1.2 * rep_mid.bound, (
        f"mid-training: lhs {rep_mid.lhs:.4e} > 1.2 x bound {rep_mid.bound:.4e}")
    assert elapsed < 30.0, f"variance diagnostic took {elapsed:.1f}s >= 30s"
    report(9, f"mixing deviation lhs <= 1.2 x 4(sigma^2/N + zeta^2): "
              f"init {rep_init.lhs:.2e} vs bound {rep_init.bound:.2e}, "
              f"mid-training {rep_mid.lhs:.2e} vs {rep_mid.bound:.2e} "
              f"(500 MC samples, {elapsed:.1f}s)")


# ------------------------------------------------ 10: bias-metric structure


def round_zero_bias(config: RunConfig) -> tuple[float, float]:
    states, w, _ = initial_states(config)
    stack = StackedState(states, w, config)
    bundles = round_with_bundles(stack, w, config.eta)[2]
    eps_max = 0.0
    omega_l1 = 0.0
    for bundle in bundles:
        eps, omega = bias_terms(bundle)
        eps_max = max(eps_max, float(np.abs(eps).max()))
        omega_l1 += float(np.abs(omega).sum())
    return eps_max, omega_l1 / len(bundles)


def test_criterion_10_bias_metric_structure():
    skew_omegas = []
    iid_omegas = []
    for seed in range(20):
        eps_max, omega = round_zero_bias(skew_benchmark_config(seed))
        assert eps_max == 0.0, (
            f"seed {seed}: round-0 model-variance bias {eps_max:.3e} != 0 exactly")
        skew_omegas.append(omega)
        eps_max, omega = round_zero_bias(iid_benchmark_config(seed))
        assert eps_max == 0.0, (
            f"seed {seed} (iid): round-0 model-variance bias {eps_max:.3e} != 0")
        iid_omegas.append(omega)
    skew_mean = float(np.mean(skew_omegas))
    iid_mean = float(np.mean(iid_omegas))
    assert skew_mean > iid_mean, (
        f"omega_l1 skew {skew_mean:.4f} not > iid {iid_mean:.4f}")
    report(10, f"round-0 eps == 0 exactly on 20 paired seeds; mean omega_l1 "
               f"skew {skew_mean:.3f} > iid {iid_mean:.3f}")


# ------------------------------------------------------- 11: determinism


def test_criterion_11_bitwise_determinism(tmp_path):
    config = skew_benchmark_config(2, epochs=8)
    paths = []
    for tag in ("a", "b"):
        result = run(config)
        path = tmp_path / f"metrics_{tag}.csv"
        emit_metrics_csv(result.rows, str(path))
        paths.append(path)
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1], "identical configs produced different CSV bytes"
    report(11, f"two identical runs emit byte-identical CSV ({len(blobs[0])} bytes each)")
