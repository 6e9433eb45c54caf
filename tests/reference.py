"""The per-agent reference round that the stacked engine must match bit for bit."""
from __future__ import annotations

import numpy as np

from decentsim import (
    GradientBundle,
    bias_terms,
    decompress,
    gossip_step,
    momentum_update,
    ngc_mix,
    run_round,
    simulator,
)
from decentsim.algorithms import compngc_prepare, ngc_prepare
from decentsim.topology import neighbors


def reference_round(states, w, config, eta):
    """One round agent by agent from the per-agent rules, every operand a copy.

    config.algorithm picks the rules. Each agent prepares with ngc_prepare
    (compngc_prepare under compngc; under dpsgd with no neighbour params)
    and reads its data-variant terms from its peers' outgoing messages.
    Every update finishes before any gossip, and gossip reads the copies of
    the pre-round (or, for dpsgd, x_tilde) params.
    """
    n = len(states)
    weights = [{j: float(w[i, j]) for j in neighbors(w, i)} for i in range(n)]
    peers = [[j for j in weights[i] if j != i] for i in range(n)]
    x = [s.params.copy() for s in states]
    algorithm = config.algorithm
    prepare = compngc_prepare if algorithm == "compngc" else ngc_prepare
    work = [prepare(s, {} if algorithm == "dpsgd" else {j: x[j] for j in peers[i]},
                    config) for i, s in enumerate(states)]
    losses = [wk.batch_loss for wk in work]
    if algorithm == "dpsgd":
        tilde = []
        for i, (s, wk) in enumerate(zip(states, work)):
            s.momentum = momentum_update(s.momentum, wk.self_grad, config.beta, eta)
            tilde.append(x[i] + s.momentum)
        for i, s in enumerate(states):
            operands = {j: tilde[j].copy() for j in weights[i]}
            s.params = gossip_step(tilde[i], i, operands, weights[i], config.gamma)
        return losses, None

    def received(i, j):
        term = work[j].outgoing[i]
        return decompress(term) if algorithm == "compngc" else term

    bundles = []
    for i, (s, wk) in enumerate(zip(states, work)):
        data_variant = {j: received(i, j) for j in peers[i] if i in work[j].outgoing}
        bundles.append(GradientBundle(i, wk.self_grad, wk.model_variant, data_variant,
                                      weights[i]))
        s.momentum = momentum_update(s.momentum, ngc_mix(bundles[-1], config.alpha),
                                     config.beta, eta)
    for i, s in enumerate(states):
        operands = {j: x[j].copy() for j in weights[i]}
        s.params = gossip_step(x[i] + s.momentum, i, operands, weights[i], config.gamma)
    return losses, bundles


def round_with_bundles(stack, w, eta, ledger=None):
    """run_round, plus each agent's GradientBundle as the round mixes it; w is the stack's W.

    The round fills the self-gradient rows with the gossip pulls after
    mixing them, so the bundles are built from a copy of stack.grads taken
    at its first ngc_update call. At that call the model-variant reader
    also reads every edge row at once: the rows of stack.cross under ngc,
    the round's messages decompressed under compngc. Row e is then the
    message on edge e as its sender mixes it; agent i's data-variant terms
    are the rows of its edges' reverses, none when stack.config.alpha = 0.
    Returns (losses, bias, bundles), bundles None for dpsgd.
    """
    slots = stack.slots
    taken = []

    def spy(blk, own, read_sent, *rest):
        if not taken:
            edges = np.empty((slots.edges, stack.x.shape[1]))
            np.copyto(edges, read_sent(slice(0, slots.edges), edges))  # a view under ngc
            taken.extend((stack.grads.copy(), edges))
        return mix(blk, own, read_sent, *rest)

    mix = simulator.ngc_update
    simulator.ngc_update = spy
    try:
        losses, bias = run_round(stack, eta, ledger=ledger)
    finally:
        simulator.ngc_update = mix
    if not taken:
        return losses, bias, None
    grads, cross = taken
    bundles = []
    for i, links in enumerate(slots.links):
        model_variant = {j: cross[e] for j, e in links}
        data_variant = ({j: cross[slots.back[e]] for j, e in links}
                        if stack.config.alpha != 0.0 else {})
        weights = {j: float(w[i, j]) for j in sorted([i, *model_variant])}
        bundles.append(GradientBundle(i, grads[i], model_variant, data_variant, weights))
    return losses, bias, bundles


def bias_norms(bundles) -> tuple[float, float]:
    """Mean l1 norms of the two cluster deviations across agents, bundle by bundle.

    run_round returns the same bits, computed in its mixing pass over row
    blocks; on the bundles of a round (round_with_bundles) the two must agree.
    """
    eps_norms = []
    omega_norms = []
    for bundle in bundles:
        eps, omega = bias_terms(bundle)
        # bias_terms returns fresh arrays, so the absolute values go in place.
        eps_norms.append(np.add.reduce(np.abs(eps, out=eps)))
        omega_norms.append(np.add.reduce(np.abs(omega, out=omega)))
    return float(np.mean(eps_norms)), float(np.mean(omega_norms))


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def assert_rounds_match(stack, ref, w, eta, rounds=3):
    """Run the engine's stack and the reference agents side by side, comparing bits.

    Both run under stack.config. Every round the batch losses, params,
    momenta and error-feedback rows must agree, and so must each agent's
    gradient bundle and the bias norms, which are (0.0, 0.0) for dpsgd.
    """
    for _ in range(rounds):
        losses, bias, got_bundles = round_with_bundles(stack, w, eta)
        want_losses, bundles = reference_round(ref, w, stack.config, eta)
        assert bits(losses) == bits(want_losses)
        for a, b in zip(stack.states, ref):
            assert bits(a.params) == bits(b.params)
            assert bits(a.momentum) == bits(b.momentum)
            assert (a.err_self is None) == (b.err_self is None)
            if a.err_self is not None:
                assert bits(a.err_self) == bits(b.err_self)
            assert a.err_out.keys() == b.err_out.keys()
            for j in a.err_out:
                assert bits(a.err_out[j]) == bits(b.err_out[j])
        if bundles is not None:
            for got, want in zip(got_bundles, bundles):
                assert bits(got.self_grad) == bits(want.self_grad)
                assert got.weights == want.weights
                for name in ("model_variant", "data_variant"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert list(a) == list(b), name
                    assert all(bits(a[j]) == bits(b[j]) for j in a), name
        assert bits(bias) == bits((0.0, 0.0) if bundles is None else bias_norms(bundles))
