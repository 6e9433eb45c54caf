"""The per-agent reference round that the stacked engine must match bit for bit."""
from __future__ import annotations

import numpy as np

from decentsim import (
    GradientBundle,
    bias_norms,
    cross_gradient,
    decompress,
    ef_step,
    gossip_step,
    loss_and_gradient,
    momentum_update,
    ngc_mix,
    run_round,
)
from decentsim.topology import neighbors


def reference_round(states, w, hp, algorithm, batch_size):
    """One round agent by agent from the per-agent rules, every operand a copy.

    Every update finishes before any gossip, and gossip reads the copies
    of the pre-round (or, for dpsgd, x_tilde) params.
    """
    n = len(states)
    weights = [{j: float(w[i, j]) for j in neighbors(w, i)} for i in range(n)]
    peers = [[j for j in weights[i] if j != i] for i in range(n)]
    x = [s.params.copy() for s in states]
    losses, self_grads, model, sent = [], [], [], {}
    for i, s in enumerate(states):
        batch = s.draw_batch(batch_size)
        loss, g = loss_and_gradient(s.spec, x[i], s.data, batch)
        losses.append(loss)
        mv = {j: cross_gradient(s.spec, x[j], s.data, batch) for j in peers[i]}
        if algorithm == "compngc":
            zero = np.zeros_like(g)
            delta, s.err_self = ef_step(g, zero if s.err_self is None else s.err_self)
            g = decompress(delta)
            for j in peers[i]:
                message, s.err_out[j] = ef_step(mv[j], s.err_out.get(j, zero))
                mv[j], sent[i, j] = decompress(message), decompress(message)
        else:
            sent.update({(i, j): mv[j].copy() for j in peers[i]})
        self_grads.append(g)
        model.append(mv)
    if algorithm == "dpsgd":
        tilde = []
        for i, s in enumerate(states):
            s.momentum = momentum_update(s.momentum, self_grads[i], hp.beta, hp.eta)
            tilde.append(x[i] + s.momentum)
        for i, s in enumerate(states):
            operands = {j: tilde[j].copy() for j in weights[i]}
            s.params = gossip_step(tilde[i], i, operands, weights[i], hp.gamma)
        return losses, None
    bundles = []
    for i, s in enumerate(states):
        data_variant = {j: sent[j, i] for j in peers[i]} if hp.alpha != 0.0 else {}
        bundles.append(GradientBundle(i, self_grads[i], model[i], data_variant, weights[i]))
        s.momentum = momentum_update(s.momentum, ngc_mix(bundles[-1], hp.alpha),
                                     hp.beta, hp.eta)
    for i, s in enumerate(states):
        operands = {j: x[j].copy() for j in weights[i]}
        s.params = gossip_step(x[i] + s.momentum, i, operands, weights[i], hp.gamma)
    return losses, bundles


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def assert_rounds_match(stack, ref, w, hp, algorithm, batch_size, rounds=3):
    """Run the engine's stack and the reference agents side by side, comparing bits.

    Every round the batch losses, params, momenta and error-feedback rows
    must agree, and so must each agent's gradient bundle and, where W's
    weights are uniform, the bias norms.
    """
    for _ in range(rounds):
        losses, grads = run_round(stack, hp, batch_size)
        want_losses, bundles = reference_round(ref, w, hp, algorithm, batch_size)
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
            for got, want in zip(grads, bundles):
                assert bits(got.self_grad) == bits(want.self_grad)
                assert got.weights == want.weights
                for name in ("model_variant", "data_variant"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert list(a) == list(b), name
                    assert all(bits(a[j]) == bits(b[j]) for j in a), name
        if bundles is not None and stack.slots.uniform:
            assert bits(grads.bias_norms()) == bits(bias_norms(bundles))
            assert bits(bias_norms(grads)) == bits(bias_norms(bundles))
