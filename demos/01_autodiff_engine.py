"""
Reverse-mode autodiff on a blank tape
=====================================

The whole model trains through one small engine: float64 tensors, a tape
that records every op during the forward pass, and a backward sweep that
replays the records in reverse. This script builds a tiny least-squares
problem by hand, checks the tape's gradients against central finite
differences, and then drives the loss down with a few Adam steps.
"""

import numpy as np

from mhcvse import AdamState, Tape, Tensor, adam_step, gradient_check
from mhcvse.autodiff import matmul, mul, sub, sum as t_sum

rng = np.random.default_rng(0)

# 1. A small regression target: find W so that X @ W matches Y.
X = Tensor(rng.normal(size=(6, 3)))
Y = Tensor(rng.normal(size=(6, 2)))
W = Tensor(rng.normal(size=(3, 2)) * 0.1)


def loss_on_tape(tape_weights):
    residual = sub(matmul(X, tape_weights), Y)
    return t_sum(mul(residual, residual))


with Tape() as tape:
    loss = loss_on_tape(W)
    grads = tape.backward(loss)

print(f"initial loss: {loss.item():.6f}")
print(f"gradient shape matches parameter: {grads[W].shape == W.shape}")

# 2. Finite differences agree with the tape. gradient_check records the
#    loss on a tape once, then moves each entry of W by h = 1e-5 either
#    way. Central differences resolve roughly 10 significant digits in
#    float64, so a relative error below 1e-6 means the backward rule is
#    right.
worst = gradient_check(lambda: loss_on_tape(W), {"W": W})
print(f"max relative error, tape vs finite differences: {worst:.2e}")

# 3. Adam. The optimizer mutates parameter .data in place between tapes;
#    everything else on a tape is immutable.
params = {"W": W}
adam = AdamState()
for step in range(200):
    with Tape() as tape:
        loss = loss_on_tape(W)
        grads = tape.backward(loss)
    adam_step(params, grads, adam, lr=0.05)
    if step % 50 == 0:
        print(f"step {step:3d}  loss {loss.item():.6f}")

print(f"final loss: {loss_on_tape(W).item():.6f}")

# 4. The exact least-squares solution for comparison.
W_star, *_ = np.linalg.lstsq(X.data, Y.data, rcond=None)
print(f"distance to closed-form solution: {np.linalg.norm(W.data - W_star):.2e}")
