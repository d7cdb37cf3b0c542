"""
Ranking losses, dynamic weights, and the learning-rate curve
============================================================

Training pulls on four handles at once: a bidirectional hinge ranking
loss at the instance, consensus, and fusion levels, plus a KL term,
KL(p_text || p_image), that pulls the text side's concept distribution
toward the image side's. Each hinge term
gets a weight that grows with its own current value (computed outside the
graph, so the weights steer but are not themselves trained), and Adam's
learning rate follows a cosine curve with warm restarts.
"""

import numpy as np

from mhcvse import LrSchedule, Tensor, contrastive_loss, dynamic_weight, kl_loss, lr_at, total_loss

# 1. The hinge ranking loss reads a batch's image x text cosine matrix;
#    entry (i, i) is the true pair. A cleanly separated diagonal is loss
#    zero; pushing one negative above its diagonal makes both modes pay.
clean = Tensor(np.eye(4) * 0.9 - 0.1 * (1 - np.eye(4)))
print(f"separated diagonal, hardest mode: "
      f"{contrastive_loss(clean, margin=0.2).item():.4f}")

confused = clean.data.copy()
confused[0, 2] = 0.95  # caption 2 now outscores image 0's own caption
confused = Tensor(confused)
for mode in ("sum", "hardest"):
    value = contrastive_loss(confused, margin=0.2, mode=mode).item()
    print(f"one confusable negative, {mode:7s} mode: {value:.4f}")

# 2. KL(p_text || p_image) between the two modalities' concept
#    distributions, in that one direction only: zero when they agree,
#    positive when the image and its caption disagree about which
#    concepts are present.
agree = Tensor([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
disagree = Tensor([[0.1, 0.2, 0.7], [0.1, 0.8, 0.1]])
print(f"kl(agree):    {kl_loss(agree, agree).item():.4f}")
print(f"kl(disagree): {kl_loss(disagree, agree).item():.4f}")

# 3. Dynamic weights: lambda = w * sigmoid(loss), so a term that currently
#    hurts more gets more of the gradient budget, capped at w.
print("loss value -> weight (w = 1):")
for value in (0.0, 0.5, 1.0, 2.0, 5.0):
    print(f"  {value:4.1f} -> {dynamic_weight(1.0, value):.4f}")

# 4. total_loss wires it together. The weights it reports are plain floats
#    derived from the detached term values; only the terms themselves
#    carry gradients.
terms = total_loss(
    l_instance=Tensor(0.8),
    l_consensus=Tensor(0.3),
    l_fusion=Tensor(0.5),
    l_kl=Tensor(0.1),
    base_weights=(1.0, 1.0, 1.0, 1.0),
)
print(f"effective weights: {tuple(round(w, 4) for w in terms.effective_weights)}")
print(f"total: {terms.total.item():.4f}")

# 5. The cosine schedule restarts every `period` steps: start at eta0,
#    glide to eta_min, snap back.
schedule = LrSchedule(eta0=0.006, eta_min=0.00006, period=10)
curve = [lr_at(schedule, t) for t in range(21)]
print("lr over two periods:")
print("  " + " ".join(f"{lr:.5f}" for lr in curve[:11]))
print("  " + " ".join(f"{lr:.5f}" for lr in curve[10:]))
print(f"restart returns to eta0: {curve[10] == curve[0] == 0.006}")
