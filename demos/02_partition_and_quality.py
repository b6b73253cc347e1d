"""
From raw shards to quality levels
=================================

Client data is never uniform: shard sizes follow a Zipf law and class
mixtures come from a Dirichlet draw, so some clients hold large balanced
shards and others hold a handful of samples from two classes. The quality
score theta compresses both effects into one number in (0, 1], and the
market then buckets clients into contract levels by theta.
"""

import numpy as np

from contractfl import config
from contractfl.contracts import QualityParams, data_quality
from contractfl.experiment import prepare

cfg = config.preset_desk()
clients = prepare(cfg, solve_menu=False).clients

print("client   d_k    skew   theta  level")
for p in clients:
    print(f"{p.client_id:>6}  {p.d_k:>4}  {p.emd:>6.3f}  {p.theta:>6.3f}  {p.level:>5}")

counts = [p.d_k for p in clients]
print(f"\n{len(clients)} clients, {sum(counts)} samples, "
      f"largest shard {max(counts)}, smallest {min(counts)}")

levels = {}
for p in clients:
    levels[p.level] = levels.get(p.level, 0) + 1
print("clients per level:", dict(sorted(levels.items())))

# The quality score rewards samples and punishes skew. Sweeping the raw
# sample count at three fixed skew values shows the tradeoff the single
# theta number encodes.
qp = QualityParams(gamma1=1.68, gamma2=0.114, gamma3=20.0, gamma4=0.5)
print("\n  d_k   theta@skew=0.5  theta@skew=1.0  theta@skew=1.6")
for d in (60, 120, 250, 500, 1000):
    row = [data_quality(d, s, qp) for s in (0.5, 1.0, 1.6)]
    print(f"{d:>5}   {row[0]:>13.3f}  {row[1]:>13.3f}  {row[2]:>13.3f}")

# A shard whose skew penalty eats its whole sample budget is floored at
# the minimum score rather than rejected; the market still buckets it.
tiny = data_quality(25, 1.6, qp)
print(f"\n25 samples at skew 1.6 floor out at theta = {tiny}")
