"""
Holding the line under label flips
==================================

Six of the twenty clients flip every label before training, and those six
hold most of the data. A plain synchronous average soaks their updates up
and collapses. The asynchronous pipeline scores each upload by how much
it improves the shared validation loss, removes per-level outliers, and
withholds payment for every rejected cycle.

The gate never sees labels, so it is not an attacker detector. Early in
training even a poisoned gradient reduces validation loss, and such
uploads are admitted on merit. What the gate guarantees is narrower and
more useful: an upload that made things worse is filtered out, and work
that was filtered out is never paid.
"""

from contractfl import config, experiment

cfg = config.resolve_config("desk", None, [
    "attack.count=6", "attack.flip_fraction=1.0"])

res = experiment.run_async_experiment(cfg)
fed = experiment.run_baseline_experiment(cfg, "fedavg")

print(f"async + gate final accuracy: "
      f"{res['publisher']['final_test_accuracy']:.4f}")
print(f"fedavg final accuracy:       {fed['final_test_accuracy']:.4f}")

# Settlement splits every client's uploads into admitted and rejected.
# Rewards accrue only on admitted uploads, so a client whose updates keep
# failing the gate burns energy for nothing.
print(f"\n{'client':>6} {'level':>5} {'mal':>3} {'admitted':>8} {'rejected':>8} "
      f"{'earned':>12} {'utility':>12}")
for row in res["clients"]:
    print(f"{row['client_id']:>6} {row['level']:>5} {int(row['malicious']):>3} "
          f"{row['admitted']:>8} {row['rejected']:>8} "
          f"{row['rewards_earned']:>12.1f} {row['realized_utility']:>12.1f}")

honest = [r for r in res["clients"] if not r["malicious"]]
bad = [r for r in res["clients"] if r["malicious"]]


def admit_rate(rows):
    ups = sum(r["uploads"] for r in rows)
    return sum(r["admitted"] for r in rows) / ups if ups else 0.0


print(f"\nhonest upload admission rate:   {admit_rate(honest):.1%}")
print(f"attacker upload admission rate: {admit_rate(bad):.1%}")
print(f"paid to honest clients:  {sum(r['rewards_earned'] for r in honest):,.0f}")
print(f"paid to attackers:       {sum(r['rewards_earned'] for r in bad):,.0f}")
print(f"withheld from attackers: {sum(r['rewards_withheld'] for r in bad):,.0f}")

# The per-upload trail (ledger.csv when artifacts are written) shows the
# same story round by round: attacker scores trend negative as the model
# improves, and the rejections concentrate there.
