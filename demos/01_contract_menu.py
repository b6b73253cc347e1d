"""
Designing a contract menu
=========================

A task publisher wants model updates from clients whose data quality it
cannot observe. It publishes one (reward, effort) pair per quality level
and relies on the menu itself to make every client pick the row built for
its own level. This script solves such a menu for a ten-level market and
then checks the two properties that make it work.
"""

from contractfl.contracts import (
    MarketModel,
    local_epochs,
    solve_contract,
    verify_contract,
)

# Ten quality levels at 0.1, 0.2, ..., 1.0, each holding a tenth of the
# population. The remaining numbers price compute and communication:
# xi*c*f^2 energy units per unit of effort, E_com per upload.
market = MarketModel.uniform(
    10, xi=2.0, c=5.0, f=1.0, t_com=10.0, e_com=20.0,
    lambda1=5e6, lambda2=4e5, t_max=1e5)

menu = solve_contract(market)

print("level  theta      effort        reward")
for entry in menu.entries:
    print(f"{entry.level:>5}  {entry.theta:>5.2f}  {entry.effort:>10.1f}  "
          f"{entry.reward:>12.1f}")
print(f"publisher utility: {menu.provenance['publisher_utility']:.3f}")

# Level 1 is pushed to the minimum effort: low-quality updates are worth
# so little that the solver only keeps the level participating at all.
# Everyone else works roughly the same amount but is paid more the higher
# its quality, which is the information rent that keeps reports honest.

report = verify_contract(menu, market)
print(f"\nall constraints hold: {report.ok}")
print(f"participation binds at levels {list(report.binding_ir)}")
print(f"adjacent self-selection binds at {list(report.binding_ic_down)}")

# The verification is brute force: every level's utility is evaluated on
# every row of the menu. A level must never envy another row. A payoff is
# always priced by market.utility, theta * reward - (xi*c*f^2 * effort +
# E_com); it broadcasts, so one call fills the whole level-by-row table.
util = market.utility(market.theta[:, None], menu.rewards, menu.efforts)
own = util.diagonal()
print(f"worst cross-row advantage: {(util - own[:, None]).max():.3e}")

# What the menu means for one concrete client: 300 samples at level 4.
d_k = 300
entry = menu.entry(4)
tau = local_epochs(entry.effort, d_k)
print(f"\na level-4 client with {d_k} samples trains {tau} local epochs per round")
# epochs round down to a whole number, so the realized effort tau * d_k,
# and with it the energy bill, comes out a little under the contracted one
payoff = market.utility(market.theta[3], entry.reward, tau * d_k)
print(f"its payoff at that rounded epoch count: {payoff:.1f}")

# Utility of the same client on other rows, at contracted efforts: row 4
# of the table above, market.utility(theta_4, R_m, e_m). The tie with the
# row one below is by construction (that constraint binds exactly); every
# other deviation strictly loses.
for pick in (2, 3, 4, 5, 6):
    value = float(util[3, pick - 1])
    marker = " <- its own row" if pick == 4 else ""
    print(f"  utility if it reports level {pick}: {value:>12.2f}{marker}")
