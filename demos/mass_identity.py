"""Check the mass identity: the full family count equals the sum over
filtration types of stable counts.  Everything is an exact power series
in t, compared through a chosen order."""

from parbetti import make_data, moduli_dim
from parbetti.recursion import siegel_check

data = make_data([((1, 1, 1), ("0", "1/12", "1/4"))])

for genus in (0, 1, 2):
    order = max(2 * moduli_dim(data, genus) + 2, 2)
    ok, first = siegel_check(data, genus, 0, order)
    verdict = "agree" if ok else f"first difference at t^{first}"
    print(f"genus {genus}: both sides through t^{order} {verdict}")
