"""Corpus sweeps: verify the structural rules over generated graph corpora.

The same machinery backs the command line (`lmss verify ...`).  Corpora
are exhaustive (isomorph-reduced, n <= 8), seeded random, corona families,
or fixture lists; every rule reports counterexamples as edge lists.
"""

from lmss import CorpusSpec, iter_corpus, verify
from lmss.corpus import connected_graphs
from lmss.theorems import RULES

print("available rules:")
for name, rule in sorted(RULES.items()):
    print(f"  {name:18s} {rule.describe}")

# Exhaustive corpora are generated once and isomorph-reduced.
print("\nconnected graphs on 6 vertices:", len(connected_graphs(6)))

spec = CorpusSpec(source="exhaustive", max_n=6)
summary = verify(spec, ["th8", "th9", "lem2", "equiv7"])
for rep in summary.reports:
    print(f"{rep.rule:10s} checked {rep.checked} graphs, "
          f"{len(rep.violations)} violations")

# Very well-covered graphs are rare in the random model; the filter keeps
# whatever survives, and the unique-matching criterion is checked on those.
spec = CorpusSpec(source="random", count=500, n=10, edge_probability=0.2,
                  seed=42, filter="vwc")
print("\nrandom survivors:", [it.name for it in iter_corpus(spec)])
summary = verify(spec, ["th8"])
print("verdict on survivors:", "ok" if summary.passed else "violations!")

# Corona corpora carry their construction, so part-wise rules apply.
spec = CorpusSpec(source="coronas", max_x=2, max_h=2)
summary = verify(spec, ["th10iv", "th88iv"])
print(f"\ncoronas checked: {summary.reports[0].checked}, "
      f"violations: {summary.total_violations}")
