"""Tree partitions: peel off dominating cliques / induced P3s recursively.

Every connected P5-free graph has a dominating set that is a clique or an
induced P3; peeling one off and recursing on the remaining components gives
a rooted tree of bags that partitions the vertex set.  The builder also
happens to succeed on the 5-path itself, which is why success here must
never be read as a P5-freeness certificate.
"""

import p5cert as pc
from p5cert.treepart import format_tree_partition

p5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
print("dominating structure of the 5-path:", pc.find_dominating_structure(p5))

tp = pc.build_tree_partition(p5)
print(format_tree_partition(tp))
print("validation:", pc.validate_tree_partition(p5, tp))

# a generated split graph: the clique side dominates
split = pc.generate(pc.GeneratorSpec("split", 14, 0.5, seed=3))
tp2 = pc.build_tree_partition(split)
print("split graph partition:")
print(format_tree_partition(tp2))
print("validation:", pc.validate_tree_partition(split, tp2))

# a broken partition is reported with the violated condition and a witness
from p5cert.treepart import Bag, RootedTree, TreePartition

bad = TreePartition(5, RootedTree((None,)), (Bag(frozenset(range(1, 6)), "clique"),))
print("single-bag lie:", pc.validate_tree_partition(p5, bad))

# the 7-path has no dominating clique or induced P3 at all
p7 = pc.build_graph(7, [(i, i + 1) for i in range(1, 7)])
print("7-path dominating structure:", pc.find_dominating_structure(p7))
