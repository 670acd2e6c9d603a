"""Graphs, the induced-path oracle, and the structural predicates.

Everything downstream trusts one ground truth: an exhaustive search for the
first induced 5-path.  This script builds a few small graphs and interrogates
them.
"""

import p5cert as pc

# the 5-path itself: vertices 1..5, edges between consecutive ids
p5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
print("5-path edges:", p5.edges())
print("induced 5-path:", pc.find_induced_path(p5))

# the 5-cycle is the classic P5-free neighbor of the 5-path
c5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
print("5-cycle induced 5-path:", pc.find_induced_path(c5))

# structural predicates used by the certification machinery
print("is {2,3,4} a clique in the 5-path?", pc.is_clique(p5, {2, 3, 4}))
print("is {2,3,4} an induced P3?", pc.as_induced_p3(p5, {2, 3, 4}))
print("does {2,3,4} dominate the 5-path?", pc.is_dominating(p5, {2, 3, 4}, range(1, 6)))

# components and file round trip
g = pc.build_graph(6, [(1, 2), (2, 3), (5, 6)])
print("components:", [sorted(c) for c in pc.connected_components(g)])

text = pc.write_graph(c5)
print("graph file:")
print(text)
assert pc.parse_graph(text) == c5
