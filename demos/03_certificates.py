"""The bit-exact certificate codec.

A certificate has three parts: the owner's adjacency row, one shared
encoding of the tree partition, and a bundle of adjacency rows ("pieces").
The tree itself is a 0=down / 1=up walk; everything else is fixed-width
integers, most significant bit first.
"""

import p5cert as pc

p5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
tp = pc.build_tree_partition(p5)

tree_bits = pc.encode_tree(tp.tree)
print("tree walk bits:", tree_bits.to01())
print("decoded tree children of root:", pc.decode_tree(tree_bits).children()[0])

part_bits = pc.encode_partitioning(tp, 5)
print("partitioning block:", part_bits.to01(), f"({part_bits.length} bits)")
assert pc.decode_partitioning(part_bits, 5) == tp

certs = pc.prove(p5)
for v in sorted(certs):
    print(f"certificate of {v}: {certs[v].length} bits, hex {certs[v].to_hex()}")

decoded = pc.decode_certificate(certs[3], 5)
print("vertex 3 claims neighbors mask:", bin(decoded.neighbors_part))
print("vertex 3 pieces owners:", [e.owner for e in decoded.pieces_part])

# flipping any single bit either still decodes cleanly or is flagged
from p5cert.errors import MalformedCertificate

flipped = certs[3].flip(7)
try:
    pc.decode_certificate(flipped, 5)
    print("flip at 7: still decodes")
except MalformedCertificate as exc:
    print("flip at 7:", type(exc).__name__, "-", exc)

# certificate files are one hex line per vertex
text = pc.write_certificates(certs)
print(text)
assert pc.parse_certificates(text) == certs
