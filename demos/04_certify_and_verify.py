"""End-to-end certification: honest prover, per-vertex verifier.

Each vertex sees only its own certificate and its neighbors' ids and
certificates, plus the globally known vertex count.  On a P5-free graph the
honest certificates convince everyone; on the 5-path, vertex 3 assembles
enough pair knowledge (including the cross-branch non-edge 1-5) to exhibit
the path and reject.
"""

import p5cert as pc
from p5cert.framework import format_run_report, local_view
from p5cert.p5free import scheme

sch = scheme()

c5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
print("5-cycle (P5-free):")
print(format_run_report(pc.run(c5, sch)))

p5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
print("5-path (certification must fail):")
print(format_run_report(pc.run(p5, sch)))

# what vertex 3 actually knows
certs = pc.prove(p5)
km = pc.knowledge_closure(local_view(p5, certs, 3))
print("vertex 3 knows", km.known_pair_count(), "of 10 pairs")
print("pair {1,5}:", km.status(1, 5), "via", km.provenance[(1, 5)])
print("detected path:", pc.find_known_induced_p5(km))

# a generated cograph, fully honest run with certificate sizes
g = pc.generate(pc.GeneratorSpec("cograph", 24, 0.5, seed=1))
report = pc.run(g, sch)
print(f"cograph n=24: all_accept={report.all_accept}, "
      f"max_cert_bits={report.max_cert_bits}, ratio={report.max_cert_bits / 24**1.5:.3f}")
