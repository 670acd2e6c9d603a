"""Local certification of P5-free graphs with O(n^1.5)-bit certificates."""

from .bits import Bits
from .codec import (
    EncodedCertificate,
    NeighborhoodRow,
    decode_certificate,
    decode_partitioning,
    decode_tree,
    encode_certificate,
    encode_partitioning,
    encode_tree,
    idwidth,
    parse_certificates,
    write_certificates,
)
from .framework import (
    CertificateAssignment,
    LocalView,
    RunReport,
    Scheme,
    Verdict,
    local_view,
    max_cert_bits,
    run,
)
from .graphs import (
    Graph,
    as_induced_p3,
    build_graph,
    connected_components,
    find_induced_path,
    is_clique,
    is_connected,
    is_dominating,
    parse_graph,
    write_graph,
)
from .harness import (
    AdversaryStrategy,
    FuzzReport,
    GeneratorSpec,
    adversarial_certificates,
    enumerate_connected_graphs,
    fuzz_soundness,
    generate,
    measure_scaling,
    oracle_is_p5_free,
)
from .p5free import (
    Contradiction,
    KnowledgeMap,
    ceil_sqrt,
    find_known_induced_p5,
    knowledge_closure,
    prove,
    verify,
    verify_all,
)
from .treepart import (
    Bag,
    RootedTree,
    TreePartition,
    Violation,
    build_tree_partition,
    find_dominating_structure,
    validate_tree_partition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
