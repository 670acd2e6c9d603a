"""Exception hierarchy shared by all modules."""


class P5CertError(Exception):
    """Base class for every error raised by this package."""


# graph construction / queries

class OutOfRangeVertex(P5CertError):
    pass


class LoopEdge(P5CertError):
    pass


class EmptySet(P5CertError):
    pass


class SubsetViolation(P5CertError):
    pass


class DisconnectedInput(P5CertError):
    pass


class GraphFormatError(P5CertError):
    """Strict graph-file parsing failure."""


# tree partitions

class NoDominatingStructure(P5CertError):
    """A component has no dominating clique and no dominating induced P3.

    Only possible when the component is not P5-free; the converse does not
    hold, so success of the builder must never be read as a P5-freeness test.
    """

    def __init__(self, component):
        self.component = frozenset(component)
        super().__init__(f"no dominating clique/P3 in component {sorted(self.component)}")


# codec

class MalformedTreeEncoding(P5CertError):
    pass


class MalformedPartitioning(P5CertError):
    pass


class MalformedCertificate(P5CertError):
    pass


class CertificateFormatError(P5CertError):
    """Strict certificate-file parsing failure."""


# framework / harness

class MissingCertificate(P5CertError):
    pass


class ProverFailed(P5CertError):
    pass


class GenerationBudgetExceeded(P5CertError):
    pass


class TooLarge(P5CertError):
    pass


class PreconditionNotP5(P5CertError):
    """Soundness fuzzing requested on a graph with no induced P5."""
