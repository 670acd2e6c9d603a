"""Local-certification execution model.

A scheme is a prover (graph -> certificate bitstrings) plus a verifier that
sees one vertex's local view: its own id and certificate, the ids and
certificates of its neighbors, and n, which every vertex knows.  Identifiers
are fixed to the identity on 1..n.  ``run`` evaluates the verifier at every
vertex of a connected graph and aggregates the verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .bits import Bits
from .errors import CertificateFormatError, MissingCertificate, ProverFailed
from .graphs import Graph, require_connected

# A certificate assignment maps every vertex id in 1..n to raw certificate
# bits.  Provers emit it; adversaries may put arbitrary bitstrings in it.
CertificateAssignment = dict[int, Bits]


@dataclass(frozen=True, slots=True)
class LocalView:
    """Everything one vertex sees: nothing else from the graph leaks in."""

    n: int
    self_id: int
    self_cert: Bits
    neighbors: tuple[tuple[int, Bits], ...]  # sorted by neighbor id

    def neighbor_ids_mask(self) -> int:
        m = 0
        for v, _ in self.neighbors:
            m |= 1 << (v - 1)
        return m


@dataclass(frozen=True, slots=True)
class Verdict:
    accept: bool
    step: Optional[str] = None  # one of i, ii, iii, iv, v, malformed
    witness: Optional[str] = None

    def __post_init__(self):
        if self.accept and self.step is not None:
            raise ValueError("accepting verdicts carry no reason")
        if not self.accept and self.step is None:
            raise ValueError("rejecting verdicts need a step tag")


ACCEPT = Verdict(True)


@dataclass(frozen=True, slots=True)
class Scheme:
    """A named prover/verifier pair; the verifier must depend on the view only.

    ``batch_verifier``, when given, takes the graph and a certificate for
    every vertex and must return exactly
    ``{v: verifier(local_view(g, certs, v))}``; it exists only to be faster.
    """

    name: str
    prover: Callable[[Graph], CertificateAssignment]
    verifier: Callable[[LocalView], Verdict]
    batch_verifier: Optional[Callable[[Graph, CertificateAssignment], dict[int, Verdict]]] = None


@dataclass
class RunReport:
    verdicts: dict[int, Verdict]
    all_accept: bool
    max_cert_bits: int
    total_cert_bits: int


def local_view(g: Graph, certs: CertificateAssignment, v: int) -> LocalView:
    try:
        own = certs[v]
        nbrs = tuple((w, certs[w]) for w in g.neighbors(v))
    except KeyError as exc:
        raise MissingCertificate(f"no certificate for vertex {exc.args[0]}") from exc
    return LocalView(g.n, v, own, nbrs)


def max_cert_bits(certs: CertificateAssignment) -> int:
    return max(b.length for b in certs.values())


def total_cert_bits(certs: CertificateAssignment) -> int:
    return sum(b.length for b in certs.values())


def run(g: Graph, scheme: Scheme, certs: Optional[CertificateAssignment] = None) -> RunReport:
    """Prove (unless certificates are supplied) and verify at every vertex.

    Supplied certificates must be exactly one per vertex 1..n:
    ``MissingCertificate`` names the first vertex without one, and
    ``CertificateFormatError`` the first id outside 1..n.

    The scheme's batch verifier, if it has one, judges the whole assignment;
    otherwise its verifier judges each vertex's view.  Both give the same
    verdicts.
    """
    require_connected(g)
    if certs is None:
        try:
            certs = scheme.prover(g)
        except Exception as exc:
            raise ProverFailed(f"{scheme.name}: {exc}") from exc
    for v in g.vertices():
        if v not in certs:
            raise MissingCertificate(f"no certificate for vertex {v}")
    if len(certs) != g.n:
        extra = min(v for v in certs if not 1 <= v <= g.n)
        raise CertificateFormatError(f"certificate for vertex {extra}, outside 1..{g.n}")
    if scheme.batch_verifier is None:
        verdicts = {v: scheme.verifier(local_view(g, certs, v)) for v in g.vertices()}
    else:
        verdicts = scheme.batch_verifier(g, certs)
    return RunReport(
        verdicts=verdicts,
        all_accept=all(d.accept for d in verdicts.values()),
        max_cert_bits=max_cert_bits(certs),
        total_cert_bits=total_cert_bits(certs),
    )


def format_run_report(report: RunReport) -> str:
    """One verdict line per vertex plus the summary line."""
    lines = []
    rejected = 0
    for v in sorted(report.verdicts):
        d = report.verdicts[v]
        if d.accept:
            lines.append(f"{v} accept")
        else:
            rejected += 1
            lines.append(f"{v} reject step={d.step} witness={d.witness}")
    lines.append("result: ALL-ACCEPT" if report.all_accept else f"result: REJECTED({rejected})")
    return "\n".join(lines) + "\n"
