"""Command-line front end.

Exit codes: 0 accept/pass, 1 semantic reject/fail (a prover or generator
that gives up included), 2 malformed input (option values included),
3 precondition violation (disconnected input, fuzzing a P5-free graph).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import baselines, harness
from .errors import (
    CertificateFormatError,
    DisconnectedInput,
    GenerationBudgetExceeded,
    GraphFormatError,
    MalformedCertificate,
    MalformedPartitioning,
    MissingCertificate,
    NoDominatingStructure,
    PreconditionNotP5,
    ProverFailed,
    TooLarge,
)
from .framework import Scheme, format_run_report, max_cert_bits, run
from .graphs import parse_decimal, parse_graph, write_graph
from .harness import AdversaryStrategy, GeneratorSpec
from .codec import parse_certificates, write_certificates
from .p5free import is_p5_free, scheme as p5_scheme
from .treepart import build_tree_partition, format_tree_partition, validate_tree_partition

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_MALFORMED = 2
EXIT_PRECONDITION = 3


# every scheme name but kk:<k>, which takes its k from the name
_SCHEMES = {
    "p5": p5_scheme,
    "universal-p5": lambda: baselines.universal_scheme(is_p5_free),
    "stree-n": baselines.spanning_tree_size_scheme,
}


def _unknown_scheme(name: str) -> str:
    return f"unknown scheme {name!r}; choose {', '.join(_SCHEMES)} or kk:<k>"


def get_scheme(name: str) -> Scheme:
    if name.startswith("kk:"):
        return baselines.kk_freeness_scheme(parse_decimal(name[3:]))
    if name not in _SCHEMES:
        raise ValueError(_unknown_scheme(name))
    return _SCHEMES[name]()


def _scheme_name(name: str) -> str:
    """argparse type of --scheme: a known name, or kk:<k> with an integer k."""
    if name.startswith("kk:"):
        try:
            parse_decimal(name[3:])
        except ValueError:
            raise argparse.ArgumentTypeError(f"kk:<k> needs an integer k, got {name!r}") from None
    elif name not in _SCHEMES:
        raise argparse.ArgumentTypeError(_unknown_scheme(name))
    return name


def _checked(parse, ok, expected: str):
    """argparse type: ``parse(text)`` if ``ok`` holds of it; an error names the value."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is not None and ok(value):
            return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return convert


# integers as the input files spell them: ASCII -?[0-9]+ (``parse_decimal``)
_integer = _checked(parse_decimal, lambda v: True, "an integer")
_positive_int = _checked(parse_decimal, lambda v: v >= 1, "a positive integer")
_probability = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_sizes = _checked(lambda text: [parse_decimal(s) for s in text.split(",")], lambda v: min(v) >= 1, "comma-separated positive integers")


def _load_graph(path: str):
    return parse_graph(Path(path).read_text())


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(args.family, args.n, args.p, args.seed)
    g = harness.generate(spec)
    tag = "yes" if is_p5_free(g) else "no"
    header = f"c family={spec.family} n={spec.n} p={spec.p} seed={spec.seed} p5free={tag}\n"
    Path(args.out).write_text(header + write_graph(g))
    print(f"wrote {args.out} (n={g.n} m={g.edge_count()} p5free={tag})")
    return EXIT_OK


def _cmd_partition(args) -> int:
    g = _load_graph(args.graph)
    tp = build_tree_partition(g)
    sys.stdout.write(format_tree_partition(tp))
    violation = validate_tree_partition(g, tp)
    if violation is None:
        print("validation: Valid")
        return EXIT_OK
    print(f"validation: Violation({violation.condition}) {violation.witness}")
    return EXIT_REJECT


def _cmd_prove(args) -> int:
    g = _load_graph(args.graph)
    certs = get_scheme(args.scheme).prover(g)
    Path(args.out).write_text(write_certificates(certs))
    print(f"wrote {args.out} ({len(certs)} certificates, max {max_cert_bits(certs)} bits)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    certs = parse_certificates(Path(args.certs).read_text())
    report = run(g, get_scheme(args.scheme), certs)
    sys.stdout.write(format_run_report(report))
    return EXIT_OK if report.all_accept else EXIT_REJECT


def _cmd_run(args) -> int:
    g = _load_graph(args.graph)
    certs = parse_certificates(Path(args.certs).read_text()) if args.certs else None
    report = run(g, get_scheme(args.scheme), certs)
    sys.stdout.write(format_run_report(report))
    print(f"max_bits={report.max_cert_bits} n={g.n} ratio={report.max_cert_bits / g.n**1.5:.6f}")
    return EXIT_OK if report.all_accept else EXIT_REJECT


def _cmd_fuzz(args) -> int:
    g = _load_graph(args.graph)
    strategy = AdversaryStrategy(args.strategy, args.trials, args.seed)
    report = harness.fuzz_soundness(g, strategy)
    path = None
    if report.counterexample is not None:
        path = args.counterexample_out
        Path(path).write_text(write_certificates(report.counterexample))
    sys.stdout.write(harness.format_fuzz_report(report, path))
    return EXIT_OK if report.passed else EXIT_REJECT


def _cmd_measure(args) -> int:
    rows, constant = harness.measure_scaling(args.sizes, args.family, args.seed, args.p)
    csv = harness.format_scaling_csv(rows)
    Path(args.out).write_text(csv)
    sys.stdout.write(csv)
    print(f"fitted constant C = {constant:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="p5cert", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file", allow_abbrev=False)
    p.add_argument("--family", required=True, choices=harness.FAMILIES)
    p.add_argument("--n", required=True, type=_positive_int)
    p.add_argument("--p", type=_probability, default=0.5)
    p.add_argument("--seed", required=True, type=_integer)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("partition", help="build and validate a tree partition", allow_abbrev=False)
    p.add_argument("graph")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("prove", help="write honest certificates", allow_abbrev=False)
    p.add_argument("graph")
    p.add_argument("--out", required=True)
    p.add_argument("--scheme", default="p5", type=_scheme_name)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("verify", help="verify a certificate file", allow_abbrev=False)
    p.add_argument("graph")
    p.add_argument("certs")
    p.add_argument("--scheme", default="p5", type=_scheme_name)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("run", help="prove and verify end-to-end", allow_abbrev=False)
    p.add_argument("graph")
    p.add_argument("--certs", help="verify this certificate file instead of proving")
    p.add_argument("--scheme", default="p5", type=_scheme_name)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("fuzz", help="adversarial soundness fuzzing", allow_abbrev=False)
    p.add_argument("graph")
    p.add_argument("--strategy", required=True, choices=harness.STRATEGIES)
    p.add_argument("--trials", required=True, type=_positive_int)
    p.add_argument("--seed", required=True, type=_integer)
    p.add_argument("--counterexample-out", default="counterexample.certs")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("measure", help="certificate size scaling CSV", allow_abbrev=False)
    p.add_argument("--sizes", required=True, type=_sizes, help="comma-separated vertex counts")
    p.add_argument("--family", required=True, choices=harness.FAMILIES)
    p.add_argument("--seed", required=True, type=_integer)
    p.add_argument("--p", type=_probability, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_measure)

    return parser


def cli_main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        GraphFormatError,
        CertificateFormatError,
        MalformedCertificate,
        MalformedPartitioning,
        MissingCertificate,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (DisconnectedInput, PreconditionNotP5, TooLarge) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ProverFailed, NoDominatingStructure, GenerationBudgetExceeded, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_REJECT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
