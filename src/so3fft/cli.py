"""Command-line front end; every subcommand is a thin shell over the library.

Exit codes: 0 success, 1 usage error, 2 data/resource error, 3 numerical
guard trip.  Numeric results travel through SSF1 containers; summaries go
to standard output, diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from ._parallel import THREADS_ENV
from .correlation import multichannel_correlate, rotate_so3_spectral
from .gft import _KIND_TYPES, _TRANSFORMS, GuardError, S2Signal, SO3Signal
from .grids import Rotation, _checked_int
from .harness import (
    EquivarianceConfig,
    run_bench,
    run_equivariance,
    write_records_jsonl,
    write_reports_csv,
    write_reports_jsonl,
)
from .harmonics import ResourceLimitError
from .oracle import rotate_so3_by_resampling
from .signals import (
    ContainerError,
    molecule_channels,
    project_image,
    read_container,
    read_container_header,
    read_molecule,
    read_pgm,
    write_container,
)

__all__ = ["UsageError", "main"]


class UsageError(Exception):
    """Bad flags or arguments; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want code 1
        raise UsageError(message)


def _count_arg(name: str, minimum: int):
    """argparse type for an integer ``name`` of at least ``minimum``."""

    def parse(text: str) -> int:
        # text that is not an integer goes on as text, for _checked_int to
        # reject with its own message
        with contextlib.suppress(ValueError):
            text = int(text)
        try:
            return _checked_int(text, name, minimum)
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_bandwidth_arg = _count_arg("bandwidth", 1)


def _bandwidth_list_arg(text: str) -> list[int]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma-separated bandwidth list")
    return [_bandwidth_arg(p.strip()) for p in parts]


def _read(path, *types):
    """The object in the container at ``path``; exit 2 unless one of ``types``."""
    obj = read_container(path)
    if not isinstance(obj, types):
        wanted = " or ".join(t.__name__ for t in types)
        raise ValueError(f"{path} holds {type(obj).__name__}, expected {wanted}")
    return obj


def _cmd_transform(args) -> int:
    signal_cls, spectrum_cls = _KIND_TYPES[args.kind]
    obj = _read(args.input, signal_cls if args.direction == "forward" else spectrum_cls)
    result = _TRANSFORMS[(args.kind, args.direction, args.path)](obj)
    write_container(args.output, result)
    summary = (
        f"{args.kind} {args.direction} ({args.path}) b={obj.bandwidth} "
        f"channels={obj.channels} -> {args.output}"
    )
    if args.direction == "inverse":
        summary += f" imag_residue={result.imag_residue:.3e}"
    print(summary)
    return 0


def _cmd_correlate(args) -> int:
    signal_cls, spectrum_cls = _KIND_TYPES[args.kind]
    given = args.filter is not None  # else a spectrum, which is not analysed again
    bank = _read(args.filter, signal_cls) if given else _read(args.filter_spectrum, spectrum_cls)
    signal = _read(args.signal, signal_cls)
    out = multichannel_correlate(
        bank,
        signal,
        bandwidth_out=args.bandwidth_out,
        out_channels=args.out_channels,
    )
    write_container(args.output, out)
    print(
        f"correlated {bank.channels}-channel bank with "
        f"{signal.channels}-channel signal -> {args.output} "
        f"(b={out.bandwidth}, channels={out.channels}) "
        f"imag_residue={out.imag_residue:.3e}"
    )
    return 0


def _cmd_rotate(args) -> int:
    obj = _read(args.input, S2Signal, SO3Signal)
    rotation = Rotation(args.alpha, args.beta, args.gamma)
    rotate = rotate_so3_spectral if args.method == "spectral" else rotate_so3_by_resampling
    out = rotate(obj, rotation)
    write_container(args.output, out)
    print(
        f"rotated by (alpha={rotation.alpha:.6g}, beta={rotation.beta:.6g}, "
        f"gamma={rotation.gamma:.6g}) via {args.method} -> {args.output} "
        f"imag_residue={out.imag_residue:.3e}"
    )
    return 0


def _cmd_equivariance(args) -> int:
    config = EquivarianceConfig(
        bandwidth=args.bandwidth,
        layers=args.layers,
        channels=args.channels,
        trials=args.trials,
        with_relu=args.relu,
        rotation_source=args.rotation,
        seed=args.seed,
    )
    report = run_equivariance(config, threads=args.threads)
    print(
        f"b={config.bandwidth} L={config.layers} relu={config.with_relu} "
        f"n={config.trials}: delta={report.delta:.6e} "
        f"(p50={report.delta_p50:.3e}, p95={report.delta_p95:.3e}, "
        f"{report.seconds:.2f}s)"
    )
    if args.output:
        write_reports_jsonl([report], args.output)
    if args.csv:
        write_reports_csv([report], args.csv)
    return 0


def _cmd_bench(args) -> int:
    records = run_bench(args.bandwidths, args.kind, args.repetitions)
    for record in records:
        timing = record.get("note") or f"{record['seconds'] * 1e3:10.3f} ms"
        print(
            f"{record['kind']:>3} b={record['bandwidth']:<3} "
            f"{record['op']:<7} {record['path']:<6} {timing}"
        )
    if args.output:
        write_records_jsonl(records, args.output)
    return 0


def _cmd_project_image(args) -> int:
    image = read_pgm(args.image)
    signal = project_image(image, args.bandwidth)
    write_container(args.output, signal)
    print(
        f"projected {image.width}x{image.height} image onto b={args.bandwidth} "
        f"sphere -> {args.output}"
    )
    return 0


def _cmd_project_molecule(args) -> int:
    molecule = read_molecule(args.molecule, radius=args.radius)
    signal = molecule_channels(molecule, args.center, args.bandwidth)
    write_container(args.output, signal)
    print(
        f"projected {molecule.atom_count}-atom molecule (center {args.center}, "
        f"radius {molecule.radius:.6g}) onto b={args.bandwidth} sphere with "
        f"{signal.channels} charge channels -> {args.output}"
    )
    return 0


def _cmd_info(args) -> int:
    header = read_container_header(args.file)
    print(json.dumps(header, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="so3fft",
        description="Harmonic analysis and correlation on the sphere and rotation group.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("transform", help="run a transform on a container")
    p.add_argument("--kind", choices=["s2", "so3"], required=True)
    p.add_argument("--dir", dest="direction", choices=["forward", "inverse"], required=True)
    p.add_argument("--path", choices=["fast", "direct"], default="fast")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("correlate", help="correlate a filter bank with a signal")
    p.add_argument("--kind", choices=["s2", "so3"], required=True)
    bank = p.add_mutually_exclusive_group(required=True)
    bank.add_argument("--filter", help="filter bank signal container")
    bank.add_argument("--filter-spectrum", help="filter bank spectrum container")
    p.add_argument("--signal", required=True, help="signal container")
    p.add_argument("--output", required=True)
    p.add_argument("--bandwidth-out", type=_bandwidth_arg, default=None)
    p.add_argument("--out-channels", type=_count_arg("out_channels", 1), default=None)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("rotate", help="rotate a signal container")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--method", choices=["spectral", "resampling"], default="spectral")
    p.set_defaults(func=_cmd_rotate)

    p = sub.add_parser("equivariance", help="rotate-vs-apply drift experiment")
    p.add_argument("--bandwidth", type=_bandwidth_arg, required=True)
    p.add_argument("--layers", type=_count_arg("layers", 1), default=1)
    p.add_argument("--channels", type=_count_arg("channels", 1), default=10)
    p.add_argument("--trials", type=_count_arg("trials", 1), default=20)
    p.add_argument("--relu", action="store_true")
    p.add_argument("--rotation", choices=["spectral", "resampling"], default="spectral")
    p.add_argument("--seed", type=_count_arg("seed", 0), default=0)
    p.add_argument(
        "--threads",
        type=_count_arg("threads", 0),
        default=None,
        metavar="N",
        help=f"worker cap for trial loops (0 = auto; default from ${THREADS_ENV})",
    )
    p.add_argument("--output", default=None, help="JSONL report path")
    p.add_argument("--csv", default=None, help="CSV report path")
    p.set_defaults(func=_cmd_equivariance)

    p = sub.add_parser("bench", help="time fast vs. direct transforms")
    p.add_argument("--kind", choices=["s2", "so3"], default="so3")
    p.add_argument("--bandwidths", type=_bandwidth_list_arg, default=[2, 4, 8])
    p.add_argument("--repetitions", type=_count_arg("repetitions", 1), default=5)
    p.add_argument("--output", default=None, help="JSONL records path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("project-image", help="stereographic image projection")
    p.add_argument("--image", required=True, help="P2/P5 graymap")
    p.add_argument("--bandwidth", type=_bandwidth_arg, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_project_image)

    p = sub.add_parser("project-molecule", help="per-charge potential channels")
    p.add_argument("--molecule", required=True, help="text file, 'charge x y z' per line")
    p.add_argument("--center", type=_count_arg("center", 0), default=0)
    p.add_argument("--bandwidth", type=_bandwidth_arg, default=10)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_project_molecule)

    p = sub.add_parser("info", help="dump a container header")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(f"run '{parser.prog} --help' for details", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except (ContainerError, MemoryError, ResourceLimitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
