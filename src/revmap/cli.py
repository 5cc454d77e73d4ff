"""Command-line interface.

Exit codes: 0 success (verify: Equivalent), 1 verify mismatch,
2 malformed input, 3 unsupported construct, 4 usage error.  Every error
path prints a single ``error[<code>]: <reason>`` line to stderr.

Each command runs with the cyclic garbage collector paused: revmap's
values hold no reference cycles, so reference counting frees them and a
collection during a command would reclaim nothing.  ``main`` restores the
collector's prior state on every exit.
"""

import argparse
import gc
import sys
from pathlib import Path

from .blif import parse_intermediate, write_intermediate
from .convert import conversion_trace, convert_circuit
from .errors import RevmapError, UsageError
from .fanout import insert_copiers
from .realfmt import _output_labels, parse_real, write_real
from .sim import (
    check_bijectivity,
    check_equivalence,
    eval_ir,
    eval_rev,
    gen_random_circuit,
    stats,
)
from .slotting import slot_circuit


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path):
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise RevmapError(f"cannot read {path}: {exc.strerror}") from None


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise RevmapError(f"cannot write {path}: {exc.strerror}") from None


def _load_blif(path):
    # the CLI accepts the intermediate superset (.copy) everywhere, so the
    # prep output feeds straight back into convert, verify and sim; no
    # check_circuit here: insert_copiers and eval_ir validate before use
    return parse_intermediate(_read(path))


def _prepare(path):
    return insert_copiers(_load_blif(path))


def cmd_convert(args):
    slotted = slot_circuit(_prepare(args.circuit))
    restore = not args.no_restore_controls
    _write(args.output, write_real(convert_circuit(slotted, restore)))
    if args.trace:
        for e in conversion_trace(slotted, restore):
            added = ",".join(map(str, e.new_lines)) or "-"
            print(f"slot={e.slot} gate=g{e.gate} kind={e.kind.name} lines={added}")
    return 0


def cmd_prep(args):
    _write(args.output, write_intermediate(_prepare(args.circuit)))
    return 0


def cmd_slots(args):
    slotted = slot_circuit(_prepare(args.circuit))
    c = slotted.circuit
    rows = [("slot", "gates", "nets")]
    for k, slot in enumerate(slotted.slots):
        names = " ".join(f"g{i}:{c.gates[i].kind.name}" for i in slot.gates) or "-"
        rows.append((str(k), names, " ".join(slot.nets) or "-"))
    widths = [max(len(row[i]) for row in rows) for i in range(2)]
    for row in rows:
        print(f"{row[0]:>{widths[0]}}  {row[1]:<{widths[1]}}  {row[2]}")
    return 0


CAP_CEILING = 24  # both caps; verify simulates at most 2^24 assignments


def cmd_verify(args):
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    for flag, cap in (("--max-exhaustive", args.max_exhaustive),
                      ("--max-bijective", args.max_bijective)):
        if cap < 0:
            raise UsageError(f"{flag} must be at least 0, got {cap}")
        if cap > CAP_CEILING:
            raise UsageError(f"{flag} must be at most {CAP_CEILING}, got {cap}")
    c = _load_blif(args.circuit)
    r = parse_real(_read(args.real))
    report = check_equivalence(
        c,
        r,
        max_exhaustive=args.max_exhaustive,
        samples=args.samples,
        seed=args.seed,
    )
    print(report.summary())
    seed_note = "-" if report.seed is None else str(report.seed)
    print(f"mode={report.mode} seed={seed_note}")
    if r.width <= args.max_bijective:
        check_bijectivity(r, max_lines=args.max_bijective)
        print(f"bijectivity=ok states={1 << r.width}")
    else:
        print(f"bijectivity=skipped lines={r.width} cap={args.max_bijective}")
    return 0 if report.equivalent else 1


def _parse_bits(text, count, what):
    if len(text) != count or any(ch not in "01" for ch in text):
        raise UsageError(
            f"--input needs {count} bits (one per {what}), got {text!r}"
        )
    return [int(ch) for ch in text]


def cmd_sim(args):
    fmt = args.format
    if fmt is None:
        fmt = "real" if args.circuit.endswith(".real") else "blif"
    if fmt == "blif":
        c = _load_blif(args.circuit)
        bits = _parse_bits(args.input, len(c.inputs), "primary input")
        values = eval_ir(c, dict(zip(c.inputs, bits)))
        print(" ".join(f"{name}={values[name]}" for name in c.outputs))
        return 0
    r = parse_real(_read(args.circuit))
    bits = _parse_bits(args.input, len(r.primary_inputs), "primary-input line")
    feed = iter(bits)
    start = [bit if bit is not None else next(feed) for bit in r._constants]
    end = eval_rev(r, start)
    labels = _output_labels(r._outputs)
    print(" ".join(f"{label}={bit}" for label, bit in zip(labels, end)))
    return 0


def cmd_stats(args):
    print(stats(parse_real(_read(args.circuit))).summary())
    return 0


def cmd_gen(args):
    if args.inputs < 1:
        raise UsageError(f"--inputs must be at least 1, got {args.inputs}")
    if args.gates < 0:
        raise UsageError(f"--gates must be at least 0, got {args.gates}")
    c = gen_random_circuit(args.seed, args.inputs, args.gates)
    _write(args.output, write_intermediate(c))
    return 0


def build_parser():
    parser = _Parser(
        prog="revmap",
        description="Compile combinational BLIF circuits into reversible "
        "NOT/CNOT/Toffoli netlists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="compile a .blif circuit to .real")
    p.add_argument("circuit", help="input .blif file ('-' for stdin)")
    p.add_argument("-o", "--output", required=True, help="output .real file")
    p.add_argument("--trace", action="store_true", help="print the replacement trace")
    p.add_argument(
        "--no-restore-controls",
        action="store_true",
        help="use the shorter OR/NOR templates that leave inputs inverted",
    )
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("prep", help="insert COPY gates to remove fanout")
    p.add_argument("circuit")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("slots", help="print the slot table of the prepared circuit")
    p.add_argument("circuit")
    p.set_defaults(func=cmd_slots)

    p = sub.add_parser("verify", help="check a .real against its source .blif")
    p.add_argument("circuit", help="the original .blif")
    p.add_argument("real", help="the reversible .real")
    p.add_argument("--max-exhaustive", type=int, default=12, metavar="N",
                   help="exhaustive up to N primary inputs (default 12, 0 to 24)")
    p.add_argument("--samples", type=int, default=4096, metavar="N",
                   help="assignments to sample above the cap (default 4096)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--max-bijective", type=int, default=16, metavar="N",
                   help="print bijectivity=skipped above N lines (default 16, 0 to 24)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sim", help="evaluate one input assignment")
    p.add_argument("circuit", help=".blif or .real file")
    p.add_argument("--input", required=True, metavar="BITS",
                   help="one bit per primary input, in declaration order")
    p.add_argument("--format", choices=("blif", "real"),
                   help="override the file-extension dispatch")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("stats", help="print line/gate/cost counts of a .real")
    p.add_argument("circuit")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("gen", help="generate a random circuit")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", type=int, required=True)
    p.add_argument("--gates", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


_parser = None


def main(argv=None):
    # built on the first call, not at import, and reused: argparse keeps no
    # state between parse_args calls, and building it costs more than
    # parsing a small circuit
    global _parser
    if _parser is None:
        _parser = build_parser()
    # sound while commands build no cycles (tests/test_gc.py checks); one an
    # error path makes, such as a traceback, is collected after main returns
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except RevmapError as exc:
        print(f"error[{exc.exit_code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error[2]: {exc}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
