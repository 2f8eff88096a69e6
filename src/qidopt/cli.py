"""Command-line driver: database generation, optimization, verification,
counting, and database inspection.

stdout carries machine-parsable `key: value` lines; human-oriented notes go
to stderr. Exit codes: 0 success, 1 verify mismatch, 2 bad configuration or
input, 3 resource guard (a build, or a dense check, over its byte budget),
4 post-optimization residual over tolerance.
`optimize` and `verify` share one residual (`optimizer.check_residual`),
computed from the two circuits' gate lists: the Frobenius norm of the
difference of their unitaries on the gates they do not share, an upper
bound on their max-abs difference. `count` refuses a total with more
digits than Python prints (`_count_digits`), from a lower bound before
counting its layers, and exactly before raising their count to the depth.
"""

from __future__ import annotations

import argparse
import decimal
import os
import sys
import time
from collections import Counter
from fractions import Fraction

from . import database, generator, optimizer, qasm
from .circuit import gate_list, layer_count
from .gates import (
    BUILTIN_GATES,
    CX,
    AngleExpr,
    GateSet,
    I,
    gate_from_name,
    instantiate_param_gate,
)
from .gates import U1 as U1_TMPL
from .gates import U2 as U2_TMPL
from .gates import U3 as U3_TMPL

MAX_CIRCUITS_ENV = "QUANTO_MAX_CIRCUITS"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_RESIDUAL = 4


def _pi(num, den=1) -> AngleExpr:
    return AngleExpr(pi_coeff=Fraction(num, den))


def _preset_ibm_legacy() -> list:
    u1_angles = [_pi(1), _pi(1, 2), _pi(-1, 2), _pi(1, 4), _pi(-1, 4)]
    gates = [I]
    gates += [instantiate_param_gate(U1_TMPL, [a]) for a in u1_angles]
    gates.append(instantiate_param_gate(U2_TMPL, [_pi(0), _pi(1)]))
    gates.append(instantiate_param_gate(U3_TMPL, [_pi(1), _pi(0), _pi(1)]))
    gates.append(CX)
    return gates


PRESETS: dict[str, callable] = {
    "standard": lambda: [BUILTIN_GATES[n] for n in
                         ("I", "X", "Y", "Z", "H", "S", "SDG", "T", "TDG", "CX")],
    "ibm-legacy": _preset_ibm_legacy,
}


def _with_identity(gates: list) -> GateSet:
    """The gates as a gate set, led by the builtin I when none is the Identity."""
    if not any(g.is_identity for g in gates):
        gates = [I, *gates]
    return GateSet(gates)


def parse_gate_set(spec: str) -> GateSet:
    """Comma-separated gate names, or a preset id."""
    if spec in PRESETS:
        return GateSet(PRESETS[spec]())
    names = [tok.strip() for tok in spec.split(",") if tok.strip()]
    if not names:
        raise ValueError("empty gate list")
    return _with_identity([gate_from_name(name) for name in names])


def _out(key: str, value) -> None:
    print(f"{key}: {value}")


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _max_circuits() -> int:
    raw = os.environ.get(MAX_CIRCUITS_ENV)
    if raw is None:
        return generator.DEFAULT_MAX_CIRCUITS
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"{MAX_CIRCUITS_ENV} must be a positive integer, got {raw!r}")
    return limit


def cmd_gen_db(args) -> int:
    cfg = generator.GeneratorConfig(
        n=args.qubits,
        d=args.depth,
        gate_set=parse_gate_set(args.gates),
        dp=args.dp,
        neighbors_only=args.neighbors_only,
        max_circuits=_max_circuits(),
    )
    start = time.perf_counter()
    db = generator.build_database(cfg)
    build_s = time.perf_counter() - start
    database.save(db, args.out)
    _out("circuits", db.total_circuits)
    _out("fingerprints", len(db.by_fingerprint))
    hist = Counter(map(len, db.by_fingerprint.values()))
    for size in sorted(hist):
        _out(f"buckets_of_size_{size}", hist[size])
    _out("out", args.out)
    _out("build_s", f"{build_s:.6f}")
    _out("circuits_per_s", f"{db.total_circuits / build_s:.1f}")
    return EXIT_OK


def _load_or_build_db(args, grid) -> database.IdentityDatabase:
    if args.db is not None:
        db = database.load(args.db)
        # on at most 2 qubits every pair is adjacent, whatever the header says
        if args.neighbors_only and not db.meta.neighbors_only and db.meta.n > 2:
            raise ValueError(
                f"{args.db} has non-adjacent pairs: build it with gen-db --neighbors-only"
            )
        return db
    # combined generate-and-optimize path; detect gates when not given
    if args.gates is not None:
        gs = parse_gate_set(args.gates)
    else:
        seen: dict[str, object] = {}
        for layer in grid.layers:
            for cell in layer:
                seen.setdefault(cell.gate.name, cell.gate)
        gs = _with_identity(list(seen.values()))
        _note(f"auto-detected gate set: {', '.join(g.name for g in gs.gates)}")
    cfg = generator.GeneratorConfig(
        n=args.qubits if args.qubits is not None else min(grid.n, 3),
        d=args.depth,
        gate_set=gs,
        dp=args.dp,
        neighbors_only=args.neighbors_only,
        max_circuits=_max_circuits(),
    )
    return generator.build_database(cfg)


def cmd_optimize(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        grid = qasm.parse(fh.read())
    db = _load_or_build_db(args, grid)
    spec = optimizer.TileSpec(
        args.tile_qubits if args.tile_qubits is not None else db.meta.n,
        args.tile_depth if args.tile_depth is not None else db.meta.d,
    )
    result, report = optimizer.optimize(grid, db, spec, iters=args.iterations)

    text = qasm.emit(result)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        _out("out", args.out)
    else:
        sys.stdout.write(text)

    _out("initial_depth", report.initial_depth)
    _out("final_depth", report.final_depth)
    _out("substitutions", len(report.substitutions))
    _out("cancels", report.cancels)
    _out("merges", report.merges)
    _out("commutes", report.commutes)
    _out("iterations", report.iterations)
    _out("collisions_skipped", report.collisions_skipped)
    _out("residual", f"{report.residual:.3e}")
    _out("check_s", f"{report.check_s:.6f}")
    if report.residual > args.tolerance:
        _note(
            f"warning: residual {report.residual:.3e} exceeds tolerance "
            f"{args.tolerance:.3e}; output written but flagged"
        )
        return EXIT_RESIDUAL
    return EXIT_OK


def cmd_verify(args) -> int:
    grids = []
    for path in (args.a, args.b):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                grids.append(qasm.parse(fh.read()))
        except (OSError, ValueError) as e:
            _note(f"error: {path}: {e}")
            return EXIT_CONFIG
    a, b = grids
    if a.n != b.n:
        _note(f"error: qubit counts differ ({a.n} vs {b.n})")
        return EXIT_CONFIG
    residual, _ = optimizer.check_residual(gate_list(a), gate_list(b), a.n)
    _out("residual", f"{residual:.3e}")
    _out("equal", "true" if residual <= args.tolerance else "false")
    return EXIT_OK if residual <= args.tolerance else EXIT_VERIFY_FAILED


def _count_digits(base: int, exp: int) -> int:
    """The decimal digits of base**exp, without computing it: exact, from
    a logarithm carried to more places than exp has digits."""
    if base < 2 or exp < 1:
        return 1
    with decimal.localcontext() as ctx:
        ctx.prec = len(str(exp)) + 30
        return int(decimal.Decimal(base).log10() * exp) + 1


def cmd_count(args) -> int:
    n, d, g, t = args.qubits, args.depth, args.g, args.t
    if n < 1 or d < 1 or g < 0 or t < 0:
        raise ValueError("need n >= 1, d >= 1, g >= 0, t >= 0")
    # Python refuses to print an int past this many digits (0: no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    # a lower bound first, so no huge n is counted: (g² + 2t)^⌊n/2⌋ layers put a pair
    # or two singles on each of (0, 1), (2, 3), …, unless g = 0 and n is odd
    digits = _count_digits(g * g + 2 * t, n // 2 * d) if g or n % 2 == 0 else 1
    if digits <= limit:
        per_layer = layer_count(n, g, t, False)
        digits = _count_digits(per_layer, d)
    if digits > limit:
        raise ValueError(f"total_circuits would have at least {digits} digits; at most {limit} can be printed")
    _out("layer_circuits", per_layer)
    _out("total_circuits", per_layer**d)
    return EXIT_OK


def cmd_stats(args) -> int:
    db = database.load(args.db)
    meta = db.meta
    _out("format", database.FORMAT_VERSION)
    _out("digest", database.DIGEST_ALGORITHM)
    _out("convention", database.CONVENTION)
    _out("n", meta.n)
    _out("d", meta.d)
    _out("dp", meta.dp)
    _out("neighbors_only", "true" if meta.neighbors_only else "false")
    _out("gates", ",".join(g.name for g in meta.gate_set.gates))
    _out("circuits", db.total_circuits)
    _out("buckets", len(db.by_fingerprint))
    largest = max(db.by_fingerprint.values(), key=len, default=())
    _out("largest_bucket", len(largest))
    # the first bucket in file order (by fingerprint hex) with two members
    shared = [(fp.hex, encs) for fp, encs in db.by_fingerprint.items() if len(encs) > 1]
    if shared:
        _, example = min(shared)
        _out("example_identity", f"{example[0]} == {example[1]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qidopt",
        description="Quantum-circuit superoptimizer: identity databases and "
        "tile-based depth reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-db", help="enumerate circuits and write a QIDB file")
    p.add_argument("--gates", required=True, help="comma-separated names or a preset "
                   f"({', '.join(PRESETS)})")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--dp", type=int, default=8, help="decimal precision (default 8)")
    p.add_argument("--neighbors-only", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_db)

    p = sub.add_parser("optimize", help="optimize a QASM circuit against a database")
    p.add_argument("input", help="input QASM file")
    p.add_argument("--db", help="QIDB file; omit to generate one on the fly")
    p.add_argument("--gates", help="gate set for on-the-fly generation "
                   "(default: auto-detect from the input)")
    p.add_argument("--qubits", type=int, help="identity qubits for on-the-fly "
                   "generation (default: min(input, 3))")
    p.add_argument("--depth", type=int, default=3,
                   help="identity depth for on-the-fly generation (default 3)")
    p.add_argument("--dp", type=int, default=8)
    p.add_argument("--tile-qubits", type=int, help="tile height, at most db n (default: db n)")
    p.add_argument("--tile-depth", type=int, help="tile width, at most db d (default: db d); "
                   "a smaller tile is matched padded with Identity to the db's n x d shape")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--neighbors-only", action="store_true",
                   help="generate a neighbours-only database; with --db, the file must "
                   "be built by gen-db --neighbors-only (or have at most 2 qubits)")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--out", help="output QASM file (default: stdout)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="compare the unitaries of two QASM files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="evaluate the enumeration-size formula")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--g", type=int, required=True,
                   help="arity-1 gate count, Identity included")
    p.add_argument("--t", type=int, required=True, help="arity-2 gate count")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("stats", help="inspect a QIDB file")
    p.add_argument("db")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (generator.ResourceGuardError, optimizer.CheckSpanError) as e:
        _note(f"error: {e}")
        return EXIT_RESOURCE
    except (OSError, ValueError) as e:  # bad input, or an unwritable --out path
        _note(f"error: {e}")
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())
