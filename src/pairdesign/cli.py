"""Command line front end.

Subcommands:

  dims       parameter-block dimensions for K attributes
  optimize   compute and certify a D-optimal depth weighting
  tables     regenerate the three reference tables from scratch
  verify     certify a design file (JSON document or exported CSV)
  enumerate  dump one comparison-depth orbit as CSV
  hvalues    print the per-depth block informations as exact fractions

Exit codes: 0 ok, 1 ``tables --check`` drift or a reader that closed stdout
early (nothing is printed to stderr then), 2 usage or parse failure, a
malformed design file (a CSV plan must be whole orbits in export order), a
file that cannot be read or written, a plan past ``_MAX_PLAN_ROWS`` rows, an
``optimize`` or ``verify`` past ``_MAX_STRENGTH`` or a ``verify --oracle``
request past the oracle gate or without numpy (one ``error:`` line on
stderr), 3 an ``optimize`` result that fails its certificate (never seen),
4 singular (non-identifiable) design, from any subcommand.
All output is deterministic.  No command picks a tolerance: ``optimize`` and
``verify`` print ``kw_certify(design)``, tol 0 for exact weights, 1e-9 for floats.

Every command runs on the closed forms of ``equivalence`` and ``optimizer``,
imported at module level.  Only the brute-force oracle needs numpy:
``oracle``, which realizes a design as pairs and checks it, is imported
inside ``verify --oracle``.  CSV plans are written and read as text rows of
``design_space``'s orbit order, so every other command, ``enumerate``,
``optimize --export`` and ``verify`` of a plan included, never loads it.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from fractions import Fraction

from .design_space import (
    DepthDesign,
    ModelSpec,
    Weight,
    _orbit_order,
    _OrbitBlock,
    _plan_blocks,
    count_pairs,
    param_dims,
)
from .equivalence import (
    CertificationReport,
    SingularDesignError,
    h_values,
    kw_certify,
    log_det,
    mix_h,
    variance_profile,
)
from .optimizer import conjectured_design, optimal_depth_third_order, optimize_full

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNCERTIFIED = 3
EXIT_SINGULAR = 4

# Rows a written plan may hold (``enumerate``, ``optimize --export``), counted
# before the file is opened: about 8 GB of CSV at K = 12, far above the
# K=S=12 optimum's 2 928 640 rows and the largest plan the tests, demos, CI
# and benchmark write (40 320 rows).
_MAX_PLAN_ROWS = 10**8

# The largest strength S ``optimize`` and ``verify`` accept, checked before any
# work that grows with S: the certificate holds about 180 B per depth, so
# K = S = 10**6 takes about 2 s and 170 MB.
_MAX_STRENGTH = 10**6

# Reference values the --check flag diffs against.  Regeneration never reads
# these; they exist only to flag drift.
EXPECTED_THIRD_ORDER_DEPTHS = {
    4: 1, 5: 1, 6: 1, 7: 1, 8: 2, 9: 2, 10: 2, 11: 3, 12: 3,
}
EXPECTED_TWO_DEPTH_DESIGNS = {
    5: (2, 0.667, 4, 0.333),
    6: (2, 0.714, 5, 0.286),
    7: (2, 0.750, 6, 0.250),
    8: (3, 0.667, 6, 0.333),
    9: (3, 0.700, 7, 0.300),
    10: (3, 0.727, 8, 0.273),
    11: (4, 0.667, 8, 0.333),
    12: (4, 0.692, 9, 0.308),
}
EXPECTED_NORMALIZED_VARIANCES = {
    5: (0.938, 1.000, 0.938, 1.000, 0.938),
    6: (0.850, 1.000, 0.950, 0.950, 1.000, 0.850),
    7: (0.792, 1.000, 0.982, 0.952, 0.982, 1.000, 0.792),
    8: (0.759, 0.998, 1.000, 0.954, 0.954, 1.000, 0.998, 0.759),
    9: (0.693, 0.958, 1.000, 0.966, 0.945, 0.966, 1.000, 0.958, 0.693),
    10: (0.644, 0.925, 1.000, 0.985, 0.958, 0.958, 0.985, 1.000, 0.925, 0.644),
    11: (0.609, 0.901, 0.999, 1.000, 0.973, 0.960, 0.973, 1.000, 0.999, 0.901, 0.609),
    12: (0.566, 0.860, 0.979, 1.000, 0.982, 0.963, 0.963, 0.982, 1.000, 0.979, 0.860, 0.566),
}
# table 3 marks each row at its two-depth design's support (d*, d1*)
_EXPECTED_SUPPORTS = {k: design[::2] for k, design in EXPECTED_TWO_DEPTH_DESIGNS.items()}


def _document_json(report: CertificationReport) -> dict:
    """The JSON design document of ``report``: ``K``, ``S``, ``depth_weights``, ``certification``.

    Explicit pairs travel as a CSV plan, not in the document.
    """
    weights = {}
    for depth, weight in sorted(report.design.weights.items()):
        weights[str(depth)] = {"decimal": float(weight)}
        if isinstance(weight, Fraction):
            weights[str(depth)]["fraction"] = str(weight)
    spec = report.design.spec
    return {
        "K": spec.n_attributes,
        "S": spec.strength,
        "depth_weights": weights,
        "certification": report.to_dict(),
    }


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a repeated key (``json`` would keep the last)."""
    document = {}
    for key, value in pairs:
        if key in document:
            raise ValueError(f"key {key!r} appears twice")
        document[key] = value
    return document


def _read_document(handle) -> tuple[ModelSpec, dict[int, Weight]]:
    """Read a JSON design document into its spec and ``{depth: weight}``.

    Its ``certification`` block is not read.  A key repeated in any object is
    refused, and so is a depth key other than the plain decimal of its depth
    (``"05"``, ``" 5"``, ``"+5"``), so that no weight silently replaces another.
    """
    document = json.load(handle, object_pairs_hook=_unique_keys)
    if "explicit_rows" in document:
        raise ValueError("explicit_rows are not read; verify the plan exported as CSV instead")
    for key in ("K", "S"):
        if type(document[key]) is not int:  # bool is an int subclass
            raise ValueError(f"{key} must be a JSON integer, got {document[key]!r}")
    spec = ModelSpec(document["K"], document["S"])
    weights = {}
    for key, value in document["depth_weights"].items():
        if key != str(int(key)):
            raise ValueError(f"depth key {key!r} is not a plain decimal depth")
        weights[int(key)] = _parse_weight(value, f"depth {key}")
    return spec, weights


def _parse_weight(value, where: str) -> Weight:
    """A document weight: a bare JSON number or string, or {"fraction": ..., "decimal": ...}.

    A bare number goes to ``DepthDesign`` as it is, whose weight rule holds an
    integer exact, a decimal as a float and refuses a bool.  A bare string is
    read as a plan cell is, by ``_parse_weight_text``.  In an object, the
    fraction must be text that rule reads as exact, and the decimal a JSON
    number, read as a float; with both, the fraction is the weight and the
    decimal must be its float.
    """
    if not isinstance(value, dict):
        return _parse_weight_text(value) if isinstance(value, str) else value
    decimal = value.get("decimal")
    if "decimal" in value and type(decimal) not in (int, float):  # a JSON number, not a bool
        raise ValueError(f"{where}: decimal {json.dumps(decimal)} is not a JSON number")
    if "fraction" not in value:
        return float(value["decimal"])
    fraction = value["fraction"]
    weight = _parse_weight_text(fraction) if isinstance(fraction, str) else None
    if not isinstance(weight, Fraction):
        raise ValueError(f"{where}: fraction {json.dumps(fraction)} is not exact fraction text")
    if "decimal" in value and decimal != float(weight):
        raise ValueError(f"{where}: decimal {json.dumps(decimal)} is not {weight}")
    return weight


def _fraction_label(weight: Weight) -> str:
    """Fraction suffix for a weight held as a Fraction, empty otherwise."""
    if isinstance(weight, Fraction):
        return f" ({weight})"
    return ""


def _weight_text(weight: Weight) -> str:
    """Plan weight cell: fraction text for a Fraction, 17 digits otherwise."""
    if isinstance(weight, Fraction):
        return str(weight)
    return f"{float(weight):.17g}"


def _parse_weight_text(text: str) -> Weight:
    """Inverse of ``_weight_text``: integers and ``a/b`` are exact, decimals float."""
    if "/" in text or text.lstrip("+-").isdigit():
        return Fraction(text)
    return float(text)


def _check_strength(spec: ModelSpec) -> None:
    """Refuse a strength S past _MAX_STRENGTH."""
    if spec.strength > _MAX_STRENGTH:
        raise ValueError(f"strength S={spec.strength} exceeds the limit of {_MAX_STRENGTH}")


class _HalfTexts(dict):
    """CSV level fields of one half of a subset's columns, keyed by the half's pattern.

    ``template`` holds ``%s`` at the half's shown columns; the i-th of them
    reads bit ``n_bits - 1 - i`` of the pattern, ``1`` when it is set and
    ``-1`` otherwise.  A text is made the first time it is asked for, so a
    table never holds more than the patterns one orbit block reads, however
    large S is.
    """

    def __init__(self, template: str, n_bits: int) -> None:
        super().__init__()
        self.template, self.bits = template, range(n_bits - 1, -1, -1)

    def __missing__(self, pattern: int) -> str:
        text = self[pattern] = self.template % tuple(
            "1" if pattern >> bit & 1 else "-1" for bit in self.bits
        )
        return text


def _plan_rows(
    n_attributes: int, block: _OrbitBlock, cell: str, first_id: int, end: str
) -> list[str]:
    """One orbit block as CSV plan rows ``pair_id,i_1..i_K,j_1..j_K,cell`` + ``end``.

    Ids count up from ``first_id``.  A profile's K level fields are the text
    of its subset's high half of attributes (the first S // 2, which read
    the high bits of the pattern; every column before the first low one)
    followed by that of the low half, each read from a ``_HalfTexts``.
    """
    s = len(block.subsets[0])
    n_high, n_low = s // 2, s - s // 2
    low_bits = (1 << n_low) - 1
    masks = [sum(1 << (s - 1 - j) for j in flips) for flips in block.flips]
    mask_halves = [(mask >> n_low, mask & low_bits) for mask in masks]
    tail = f",{cell}{end}"
    ids = itertools.count(first_id)
    rows: list[str] = []
    for subset in block.subsets:
        shown = dict.fromkeys(subset, "%s")
        split = subset[n_high]
        high = _HalfTexts("".join(shown.get(c, "0") + "," for c in range(split)), n_high)
        low = _HalfTexts(",".join(shown.get(c, "0") for c in range(split, n_attributes)), n_low)
        firsts = [
            (f",{high[h]}{low[l]},", h, l)
            for h, l in ((pattern >> n_low, pattern & low_bits) for pattern in block.patterns)
        ]
        # ids last: zip stops on the exhausted product without taking one more
        rows += [
            f"{i}{head}{high[h ^ mh]}{low[l ^ ml]}{tail}"
            for ((head, h, l), (mh, ml)), i in zip(itertools.product(firsts, mask_halves), ids)
        ]
    return rows


def _plan_header(n_attributes: int) -> str:
    """A plan's header line ``pair_id,i_1..i_K,j_1..j_K,weight``, without its line ending."""
    columns = [f"{side}_{n}" for side in "ij" for n in range(1, n_attributes + 1)]
    return ",".join(["pair_id", *columns, "weight"])


def _write_plan_csv(handle, n_attributes: int, blocks) -> int:
    """Write ``_plan_blocks`` blocks, one ``_weight_text`` cell each; returns the row count.

    Rows end in CRLF, as the ``csv`` module writes them.  They are written
    line by line: a write larger than the stream's buffer can be cut short
    without an error (a reader that closed the pipe, a full disk), and a
    later small write then raises.
    """
    handle.write(_plan_header(n_attributes) + "\r\n")
    n_rows = 0
    for block, weight in blocks:
        handle.writelines(_plan_rows(n_attributes, block, _weight_text(weight), n_rows + 1, "\r\n"))
        n_rows += block.n_rows
    return n_rows


def _write_plan(path: str | None, design: DepthDesign) -> int:
    """Write ``design``'s plan to ``path``, or to stdout when it is None; returns the row count.

    A plan past _MAX_PLAN_ROWS rows is refused before anything is opened.
    """
    n_rows = sum(count_pairs(design.spec, d) for d in design.support)
    if n_rows > _MAX_PLAN_ROWS:
        raise ValueError(f"a plan of {n_rows} rows exceeds the limit of {_MAX_PLAN_ROWS} rows")
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as out:
        return _write_plan_csv(out, design.spec.n_attributes, _plan_blocks(design))


def _plan_segments(path: str):
    """Read an exported plan: yield its spec, then ``(depth, weight)`` per segment.

    The header must be ``_plan_header(K)``, K read from its field count, and
    S comes from the first row, yielded before the second row is read.  Each
    depth segment, in ascending order, must equal the ``_orbit_order(spec,
    depth)`` rows as ``_plan_rows`` renders them, pair ids included, one
    block at a time, with one weight cell c: it is the depth weight c * N_d,
    exact when c is (the inverse of ``_plan_blocks``'s row weight w_d / N_d).
    Any line ending is accepted.  A row that differs is named, by its field
    count when that is not 2 + 2K (a row's weight cell is its text after the
    last comma).
    """
    with open(path) as handle:
        header = handle.readline().removesuffix("\n")
        k = (header.count(",") - 1) // 2
        if header != _plan_header(k):
            raise ValueError(f"{path} does not look like an exported plan")

        def check_fields(line: str, row: int) -> None:
            if line.count(",") + 1 != 2 + 2 * k:
                raise ValueError(f"row {row} has {line.count(',') + 1} fields, not {2 + 2 * k}")

        n_read, previous, spec = 0, -1, None
        while line := handle.readline():
            check_fields(line, n_read + 1)
            levels = [int(v) for v in line.split(",")[1 : 1 + 2 * k]]
            if spec is None:
                spec = ModelSpec(k, sum(1 for v in levels[:k] if v))
                yield spec
            depth = sum(1 for a, b in zip(levels[:k], levels[k:]) if a != b)
            if depth <= previous:
                raise ValueError(f"row {n_read + 1}: depth {depth} segment after depth {previous}")
            rows, cell = itertools.chain([line], handle), line.rpartition(",")[2].rstrip("\n")
            for block in _orbit_order(spec, depth):
                lines = list(itertools.islice(rows, block.n_rows))
                if len(lines) < block.n_rows:
                    raise ValueError(f"the depth {depth} segment stops inside its orbit")
                if not lines[-1].endswith("\n"):  # the file's last line
                    lines[-1] += "\n"
                expected = _plan_rows(k, block, cell, n_read + 1, "\n")
                if lines != expected:
                    bad = next(i for i, (a, b) in enumerate(zip(lines, expected)) if a != b)
                    check_fields(lines[bad], n_read + bad + 1)
                    raise ValueError(
                        f"row {n_read + bad + 1} is not the depth {depth} orbit's next row "
                        f"at weight {cell}"
                    )
                n_read += block.n_rows
            yield depth, _parse_weight_text(cell) * count_pairs(spec, depth)
            previous = depth
        if spec is None:
            raise ValueError(f"{path} contains no rows")


@contextlib.contextmanager
def _parsing(path: str):
    """Re-raise a failure to read a design file as ValueError ``cannot parse PATH``."""
    try:
        yield
    except (OSError, ValueError, ArithmeticError, LookupError, TypeError, AttributeError) as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc


def cmd_dims(args: argparse.Namespace) -> int:
    print(" ".join(str(v) for v in param_dims(args.k)))
    return EXIT_OK


def _print_optimize_text(report: CertificationReport) -> None:
    spec = report.design.spec
    print(f"K={spec.n_attributes} S={spec.strength} p={spec.n_params}")
    print("support: " + " ".join(str(d) for d in report.support))
    for depth in report.support:
        weight = report.design.weights[depth]
        print(f"  d={depth}  w={float(weight):.3f}{_fraction_label(weight)}")
    print(f"log det: {log_det(mix_h(report.design)):.12f}")
    excess = f"max excess {float(report.max_excess):.3e}"
    if report.certified:
        print(f"certified D-optimal: {excess} (tol {report.tol:g} relative to p)")
    else:
        half = "" if report.support_ok else " (support condition violated)"
        print(f"NOT certified at tol {report.tol:g} relative to p: {excess}{half}")


def cmd_optimize(args: argparse.Namespace) -> int:
    spec = ModelSpec(args.k, args.s)
    _check_strength(spec)
    report = optimize_full(spec)
    if args.export:
        n_rows = _write_plan(args.export, report.design)
        if not args.json:
            print(f"exported {n_rows} rows to {args.export}")
    if args.json:
        print(json.dumps(_document_json(report), indent=2, sort_keys=True))
    else:
        _print_optimize_text(report)
    return EXIT_OK if report.certified else EXIT_UNCERTIFIED


def _table_1() -> dict[int, int]:
    return {s: min(optimal_depth_third_order(s)) for s in range(4, 13)}


def _table_2() -> dict[int, tuple[int, float, int, float]]:
    table = {}
    for s in range(5, 13):
        design = optimize_full(ModelSpec(s, s)).design
        d_low, d_high = design.support
        table[s] = (d_low, float(design.weights[d_low]), d_high, float(design.weights[d_high]))
    return table


def _table_3() -> tuple[dict[int, tuple[float, ...]], dict[int, tuple[int, ...]]]:
    rows, supports = {}, {}
    for k in range(5, 13):
        spec = ModelSpec(k, k)
        design = conjectured_design(spec)
        normalized = variance_profile(design).normalized()
        rows[k], supports[k] = tuple(normalized[d] for d in spec.depths), design.support
    return rows, supports


def _render_table_1(table: dict[int, int]) -> str:
    strengths = sorted(table)
    lines = [
        "S   " + "".join(f"{s:>4d}" for s in strengths),
        "d*  " + "".join(f"{table[s]:>4d}" for s in strengths),
    ]
    return "\n".join(lines)


def _render_table_2(table: dict[int, tuple[int, float, int, float]]) -> str:
    strengths = sorted(table)
    rows = [
        ("S", [f"{s:d}" for s in strengths]),
        ("d*", [f"{table[s][0]:d}" for s in strengths]),
        ("w*", [f"{table[s][1]:.3f}" for s in strengths]),
        ("d1*", [f"{table[s][2]:d}" for s in strengths]),
        ("w1*", [f"{table[s][3]:.3f}" for s in strengths]),
    ]
    return "\n".join(label.ljust(4) + "".join(f"{v:>7s}" for v in row) for label, row in rows)


def _render_table_3(table: tuple[dict[int, tuple[float, ...]], dict[int, tuple[int, ...]]]) -> str:
    rows, supports = table
    max_depth = max(len(row) for row in rows.values())
    lines = ["K\\d " + "".join(f"{d:>7d}" for d in range(1, max_depth + 1))]
    for k in sorted(rows):
        cells = []
        for d, value in enumerate(rows[k], start=1):
            mark = "*" if d in supports[k] else " "
            cells.append(f"{value:>6.3f}{mark}")
        lines.append(f"{k:<4d}" + "".join(cells))
    lines.append("(* marks the supported depths)")
    return "\n".join(lines)


# which: (compute, render, reference).  ``--check`` renders the reference
# with the table's own renderer.
_TABLES = {
    1: (_table_1, _render_table_1, EXPECTED_THIRD_ORDER_DEPTHS),
    2: (_table_2, _render_table_2, EXPECTED_TWO_DEPTH_DESIGNS),
    3: (_table_3, _render_table_3, (EXPECTED_NORMALIZED_VARIANCES, _EXPECTED_SUPPORTS)),
}


def cmd_tables(args: argparse.Namespace) -> int:
    compute, render, reference = _TABLES[args.which]
    text = render(compute())
    print(text)
    if args.check:
        expected = render(reference).splitlines()
        rows = itertools.zip_longest(text.splitlines(), expected, fillvalue="")
        failures = [(got, want) for got, want in rows if got != want]
        for got, want in failures:
            print(f"check FAILED: {got!r}, expected {want!r}", file=sys.stderr)
        if failures:
            return 1
        print("check: OK")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    with _parsing(args.design):
        if args.design.endswith(".csv"):
            weights = _plan_segments(args.design)
            spec = next(weights)
        else:
            with open(args.design) as handle:
                spec, weights = _read_document(handle)
    _check_strength(spec)  # for a plan, before its second row is read
    if args.oracle:
        try:
            from .oracle import (
                _check_oracle_gate,
                info_matrix_exact,
                realize_design,
                variance_sweep_max_deviation,
            )
        except ImportError as exc:
            raise ValueError("verify --oracle needs numpy (pip install numpy)") from exc
        _check_oracle_gate(spec)
    with _parsing(args.design):
        design = DepthDesign(dict(weights), spec)
    print(kw_certify(design).to_text())
    if args.oracle:
        # an accepted plan's rows are the realized rows, in the file's order
        dense = info_matrix_exact(realize_design(design))
        block = mix_h(design).as_matrix()
        block_dev = float(abs(dense.entries - block).max())
        variance_dev = variance_sweep_max_deviation(design, info=dense)
        print(f"oracle block deviation: {block_dev:.3e}")
        print(f"oracle variance deviation: {variance_dev:.3e}")
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    spec = ModelSpec(args.k, args.s)
    if not 1 <= args.d <= spec.strength:
        raise ValueError(
            f"--d must lie in 1..{spec.strength} (depth 0 carries no information), got {args.d}"
        )
    _write_plan(args.out or None, DepthDesign.point_mass(spec, args.d))
    return EXIT_OK


def cmd_hvalues(args: argparse.Namespace) -> int:
    spec = ModelSpec(args.k, args.s)
    print(f"K={spec.n_attributes} S={spec.strength}")
    print("d   " + "".join(f"{name:>10s}" for name in ("h1", "h2", "h3", "h4")))
    for depth in range(0, spec.strength + 1):
        values = h_values(spec, depth).values
        print(f"{depth:<4d}" + "".join(f"{str(Fraction(v)):>10s}" for v in values))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairdesign",
        description="D-optimal designs for two-level paired comparison experiments",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    dims = subparsers.add_parser("dims", help="parameter-block dimensions")
    dims.add_argument("--k", type=int, required=True, help="number of attributes")
    dims.set_defaults(handler=cmd_dims)

    optimize = subparsers.add_parser("optimize", help="compute a D-optimal design")
    optimize.add_argument("--k", type=int, required=True, help="number of attributes")
    optimize.add_argument("--s", type=int, required=True, help="profile strength")
    optimize.add_argument("--json", action="store_true", help="emit a JSON design document")
    optimize.add_argument("--export", metavar="FILE", help="write explicit pair rows as CSV")
    optimize.set_defaults(handler=cmd_optimize)

    tables = subparsers.add_parser("tables", help="regenerate a reference table")
    tables.add_argument("which", type=int, choices=tuple(_TABLES))
    tables.add_argument("--check", action="store_true", help="diff against embedded values")
    tables.set_defaults(handler=cmd_tables)

    verify = subparsers.add_parser("verify", help="certify a design file")
    verify.add_argument("design", help="JSON document or exported CSV plan")
    verify.add_argument(
        "--oracle", action="store_true",
        help="also cross-check closed forms against the brute-force oracle",
    )
    verify.set_defaults(handler=cmd_verify)

    enumerate_cmd = subparsers.add_parser("enumerate", help="dump one depth orbit as CSV")
    enumerate_cmd.add_argument("--k", type=int, required=True)
    enumerate_cmd.add_argument("--s", type=int, required=True)
    enumerate_cmd.add_argument("--d", type=int, required=True, help="comparison depth, 1..S")
    enumerate_cmd.add_argument("--out", metavar="FILE", help="write to a file instead of stdout")
    enumerate_cmd.set_defaults(handler=cmd_enumerate)

    hvalues_cmd = subparsers.add_parser("hvalues", help="per-depth block informations")
    hvalues_cmd.add_argument("--k", type=int, required=True)
    hvalues_cmd.add_argument("--s", type=int, required=True)
    hvalues_cmd.set_defaults(handler=cmd_hvalues)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # flush at interpreter exit cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        # after BrokenPipeError, which is an OSError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SingularDesignError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SINGULAR
    return code


if __name__ == "__main__":
    sys.exit(main())
