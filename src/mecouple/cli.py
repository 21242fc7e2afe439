"""Command-line front end.

Vectors are read from file paths, from stdin (``-``), or inline; the format
is auto-detected from the first non-space byte: ``[`` means a JSON array of
numbers, anything else plain whitespace-separated decimals. All probabilities
are printed with 12 significant digits. A JSON document is encoded one
top-level value at a time by the C encoder (``json.dumps``), except a
coupling matrix, which renders itself from its nonzero cells, each formatted
once (see ``_Cells``); the pieces are joined and written whole, so an
encoding error leaves nothing on stdout. Exit codes: 0 success, 1 validation
or internal error (the machine-readable error code goes to stderr), 2 usage
error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import NamedTuple, Sequence

import numpy as np

from .errors import Empty, InstanceTooLarge, MecoupleError, ValidationError
from .lattice import glb
from .multiway import DENSE_CELL_CAP, k_min_entropy_coupling
from .oracle import DEFAULT_SIZE_CAP, exact_min_entropy
from .pairwise import MATRIX_CELL_CAP, _scatter, bounds, distance_interval, min_entropy_coupling
from .probvec import DEFAULT_TOL, ProbVec, Tolerances, entropy, make_probvec

ENV_TOLERANCE_SUM = "MECOUPLE_TOLERANCE_SUM"
ENV_TOLERANCE_ZERO = "MECOUPLE_TOLERANCE_ZERO"


def _sig(x: float) -> float:
    """Round to 12 significant digits for stable, diffable output."""
    return float(f"{float(x):.12g}")


def _load(source: str, tol: Tolerances) -> ProbVec:
    """The distribution read from a file path, "-" for stdin, or inline text."""
    try:
        if source == "-":
            text = sys.stdin.read()
        elif os.path.exists(source):
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = source
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, bytes not UTF-8
        raise ValidationError(f"cannot read {source!r}: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        raise Empty("empty vector input")
    if stripped[0] == "[":
        try:
            data = json.loads(stripped)
        except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
            raise ValidationError(f"unparseable JSON vector: {exc}") from exc
        except RecursionError as exc:
            raise ValidationError("JSON vector is nested too deeply") from exc
        # json.loads yields exact types only, so bool (an int subclass) is
        # refused along with str, None, list and dict
        if not isinstance(data, list) or not (kinds := set(map(type, data))) <= {int, float}:
            raise ValidationError("JSON vector must be an array of numbers")
        try:
            raw = data if kinds <= {float} else [float(v) for v in data]
        except OverflowError as exc:
            raise ValidationError(f"JSON integer too large for a float: {exc}") from exc
    else:
        try:
            raw = [float(tok) for tok in stripped.split()]
        except ValueError as exc:
            raise ValidationError(f"unparseable numeric token: {exc}") from exc
    return make_probvec(raw, tol)


def _tolerance_flag(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"tolerance must lie in (0, 1): {text!r}")
    return value


def _cap_flag(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"cap must be non-negative: {text!r}")
    return value


def _resolve_tolerances(args: argparse.Namespace) -> Tolerances:
    def pick(flag_value, env_name, default):
        if flag_value is not None:
            return flag_value
        env = os.environ.get(env_name)
        if env is None:
            return default
        try:
            return _tolerance_flag(env)
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"{env_name}: {exc}") from exc

    eps_sum = pick(args.tolerance_sum, ENV_TOLERANCE_SUM, DEFAULT_TOL.eps_sum)
    eps_zero = pick(args.tolerance_zero, ENV_TOLERANCE_ZERO, DEFAULT_TOL.eps_zero)
    try:
        return Tolerances(eps_sum=eps_sum, eps_zero=eps_zero)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _json_number(text: str) -> str:
    """What the C JSON encoder writes for float(text), text a .12g format.

    A 12-digit text is the shortest repr of the float it parses to, so it is
    that repr as it stands, with ".0" added to an integer's digits. repr
    differs in two ranges: it is shorter for a subnormal (5e-324, not
    4.94065645841e-324) and positional in [1e12, 1e16) (1500000000000.0,
    not 1.5e+12); those, and any text not recognised here, take repr itself.
    """
    _, e, exponent = text.partition("e")
    if not e:
        if "." in text:
            return text
        if text.isdigit():
            return text + ".0"
    elif exponent[0] == "-" and (len(exponent) == 3 or exponent < "-308"):
        return text  # a negative exponent above the subnormal range
    return repr(float(text))


class _Cells(NamedTuple):
    """An n_rows x n_cols matrix that is 0.0 except at the listed cells.

    rows, cols and texts are parallel lists in row-major order; texts holds
    each cell's value formatted once, to 12 significant digits (.12g), which
    the text form prints as it stands and the JSON form nearly so (see
    _json_number). Each rendering builds one all-zero row string and splices
    the cells into it, so a matrix costs O(n_rows + cells) string operations.
    """

    n_rows: int
    n_cols: int
    rows: list[int]
    cols: list[int]
    texts: list[str]

    def _lines(self, zero: str, sep: str, head: str, tail: str, texts: list[str]) -> list[str]:
        blank = head + sep.join([zero] * self.n_cols) + tail
        lines = [blank] * self.n_rows
        width, stride, offset = len(zero), len(zero) + len(sep), len(head)
        # cell j of a row is blank[start:start + width]
        starts = [offset + stride * j for j in self.cols]
        k = 0
        for i, cells in itertools.groupby(self.rows):
            pieces, pos = [], 0
            for _ in cells:
                pieces += (blank[pos:starts[k]], texts[k])
                pos = starts[k] + width
                k += 1
            pieces.append(blank[pos:])
            lines[i] = "".join(pieces)
        return lines

    def json_rows(self) -> list[str]:
        """Each row as compact JSON."""
        # the common case, a positional text with a point, is its own JSON
        # number; testing it inline saves a call per cell
        texts = [t if "e" not in t and "." in t else _json_number(t) for t in self.texts]
        return self._lines("0.0", ",", "[", "]", texts)

    def text(self) -> str:
        """The rows as --format text prints them: indented, space-separated, %.12g."""
        return "".join(self._lines("0", " ", "  ", "\n", self.texts))


def _cells(n_rows: int, n_cols: int, rows, cols, vals, perms) -> _Cells:
    """The printed n_rows x n_cols window of sorted-order cells, mapped through perms if given."""
    if perms is not None:
        rows, cols = perms[0][rows], perms[1][cols]
    # trimmed to the caller's window like the dense matrix: padding rows and
    # columns hold at most eps_sum of mass
    keep = (rows < n_rows) & (cols < n_cols)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.argsort(rows * n_cols + cols)
    return _Cells(n_rows, n_cols, rows[order].tolist(), cols[order].tolist(),
                  [format(v, ".12g") for v in vals[order].tolist()])


def _cmd_glb(args, tol, u) -> dict:
    p = _load(args.p, tol)
    q = _load(args.q, tol)
    z = glb(p, q, tol).meet
    return {
        "glb": [_sig(v) for v in z.values.tolist()],
        "entropy": _sig(entropy(z) * u),
        "unit": args.base,
    }


def _cmd_couple(args, tol, u) -> dict:
    p = _load(args.p, tol)
    q = _load(args.q, tol)
    cells = p.n * q.n
    if cells > MATRIX_CELL_CAP:
        raise InstanceTooLarge(f"coupling matrix needs {cells} cells, cap is {MATRIX_CELL_CAP}")
    cm = min_entropy_coupling(p, q, tol)
    perms = None if args.sorted else (cm.row_perm, cm.col_perm)
    h_m = cm.entropy()
    h_z = entropy(glb(p, q, tol).meet)
    return {
        "order": "sorted" if args.sorted else "original",
        "rows": p.n,
        "cols": q.n,
        "matrix": _cells(p.n, q.n, cm.rows, cm.cols, cm.vals, perms),
        "joint_entropy": _sig(h_m * u),
        "glb_entropy": _sig(h_z * u),
        "gap": _sig((h_m - h_z) * u),
        "nnz": cm.nnz,
        "unit": args.base,
    }


def _cmd_couple_k(args, tol, u) -> dict:
    ps = [_load(src, tol) for src in args.marginals]
    joint = k_min_entropy_coupling(ps, tol)
    meet = ps[0]
    for other in ps[1:]:
        meet = glb(meet, other, tol).meet
    h_meet = entropy(meet)
    ceil_log_k = (joint.k - 1).bit_length()
    doc = {
        "k": joint.k,
        "dims": list(joint.dims),
        "entries": [
            {"value": _sig(v), "indices": c}
            for v, c in zip(joint.values.tolist(), joint.coords.T.tolist())
        ],
        "joint_entropy": _sig(joint.entropy() * u),
        "glb_entropy": _sig(h_meet * u),
        "bound": _sig((h_meet + ceil_log_k) * u),
        "unit": args.base,
    }
    if args.dense:
        # every other cell is 0.0, which _sig keeps, so only the values need rounding
        rounded = np.array([_sig(v) for v in joint.values.tolist()])
        doc["dense"] = _scatter(joint.dims, tuple(joint.coords), rounded, args.dense_cap).tolist()
    return doc


def _cmd_bounds(args, tol, u) -> dict:
    p = _load(args.p, tol)
    q = _load(args.q, tol)
    rep = bounds(p, q, tol)
    return {
        "h_p": _sig(rep.h_p * u),
        "h_q": _sig(rep.h_q * u),
        "h_glb": _sig(rep.h_glb * u),
        "mi_upper_improved": _sig(rep.mi_upper_improved * u),
        "mi_upper_classic": _sig(rep.mi_upper_classic * u),
        "joint_lower_classic": _sig(rep.joint_lower_classic * u),
        "unit": args.base,
    }


def _cmd_distance(args, tol, u) -> dict:
    p = _load(args.p, tol)
    q = _load(args.q, tol)
    interval = distance_interval(p, q, tol)
    return {
        "lower": _sig(interval.lower * u),
        "upper": _sig(interval.upper * u),
        "estimate": _sig(interval.estimate * u),
        "unit": args.base,
    }


def _cmd_oracle(args, tol, u) -> dict:
    p = _load(args.p, tol)
    q = _load(args.q, tol)
    opt, vc = exact_min_entropy(p, q, tol, cap=args.cap)
    rows, cols = np.nonzero(vc.matrix)
    perms = None if args.sorted else (p.perm, q.perm)
    return {
        "opt_entropy": _sig(opt * u),
        "order": "sorted" if args.sorted else "original",
        "matrix": _cells(*vc.matrix.shape, rows, cols, vc.matrix[rows, cols], perms),
        "support_size": vc.support_size,
        "unit": args.base,
    }


def _to_json(doc: dict) -> str:
    """The document as one line of compact JSON, newline included.

    Every top-level value but a matrix goes through the C encoder; a matrix's
    rows go straight into the one final join, not through a string of their
    own, which would hold a second copy of the largest part of the output.
    """
    pieces = []
    for key, value in doc.items():
        pieces += (",", json.dumps(key), ":")
        if isinstance(value, _Cells):
            pieces.append("[")
            for row in value.json_rows():
                pieces += (row, ",")
            pieces[-1] = "]"
        else:
            pieces.append(json.dumps(value, separators=(",", ":")))
    pieces[0] = "{"  # in place of the first key's comma
    pieces.append("}\n")
    return "".join(pieces)


def _emit_text(doc: dict, out) -> None:
    def fmt(v):
        return f"{v:.12g}" if isinstance(v, float) else str(v)

    for key, value in doc.items():
        if key == "dense":
            out.write(f"dense: {json.dumps(value)}\n")
        elif key == "matrix":
            out.write("matrix:\n")
            out.write(value.text())
        elif key == "entries":
            out.write("entries:\n")
            for e in value:
                joined = ",".join(str(i) for i in e["indices"])
                out.write(f"  {fmt(e['value'])} @ ({joined})\n")
        elif isinstance(value, list):
            out.write(f"{key}: " + " ".join(fmt(v) for v in value) + "\n")
        else:
            out.write(f"{key}: {fmt(value)}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mecouple",
        description="Minimum-entropy couplings, majorization bounds, and an exact oracle.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--base", choices=("bits", "nats"), default="bits",
                        help="display unit for entropies (guarantees are stated in bits)")
    parser.add_argument("--tolerance-sum", type=_tolerance_flag, default=None,
                        help=f"mass-total tolerance (env {ENV_TOLERANCE_SUM})")
    parser.add_argument("--tolerance-zero", type=_tolerance_flag, default=None,
                        help=f"zero-clamp tolerance (env {ENV_TOLERANCE_ZERO})")
    sub = parser.add_subparsers(dest="command", required=True)

    def vec_args(sp):
        sp.add_argument("p", help="vector: file path, '-' for stdin, or inline")
        sp.add_argument("q", help="vector: file path, '-' for stdin, or inline")

    sp = sub.add_parser("glb", help="greatest lower bound in the majorization order")
    vec_args(sp)
    sp.set_defaults(fn=_cmd_glb)

    sp = sub.add_parser("couple", help="two-marginal coupling within 1 bit of minimum entropy")
    vec_args(sp)
    sp.add_argument("--sorted", action="store_true",
                    help="report the matrix in sorted (non-increasing marginal) order")
    sp.set_defaults(fn=_cmd_couple)

    sp = sub.add_parser("couple-k", help="k-marginal coupling within ceil(log2 k) bits")
    sp.add_argument("marginals", nargs="+", help="two or more vectors")
    sp.add_argument("--dense", action="store_true", help="also emit the dense tensor")
    sp.add_argument("--dense-cap", type=_cap_flag, default=DENSE_CELL_CAP,
                    help="max dense tensor cells")
    sp.set_defaults(fn=_cmd_couple_k)

    sp = sub.add_parser("bounds", help="entropy and mutual-information bounds from marginals")
    vec_args(sp)
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("distance", help="certified interval for 2W - H(p) - H(q)")
    vec_args(sp)
    sp.set_defaults(fn=_cmd_distance)

    sp = sub.add_parser("oracle", help="exact minimum-entropy coupling (small instances)")
    vec_args(sp)
    sp.add_argument("--cap", type=_cap_flag, default=DEFAULT_SIZE_CAP,
                    help="max n+m accepted by the exhaustive search")
    sp.add_argument("--sorted", action="store_true")
    sp.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _resolve_tolerances(args)
        doc = args.fn(args, tol, 1.0 if args.base == "bits" else math.log(2.0))
    except argparse.ArgumentTypeError as exc:  # an env tolerance, or a pair Tolerances refuses
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MecoupleError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        sys.stdout.write(_to_json(doc))
    else:
        _emit_text(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
