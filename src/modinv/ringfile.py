"""JSON ring-file format: serialization and parsing of fusion-ring data.

Exact fields cross the boundary as strings ("p/q" rationals) or structured
cyclotomic serializations; no decimals are accepted for exact data. The
fusion tensor is stored sparsely as [l, m, n, multiplicity] quadruples.
Ring files and reports are written by one renderer, :func:`json_text`.

This module decides what input modinv accepts: every JSON file the command
line takes is read by :func:`read_json`, every rational by `_parse_ratio`,
and every ring's size is held to the caps by :func:`check_limits` before it
is built. Each refusal is a :class:`RingFileError`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from math import lcm
from typing import Optional, Union

import numpy as np

from .cyclo import Cyclotomic
from .fusion import FusionRing, global_conductor, make_ring, validate


# Checked before the n**3 fusion tensor and the (M+1)-entry cyclotomic
# polynomial of the global conductor M are allocated; the benchmark ladder
# reaches 33 labels and conductor 136.
MAX_LABELS = 100
MAX_CONDUCTOR = 1000
# With n <= MAX_LABELS, a sum of n products of two multiplicities is at most
# 100 * 2**40 < 2**53, so `validate` multiplies fusion tensors exactly in
# float64.
MAX_MULTIPLICITY = 2**20


class RingFileError(ValueError):
    """Malformed, oversized or inconsistent input: a ring file, an
    `--invariant` file or a built-in ring's parameters."""


def read_json(path: str, what: str):
    """The JSON value in the file at path; `what` names the file in the
    message when it cannot be opened or read. Every way the standard
    library's reader can fail (bad syntax, nesting past its recursion limit,
    bytes that are not UTF-8, an integer past Python's digit limit, an OS
    error) raises RingFileError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise RingFileError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")
    except RecursionError:
        raise RingFileError(f"{path}: JSON nested too deeply to parse") from None
    except UnicodeDecodeError as exc:
        raise RingFileError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except ValueError:  # the only other: an integer past int()'s digit limit
        raise RingFileError(f"{path}: JSON number too long to parse") from None
    except OSError as exc:
        raise RingFileError(f"{path}: cannot read the {what}: {exc.strerror or exc}") from None


def check_limits(labels: int, conductor: int = 1) -> None:
    """Refuse a ring with more than MAX_LABELS labels or a global conductor
    above MAX_CONDUCTOR, before its n**3 fusion tensor or the cyclotomic
    polynomial of its conductor is built."""
    if labels > MAX_LABELS:
        raise RingFileError(f"{labels} labels, above the limit of {MAX_LABELS}")
    if conductor > MAX_CONDUCTOR:
        raise RingFileError(f"global conductor {conductor}, above the limit of {MAX_CONDUCTOR}")


def ring_to_json(ring: FusionRing) -> dict:
    # argwhere lists the nonzero entries in row-major (l, m, n) order.
    nonzero = np.argwhere(ring.fusion)
    quads = np.column_stack([nonzero, ring.fusion[tuple(nonzero.T)]]).tolist()
    data = {
        "name": ring.name,
        "labels": list(ring.names),
        "fusion": quads,
        "dual": list(ring.dual),
        "twists": [fmt_fraction(h) for h in ring.twists],
        "dims": [d.to_json() for d in ring.dims] if ring.dims is not None else "auto",
    }
    if ring.central_charge_hint is not None:
        data["central_charge"] = fmt_fraction(ring.central_charge_hint)
    return data


def ring_from_json(data: dict) -> FusionRing:
    """Parse a ring file dict; structural errors raise RingFileError naming
    the offending field. `check_limits` refuses too many labels before the
    fusion tensor is built, and a global conductor past the cap before the
    ring is. Axioms are not checked here (see load_ring)."""
    if not isinstance(data, dict):
        raise RingFileError("a ring file must hold a JSON object")
    if not isinstance(data.get("labels"), list):
        raise RingFileError("'labels' must be a list")
    labels = [str(s) for s in data["labels"]]
    n = len(labels)
    if n == 0:
        raise RingFileError("'labels' is empty")
    check_limits(n)
    quads = data.get("fusion", [])
    if not isinstance(quads, list):
        raise RingFileError("'fusion' must be a list of [l, m, n, multiplicity] quadruples")
    fusion = _fusion_tensor(quads, n)
    dual = data.get("dual")
    labels_ok = isinstance(dual, list) and all(_is_int(v) and 0 <= v < n for v in dual)
    if not (labels_ok and len(dual) == n):
        raise RingFileError(f"'dual' must be a list of {n} integers in [0, {n})")
    twists_raw = data.get("twists")
    if not (isinstance(twists_raw, list) and len(twists_raw) == n):
        raise RingFileError(f"'twists' must be a list of {n} rational strings")
    twists = [_parse_fraction(s, f"twists[{i}]") for i, s in enumerate(twists_raw)]
    dims_raw = data.get("dims", "auto")
    dims: Optional[list[Cyclotomic]] = None
    if dims_raw != "auto":
        if not (isinstance(dims_raw, list) and len(dims_raw) == n):
            raise RingFileError(f"'dims' must be \"auto\" or a list of {n} cyclotomic values")
        try:
            dims = [_parse_cyclotomic(d, f"dims[{i}]") for i, d in enumerate(dims_raw)]
        except RingFileError as exc:
            raise RingFileError(f"malformed 'dims': {exc}") from None
    check_limits(n, global_conductor(twists, dims))
    hint = None
    if "central_charge" in data:
        hint = _parse_fraction(data["central_charge"], "central_charge")
    return make_ring(
        names=labels,
        fusion=fusion,
        dual=dual,
        twists=twists,
        dims=dims,
        name=str(data.get("name", "")),
        central_charge_hint=hint,
    )


def _fusion_tensor(quads: list, n: int) -> np.ndarray:
    """The (n, n, n) fusion tensor of the quadruples, checked as one integer
    array. On any fault, `_first_quad_error` names the first entry that is
    not a quadruple of integers in range or that repeats an earlier one."""
    A = _int_quads(quads)
    if A is not None and (
        A[:, :3].min(initial=0) >= 0
        and A[:, :3].max(initial=0) < n
        and A[:, 3].min(initial=0) >= 0
        and A[:, 3].max(initial=0) <= MAX_MULTIPLICITY
    ):
        index = (A[:, 0] * n + A[:, 1]) * n + A[:, 2]
        ordered = np.sort(index)
        if not (ordered[1:] == ordered[:-1]).any():
            fusion = np.zeros((n, n, n), np.int64)
            fusion.reshape(-1)[index] = A[:, 3]
            return fusion
    raise RingFileError(_first_quad_error(quads, n))


def _int_quads(quads: list) -> Optional[np.ndarray]:
    """The quadruples as a (k, 4) int64 array; None when an entry is not a
    list of four integers (in `_is_int`'s sense, which reads only a value's
    type) or holds one past int64."""
    if not all(issubclass(t, (list, tuple)) for t in set(map(type, quads))):
        return None
    if set(map(len, quads)) - {4}:
        return None
    flat = list(chain.from_iterable(quads))
    if not all(issubclass(t, int) and t is not bool for t in set(map(type, flat))):
        return None
    try:
        return np.array(flat, dtype=np.int64).reshape(-1, 4)
    except OverflowError:
        return None


def _first_quad_error(quads: list, n: int) -> str:
    """The message for the first faulty entry of a fusion list that has one."""
    listed: dict[tuple, int] = {}
    for q, quad in enumerate(quads):
        if not (isinstance(quad, (list, tuple)) and len(quad) == 4):
            return f"fusion entry {q} is not a quadruple"
        l, m, nu, mult = quad
        for v, nm in ((l, "l"), (m, "m"), (nu, "n")):
            if not _is_int(v) or not 0 <= v < n:
                return f"fusion entry {q}: index {nm}={v!r} out of range"
        if not _is_int(mult) or mult < 0:
            return f"fusion entry {q}: multiplicity {mult!r} invalid"
        if mult > MAX_MULTIPLICITY:
            return f"fusion entry {q}: multiplicity {mult}, above the limit of {MAX_MULTIPLICITY}"
        first = listed.setdefault((l, m, nu), q)
        if first != q:
            return f"fusion entries {first} and {q} both list (l, m, n) = ({l}, {m}, {nu})"
    raise AssertionError("internal error: the fusion list has no faulty entry")


def load_ring(path: str, check_axioms: bool = True) -> FusionRing:
    """Read a ring file (`read_json`) and parse it (`ring_from_json`); with
    check_axioms, reject rings that fail validation, quoting the report.
    Every refusal is a RingFileError."""
    ring = ring_from_json(read_json(path, "ring file"))
    if check_axioms:
        report = validate(ring)
        if report:
            raise RingFileError(f"{path}: ring fails validation: " + "; ".join(report))
    return ring


def dump_ring(ring: FusionRing) -> str:
    return json_text(ring_to_json(ring))


# Scalar encoders by exact type: bool and None are not ints here, and an int
# subclass, a float or a numpy integer has no entry.
_JSON_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


class SharedDict(dict):
    """A dict that a tree holds at more than one place: `json_text` renders
    it once per indentation and reuses that text."""

    __slots__ = ()


class SharedList(list):
    """A list that a tree holds at more than one place, rendered as a
    `SharedDict` is."""

    __slots__ = ()


_SHARED = {SharedDict: dict, SharedList: list}


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for a tree of dicts with
    string keys, lists, strings, ints, bools and None; any other type, such
    as a float, a tuple or a numpy integer, raises TypeError. The standard
    library encodes with indentation in pure Python, one generator per
    container; this joins each container's encoded items once and maps one
    encoder over a list of same-type scalars. A `SharedDict` or `SharedList`
    is rendered once per indentation at which it occurs: the texts of those
    subtrees, and of no others, are kept until the call returns."""
    return _encode(obj, "\n", {})


def _encode(obj, newline: str, shared: dict) -> str:
    """The text of obj, whose own line ends in ``newline``: a newline plus
    its indentation. ``shared`` maps (id, newline) of the shared subtrees
    rendered so far to their texts."""
    t = type(obj)
    if t is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [_json_str(k) + ": " + _encode(obj[k], inner, shared) for k in sorted(obj)]
    elif t is list:
        if not obj:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, obj))
        if len(kinds) == 1 and (kind := kinds.pop()) in _JSON_SCALARS:
            items = list(map(_JSON_SCALARS[kind], obj))
        else:
            items = [_encode(v, inner, shared) for v in obj]
    else:
        encode = _JSON_SCALARS.get(t)
        if encode is not None:
            return encode(obj)
        if t not in _SHARED:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
        key = id(obj), newline
        text = shared.get(key)
        if text is None:
            # A shallow copy as the plain container: the subtrees it holds
            # keep their ids.
            text = shared[key] = _encode(_SHARED[t](obj), newline, shared)
        return text
    # The brackets go onto the first and last items, so the container's text
    # is copied once, by the join.
    open_, close = "{}" if t is dict else "[]"
    items[0] = open_ + inner + items[0]
    items[-1] += newline + close
    return ("," + inner).join(items)


def fmt_fraction(x: Fraction) -> str:
    """A rational as ring files and reports write it: "p/q", or "p" for an
    integer."""
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _is_int(v) -> bool:
    """An integer in JSON's sense: bool is an int subclass in Python, not here."""
    return isinstance(v, int) and not isinstance(v, bool)


# The one rational grammar of ring files and argv, p or p/q in ASCII digits:
# Fraction(str) would also read "0.5", "1e-1", " 2 " and "1_0".
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_ratio(s: Union[str, int], where: str) -> tuple[int, int]:
    """Integers p and q > 0 with s = p/q, not necessarily in lowest terms,
    for a JSON integer or a string of the rational grammar."""
    if _is_int(s):
        return s, 1
    if not isinstance(s, str):
        raise RingFileError(f"{where}: expected a rational string, got {s!r}")
    if match := _RATIONAL.fullmatch(s):
        p, q = match.groups()
        try:
            p, q = int(p), int(q or 1)
        except ValueError:  # past int's digit limit
            pass
        else:
            if q:
                return p, q
    raise RingFileError(f"{where}: cannot parse rational {s!r}")


def _parse_fraction(s: Union[str, int], where: str) -> Fraction:
    return Fraction(*_parse_ratio(s, where))


def _parse_cyclotomic(data, where: str) -> Cyclotomic:
    """A cyclotomic value as `Cyclotomic.to_json` writes it, {"conductor": m,
    "coeffs": [[e, c], ...]}: m and each e JSON integers, each c a rational
    read by `_parse_ratio`, and the value built from integer numerators over
    the lcm of the denominators. A conductor above MAX_CONDUCTOR is refused
    before its cyclotomic polynomial is built."""
    try:
        m, terms = data["conductor"], [(e, c) for e, c in data["coeffs"]]
        if not all(_is_int(v) for v in (m, *(e for e, _ in terms))):
            raise ValueError("conductor and exponents must be integers")
        if not 1 <= m <= MAX_CONDUCTOR:
            raise ValueError(f"conductor {m} outside [1, {MAX_CONDUCTOR}]")
    except (KeyError, TypeError, ValueError) as exc:
        raise RingFileError(f"{where}: {exc}") from None
    # A repeated exponent keeps its first slot and its last value, as a dict.
    ratios = {e: _parse_ratio(c, where) for e, c in terms}
    den = lcm(*(q for _, q in ratios.values()))
    return Cyclotomic.from_terms(m, [(e, p * (den // q)) for e, (p, q) in ratios.items()], den)
