"""Command-line surface: invariants from braid words, verification suites
and Bratteli diagram emission.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
Timing goes to stderr so stdout is byte-for-byte deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import bratteli as yb
from .braid import (BraidParseError, BraidWord, component_count,
                    exponent_sum, isotopy_moves, parse_braid)
from .closed_forms import torus2_invariant
from .laurent import LaurentPoly1, LocalizedPoly, Specialization, specialize
from .skein import SkeinEngine

DEPTH_CAP = 8  # cap on Bratteli depths and verify --max-f, --max-size, --max-n
M_CAP = 100  # cap on |m| for torus --m and the verify --m range
SIGNS_CAP = 1000  # cap on the verify lemma2 --random-signs count
N_CAP = 100  # cap on the rank n of --spec osp:<n> and so:<n>

MARKOV_CORPUS = [
    "B1:", "B2:", "B2: 1", "B2: 1 1", "B2: 1 1 1", "B2: -1 -1",
    "B2: 1 -1 1 -1", "B2: 1^5", "B3: 1 -2", "B3: 1 2", "B3: 1 1 2 2",
    "B3: -1 2 -1 2", "B3: 1 2 1 2 1 2", "B3: 1 -2 1 -2", "B3: 2 2 1 -2 1",
    "B4: 1 2 3", "B4: 1 -2 3 -2", "B4: 1 2 2 3 3 1", "B4: -1 -2 -3 -1 -2 -3",
    "B4: 1 2 3 3 2 1",
]

BRAID_RELATION_CORPUS = [
    "B3: 1 2 1", "B3: 1 2 1 1", "B3: 1 2 1 -2", "B3: 2 1 2 1 2 1",
    "B4: 1 2 1 3", "B4: 2 3 2", "B4: 2 3 2 -1", "B4: 1 2 1 2 1",
    "B3: -1 1 2 1", "B4: 3 1 2 1 3",
]


class _UsageError(Exception):
    """An option over its cap or an unwritable ``--out`` path; ``main``
    prints one error line and exits 2."""


def _cap(option: str, value: int, cap: int | None) -> None:
    """Reject a count below 0 or over ``cap`` (None: no upper cap)."""
    if value < 0:
        raise _UsageError(f"{option} {value} is negative")
    if cap is not None and value > cap:
        raise _UsageError(f"{option} {value} over cap {cap}")


def _parse_spec(text: str) -> Specialization:
    try:
        kind, n_text = text.split(":")
        n = int(n_text)
        if n > N_CAP:
            raise argparse.ArgumentTypeError(
                f"specialization rank {n} over cap {N_CAP}")
        if kind == "osp":
            return Specialization.osp(n)
        if kind == "so":
            return Specialization.so(n)
    except (ValueError, TypeError):
        pass
    raise argparse.ArgumentTypeError(
        f"bad specialization {text!r}; expected osp:<n> or so:<n>")


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..")
        lo, hi = int(lo_text), int(hi_text)
        if lo <= hi:
            return lo, hi
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad range {text!r}; expected lo..hi")


def _value_json(value):
    if isinstance(value, LocalizedPoly):
        return {"num": value.num.to_lists(), "den_power": value.k,
                "variables": ["r", "s"]}
    if isinstance(value, LaurentPoly1):
        return {"terms": value.to_lists(), "variables": ["q"]}
    raise TypeError(f"unexpected value type {type(value).__name__}")


def _check_out(out_path: str | None) -> None:
    """Reject an ``--out`` that can never be opened for writing before any
    work is done; ``_emit`` still catches what this misses."""
    if not out_path:
        return
    if os.path.isdir(out_path):
        raise _UsageError(f"cannot write --out: {out_path!r} is a directory")
    parent = os.path.dirname(out_path) or "."
    if not os.path.isdir(parent):
        raise _UsageError(
            f"cannot write --out: no directory {parent!r} for {out_path!r}")


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise _UsageError(f"cannot write --out: {err}") from err


def cmd_invariant(args) -> int:
    try:
        word = parse_braid(args.braid)
    except BraidParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    engine = SkeinEngine()
    started = time.perf_counter()
    try:
        value = engine.kauffman_polynomial(word)
    except RecursionError:
        # the skein recursion nests a few frames per crossing of a chain
        print(f"error: the {len(word)}-letter braid word nests the skein "
              f"recursion past the recursion limit of "
              f"{sys.getrecursionlimit()} frames", file=sys.stderr)
        return 2
    if args.spec is not None:
        value = specialize(value, args.spec)
    elapsed = time.perf_counter() - started
    meta = {
        "braid": word.word_text(),
        "strands": word.strands,
        "exponent_sum": exponent_sum(word),
        "components": component_count(word),
        "crossings": len(word),
    }
    if args.format == "json":
        doc = {"schema": 1, "command": "invariant", **meta,
               "spec": args.spec.label() if args.spec else None,
               "value": _value_json(value)}
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [f"{k}: {v}" for k, v in meta.items()]
        name = f"value[{args.spec.label()}](q)" if args.spec else "F(r,s)"
        lines.append(f"{name} = {value}")
        _emit("\n".join(lines) + "\n", args.out)
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0


def _torus_word(m: int) -> BraidWord:
    """The two-strand braid word whose closure is T(2, m)."""
    return BraidWord(2, ((1, 1 if m > 0 else -1),) * abs(m))


def cmd_torus(args) -> int:
    m = args.m
    _cap("|m|", abs(m), M_CAP)
    closed = torus2_invariant(m)
    skein = SkeinEngine().kauffman_polynomial(_torus_word(m))
    match = closed == skein
    symmetric = closed.flip_vars() == closed
    if args.format == "json":
        doc = {"schema": 1, "command": "torus", "m": m,
               "closed_form": _value_json(closed),
               "skein": _value_json(skein),
               "match": match, "symmetry": symmetric}
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit("\n".join([
            f"m: {m}",
            f"closed_form = {closed}",
            f"skein       = {skein}",
            f"match: {'yes' if match else 'NO'}",
            f"symmetry((r,s) -> (-r,-s)): {'yes' if symmetric else 'NO'}",
        ]) + "\n", args.out)
    return 0 if (match and symmetric) else 1


def cmd_bratteli(args) -> int:
    _cap("depth", args.depth, DEPTH_CAP)
    if args.spec is None:
        graph = yb.generic_bratteli(args.depth)
        kind = "generic"
    else:
        graph = yb.truncated_bratteli(args.spec, args.depth)
        kind = args.spec.label()
    if args.format == "dot":
        _emit(yb.bratteli_dot(graph, title=kind), args.out)
    elif args.format == "json":
        _emit(yb.bratteli_json(graph, kind), args.out)
    else:
        lines = [f"kind: {kind}", f"depth: {graph.depth}"]
        for k, level in enumerate(graph.levels):
            row = " ".join(
                f"{yb.shape_label(s)}:{graph.path_count(s, k)}" for s in level)
            lines.append(f"level {k}: {row}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _verify_oracle(args, report):
    _cap("|m|", max(map(abs, args.m_range)), M_CAP)
    engine = SkeinEngine()
    lo, hi = args.m_range
    for m in range(lo, hi + 1):
        ok = engine.kauffman_polynomial(_torus_word(m)) == torus2_invariant(m)
        report(f"oracle m={m}", ok)


def _link_values(args, closed_form: bool):
    """(label, value) pairs: T(2, m) for m in the ``--m`` range, from the
    closed form or from the engine, then the engine values of the Markov
    and braid-relation corpus words."""
    _cap("|m|", max(map(abs, args.m_range)), M_CAP)
    engine = SkeinEngine()
    lo, hi = args.m_range
    for m in range(lo, hi + 1):
        yield f"m={m}", (torus2_invariant(m) if closed_form
                         else engine.kauffman_polynomial(_torus_word(m)))
    for text in MARKOV_CORPUS + BRAID_RELATION_CORPUS:
        yield f"word={text!r}", engine.kauffman_polynomial(parse_braid(text))


def _verify_parity(args, report):
    """Every term r^a s^b of an engine value's numerator has a + b = k
    (mod 2), k its power of s - s^-1: the numerator parity proved in the
    ``skein`` docstring, shifted by r^-w with w = cr (mod 2)."""
    for label, value in _link_values(args, closed_form=False):
        parity = value.k % 2
        report(f"parity {label}",
               all((a + b) % 2 == parity for a, b, _ in value.num.terms()))


def _verify_symmetry(args, report):
    """F(-r, -s) = F(r, s): on the torus closed forms, then on the engine
    values of every Markov and braid-relation corpus word."""
    for label, value in _link_values(args, closed_form=True):
        report(f"symmetry {label}", value.flip_vars() == value)


def _verify_sumrule(args, report):
    _cap("max-f", args.max_f, DEPTH_CAP)
    for f in range(0, args.max_f + 1):
        report(f"sumrule f={f}", yb.sum_rule_check(f))


def _verify_omega(args, report):
    _cap("max-f", args.max_f, DEPTH_CAP)
    expected = 1
    for f in range(1, args.max_f + 1):
        expected *= 2 * f - 1
        report(f"omega f={f}", yb.path_pair_count(f) == expected)


def _verify_lemma2(args, report):
    _cap("max-size", args.max_size, DEPTH_CAP)
    _cap("max-n", args.max_n, DEPTH_CAP)
    _cap("random-signs", args.random_signs, SIGNS_CAP)
    for size in range(0, args.max_size + 1):
        for shape in yb.young_level(size):
            for n in range(1, args.max_n + 1):
                ok = yb.specialized_weights_equal(shape, n)
                report(f"lemma2 shape={yb.shape_label(shape)} n={n}", ok)
    import random  # only this suite needs it: no other command pays its import
    rng = random.Random(args.seed)
    for case in range(args.random_signs):
        size = rng.randint(1, 8)
        shape = rng.choice(yb.young_level(size))
        report(f"sign-identity case={case} shape={yb.shape_label(shape)}",
               yb.sign_identity_check(shape))


def _moves_keep_value(engine, text: str, kinds) -> tuple[int, bool]:
    """How many ``isotopy_moves`` of the given kinds the word has, and
    whether every one of them keeps its invariant."""
    word = parse_braid(text)
    base = engine.kauffman_polynomial(word)
    moved = [w for kind, w in isotopy_moves(word) if kind in kinds]
    return len(moved), all(engine.kauffman_polynomial(w) == base for w in moved)


def _verify_markov(args, report):
    _cap("words", args.words, None)
    engine = SkeinEngine()
    for text in MARKOV_CORPUS[: args.words]:
        _, ok = _moves_keep_value(engine, text, ("conjugate", "stabilize"))
        report(f"markov word={text!r}", ok)
    for text in BRAID_RELATION_CORPUS[: args.words]:
        rewrites, ok = _moves_keep_value(engine, text, ("relation",))
        report(f"braid-relation word={text!r}", ok and rewrites > 0)


_SUITES = {
    "markov": _verify_markov,
    "parity": _verify_parity,
    "symmetry": _verify_symmetry,
    "sumrule": _verify_sumrule,
    "lemma2": _verify_lemma2,
    "omega": _verify_omega,
    "oracle": _verify_oracle,
}


def cmd_verify(args) -> int:
    results: list[tuple[str, bool]] = []
    _SUITES[args.suite](args, lambda case, ok: results.append((case, ok)))
    results.sort()
    lines = [f"{'PASS' if ok else 'FAIL'} {case}" for case, ok in results]
    failures = sum(1 for _, ok in results if not ok)
    lines.append(f"total: {len(results)} failures: {failures}")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    far more than one ``parse_args``."""
    parser = argparse.ArgumentParser(
        prog="bwmlink",
        description="Two-variable Kauffman invariants of braid closures, "
                    "their one-variable specializations and the supporting "
                    "verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariant", help="invariant of a braid closure")
    p_inv.add_argument("--braid", required=True, help="word, e.g. 'B2: 1^3'")
    p_inv.add_argument("--spec", type=_parse_spec, default=None,
                       help="specialization osp:<n> or so:<n>")
    p_inv.add_argument("--format", choices=("text", "json"), default="text")
    p_inv.add_argument("--out", default=None)
    p_inv.set_defaults(func=cmd_invariant)

    p_torus = sub.add_parser("torus", help="two-strand torus closure checks")
    p_torus.add_argument("--m", type=int, required=True)
    p_torus.add_argument("--format", choices=("text", "json"), default="text")
    p_torus.add_argument("--out", default=None)
    p_torus.set_defaults(func=cmd_torus)

    p_brat = sub.add_parser("bratteli", help="emit a (truncated) level graph")
    p_brat.add_argument("--spec", type=_parse_spec, default=None)
    p_brat.add_argument("--depth", type=int, default=4)
    p_brat.add_argument("--format", choices=("text", "json", "dot"),
                        default="text")
    p_brat.add_argument("--out", default=None)
    p_brat.set_defaults(func=cmd_bratteli)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(_SUITES))
    p_ver.add_argument("--m", dest="m_range", type=_parse_range,
                       default=(-6, 8), help="range lo..hi")
    p_ver.add_argument("--max-f", type=int, default=5)
    p_ver.add_argument("--max-size", type=int, default=6)
    p_ver.add_argument("--max-n", type=int, default=3)
    p_ver.add_argument("--words", type=int, default=20)
    p_ver.add_argument("--random-signs", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=20260809)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # join "--m -6..8" so argparse does not read the range as an option
    joined: list[str] = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg == "--m" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            joined.append(f"--m={argv[i + 1]}")
            skip = True
        else:
            joined.append(arg)
    parser = build_parser()
    try:
        args = parser.parse_args(joined)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_out(args.out)
        return args.func(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
