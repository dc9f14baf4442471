"""Command line interface.

Verbs:

    nf EXPR               normal form of a noncommutative expression
    basis --len N         normal words of length <= N
    dim-O N               dimension of the filtration piece of length <= N
    nabla LAMBDA          costandard data for a weight word
    delta LAMBDA          standard data for a weight word
    simple LAMBDA         block expression of the simple, with verification
    hom L1 L2             hom space dimensions between standard objects
    multiset LAMBDA       filtration multisets of the monoid comodule
    induce --weight W --len N [--predicted]
                          truncated induction from the lower triangular part
    poset-below LAMBDA    weight words strictly below in the refined order
    check SUITE [--len N] run a named verification suite

Global options: --format json|tsv|pretty (default json), --config PATH.
A config file of key=value lines supplies default bounds (key "len");
explicit flags win.

Exit status: 0 on success, 1 when a verification fails, 2 on usage or
syntax errors and a config file that is missing or not UTF-8 text.  Any
other exception is an internal error and propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .checks import SUITE_NAMES, run_check_suite
from .comodules import VerificationError
from .ncalg import (
    ExprSyntaxError,
    enumerate_basis,
    parse_expression,
    render_element,
    render_word,
)
from .weights import (
    LambdaSyntaxError,
    parse_lambda,
    parse_weight,
    render_weight,
    weight_key,
    pi_below,
)

__all__ = ["main", "build_parser", "UsageError"]

_FORMATS = ("json", "tsv", "pretty")


class UsageError(ValueError):
    """Bad input from the command line or the config file; exits 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncgl2",
        description="exact symbolic engine for the universal quantum group of 2x2 matrices",
    )
    parser.add_argument("--format", choices=_FORMATS, default="json")
    parser.add_argument("--config", default=None, help="key=value file with default bounds")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("nf", help="normal form of an expression")
    p.add_argument("expr")

    p = sub.add_parser("basis", help="normal words up to a length")
    p.add_argument("--len", dest="length", type=int, default=None)

    p = sub.add_parser("dim-O", help="dimension of the length filtration piece")
    p.add_argument("length", type=int)

    for verb in ("nabla", "delta", "simple", "multiset", "poset-below"):
        p = sub.add_parser(verb)
        p.add_argument("lam")

    p = sub.add_parser("hom", help="hom dimensions between standard objects")
    p.add_argument("lam1")
    p.add_argument("lam2")

    p = sub.add_parser("induce", help="truncated induction from the lower Borel")
    p.add_argument("--weight", required=True)
    p.add_argument("--len", dest="length", type=int, default=None)
    p.add_argument("--predicted", action="store_true")

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--len", dest="length", type=int, default=None)

    return parser


def _load_config(path: str | None) -> dict:
    """key=value pairs; {} without --config when ./ncgl2.cfg is missing.

    A missing --config file, or one that cannot be read as UTF-8 text, is
    a UsageError.
    """
    candidate = path or "ncgl2.cfg"
    if not os.path.isfile(candidate):
        if path:
            raise UsageError(f"config file not found: {path}")
        return {}
    out: dict = {}
    try:
        with open(candidate, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#") or "=" not in line:
                    continue
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"config file cannot be read as UTF-8 text: {candidate}: {exc}") from exc
    return out


def _default_len(args_length, config: dict, fallback: int | None) -> int | None:
    length = args_length
    if length is None and "len" in config:
        try:
            length = int(config["len"])
        except ValueError as exc:
            raise UsageError(f"config len is not an integer: {config['len']!r}") from exc
    if length is None:
        return fallback
    if length < 0:
        raise UsageError(f"length must be nonnegative: {length}")
    return length


def _multiset_payload(counter) -> dict:
    return {
        str(mu): counter[mu]
        for mu in sorted(counter, key=lambda m: m.sort_key())
    }


def _char_payload(char) -> dict:
    return {
        render_weight(w): char[w]
        for w in sorted(char, key=weight_key, reverse=True)
    }


def _run(args, config) -> tuple[dict, int]:
    if args.verb == "nf":
        element = parse_expression(args.expr)
        return {"input": args.expr, "normalForm": render_element(element)}, 0

    if args.verb == "basis":
        n = _default_len(args.length, config, 3)
        words = enumerate_basis(n)
        return {
            "len": n,
            "count": len(words),
            "words": [render_word(w) for w in words],
        }, 0

    if args.verb == "dim-O":
        words = enumerate_basis(_default_len(args.length, {}, None))
        return {"len": args.length, "dimension": len(words)}, 0

    if args.verb == "nabla":
        from .standard import canonical_map, char_nabla, nabla_multiset

        lam = parse_lambda(args.lam)
        f = canonical_map(lam)
        return {
            "lambda": str(lam),
            "dimNabla": f.target.dim,
            "dimDelta": f.source.dim,
            "dimL": f.rank(),
            "multiset": _multiset_payload(nabla_multiset(lam)),
            "char": _char_payload(char_nabla(lam)),
        }, 0

    if args.verb == "delta":
        from .standard import char_delta, delta_multiset

        lam = parse_lambda(args.lam)
        char = char_delta(lam)
        return {
            "lambda": str(lam),
            "dimDelta": sum(char.values()),
            "multiset": _multiset_payload(delta_multiset(lam)),
            "char": _char_payload(char),
        }, 0

    if args.verb == "simple":
        from .simples import classify_crosscheck

        lam = parse_lambda(args.lam)
        report = classify_crosscheck(lam)
        payload = {
            "lambda": str(lam),
            "expression": report["expression"],
            "dim": report["dim"],
            "verified": report["consistent"],
        }
        return payload, 0 if report["consistent"] else 1

    if args.verb == "hom":
        from .comodules import hom_space
        from .standard import build_nabla, hom_from_delta

        lam1 = parse_lambda(args.lam1)
        lam2 = parse_lambda(args.lam2)
        ((delta_nabla,),) = hom_from_delta([lam1], [build_nabla(lam2)])
        return {
            "lambda1": str(lam1),
            "lambda2": str(lam2),
            "dimHomDeltaNabla": len(delta_nabla),
            "dimHomNablaNabla": len(
                hom_space(build_nabla(lam1), build_nabla(lam2))
            ),
        }, 0

    if args.verb == "multiset":
        from .standard import delta_multiset, nabla_multiset

        lam = parse_lambda(args.lam)
        return {
            "lambda": str(lam),
            "nabla": _multiset_payload(nabla_multiset(lam)),
            "delta": _multiset_payload(delta_multiset(lam)),
        }, 0

    if args.verb == "induce":
        from .borel import induced_predicted, induced_truncated

        t = parse_weight(args.weight)
        n = _default_len(args.length, config, 2)
        predicted = induced_predicted(t, n)
        payload = {
            "weight": render_weight(t),
            "len": n,
            "predictedDim": len(predicted),
        }
        if args.predicted:
            payload["predicted"] = [render_word(w) for w in predicted]
        else:
            basis = induced_truncated(t, n)
            payload["dim"] = len(basis)
            payload["basis"] = [render_element(f) for f in basis]
        return payload, 0

    if args.verb == "poset-below":
        lam = parse_lambda(args.lam)
        below = sorted(pi_below(lam), key=lambda m: m.sort_key())
        return {
            "lambda": str(lam),
            "count": len(below),
            "below": [str(mu) for mu in below],
        }, 0

    if args.verb == "check":
        n = _default_len(args.length, config, None)
        bounds = {} if n is None else {"len": n}
        results = run_check_suite(args.suite, bounds)
        ok = all(r["pass"] for r in results)
        return {"suite": args.suite, "results": results, "pass": ok}, 0 if ok else 1

    raise AssertionError(f"unhandled verb {args.verb}")


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            rows.extend(_flatten(value, f"{prefix}{key}."))
    elif isinstance(payload, (list, tuple)):
        rows.append((prefix.rstrip("."), ",".join(_scalar(v) for v in payload)))
    else:
        rows.append((prefix.rstrip("."), _scalar(payload)))
    return rows


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _emit(payload: dict, fmt: str, started: float) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    results = payload.get("results") if isinstance(payload.get("results"), list) else None
    if fmt == "tsv":
        if results is not None:
            for r in results:
                print(f"{r['name']}\t{'pass' if r['pass'] else 'FAIL'}\t{r['details']}")
            print(f"pass\t{_scalar(payload['pass'])}")
        else:
            for key, value in _flatten(payload):
                print(f"{key}\t{value}")
        return
    if results is not None:
        for r in results:
            flag = "pass" if r["pass"] else "FAIL"
            print(f"[{flag}] {r['name']}: {r['details']}")
        print(f"overall = {_scalar(payload['pass'])}")
    else:
        for key, value in _flatten(payload):
            print(f"{key} = {value}")
    print(f"runtime = {time.time() - started:.3f}s")


def main(argv=None) -> int:
    started = time.time()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        payload, status = _run(args, _load_config(args.config))
    except (ExprSyntaxError, LambdaSyntaxError, UsageError) as exc:
        print(f"ncgl2: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"ncgl2: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args.format, started)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
