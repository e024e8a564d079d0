"""Command line front end.

Every subcommand emits exactly one JSON report document:

    {
      "schema": "bvattack/1",
      "invocation": {"subcommand": ..., "params": {...}},
      "result": {...},
      "queries": {"quantum": ..., "classical": ...}   # where an oracle ran
    }

Reports are deterministic: identical flags and seeds give byte-identical
output.  Timing goes to stderr only.  The report is written to stdout, or
to --out when given (stdout then stays empty).

Exit codes: 0 success, 1 the attack ran but did not succeed (no structure
found, distinguisher said no, certificate invalid), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .attacks import (
    differential_attack,
    distinguish_feistel,
    impossible_attack,
    recover_em_key,
    small_probability_attack,
)
from .boolfn import (
    BooleanFunction,
    VectorFunction,
    differential_uniformity,
    linear_structures_exhaustive,
    load_function,
    structure_free_uniformity,
    walsh_spectrum,
)
from .bv import QueryLedger
from .ciphers import EvenMansour, Feistel3, ToyCipher, load_cipher, random_permutation, save_cipher
from .experiments import (
    ALL_EXPERIMENTS,
    ExperimentConfig,
    load_experiment_config,
    run_experiment,
)
from .lsfind import find_boolean_structures, find_vector_structures
from .rng import seeded_rng

REPORT_SCHEMA = "bvattack/1"


def _set_json(s) -> dict:
    return {
        "is_empty": s.is_empty,
        "offset": s.offset,
        "basis": list(s.basis),
        "size": 0 if s.is_empty else s.size,
    }


def _report(subcommand: str, params: dict, result: dict, queries=None) -> dict:
    rep = {
        "schema": REPORT_SCHEMA,
        "invocation": {"subcommand": subcommand, "params": params},
        "result": result,
    }
    if queries is not None:
        rep["queries"] = queries
    return rep


# ---------------------------------------------------------------------------
# handlers; each returns (report dict, exit code)


def _square_sum(coeffs) -> int:
    """Exact sum of squares of coefficients at most 2^24 in magnitude: int64
    rows of 2^14 squares (each row sum at most 2^62), added as Python ints."""
    rows = coeffs.reshape(-1, min(len(coeffs), 1 << 14))
    return sum(np.einsum("ij,ij->i", rows, rows).tolist())


def _cmd_spectrum(args) -> tuple[dict, int]:
    fn = load_function(args.fn)
    if not isinstance(fn, BooleanFunction):
        raise ValueError("spectrum expects a single-output function file")
    spec = walsh_spectrum(fn)
    coeffs = spec.coeffs
    max_abs = max(int(coeffs.max()), -int(coeffs.min()))
    result = {
        "n": fn.n,
        "normalization": 1 << fn.n,
        "support_size": int(np.count_nonzero(coeffs)),
        "max_abs_coefficient": max_abs,
        "parseval_ok": max_abs <= 1 << fn.n and _square_sum(coeffs) == 4 ** fn.n,
    }
    if fn.n <= 8:
        result["coefficients"] = [int(c) for c in coeffs]
    if fn.n <= 12:
        # derivative profile: worst and structure-skipping derivative biases
        # plus every exact linear structure, read off the autocorrelation;
        # capped not for speed but because an affine f has 2^n structures
        delta_prime = structure_free_uniformity(fn)
        zero, one = linear_structures_exhaustive(fn)
        result["differential_uniformity"] = str(differential_uniformity(fn))
        result["structure_free_uniformity"] = (
            None if delta_prime is None else str(delta_prime))
        result["structures"] = {"zero": zero, "one": one}
    params = {"fn": args.fn}
    return _report("spectrum", params, result), 0


def _cmd_lsfind(args) -> tuple[dict, int]:
    fn = load_function(args.fn)
    params = {"fn": args.fn, "p": args.p, "seed": args.seed}
    ledger = QueryLedger()
    if isinstance(fn, BooleanFunction):
        res = find_boolean_structures(fn, p=args.p, seed=args.seed, ledger=ledger)
        params["p"] = res.p
        result = {
            "kind": "boolean",
            "found": res.found,
            "zero_set": _set_json(res.zero_set),
            "one_set": _set_json(res.one_set),
            "smallest_candidate": list(res.smallest_candidate() or []) or None,
        }
    else:
        res = find_vector_structures(fn, p=args.p, seed=args.seed, ledger=ledger)
        result = {
            "kind": "vector",
            "found": res.found,
            "a": res.a,
            "alpha": res.alpha,
            "intersection": _set_json(res.intersection),
            "components": [
                {"j": ev.j, "set_size": ev.set_size, "trivial": ev.trivial}
                for ev in res.components
            ],
        }
        params["p"] = res.p
    return _report("lsfind", params, result, ledger.snapshot()), 0 if res.found else 1


def _trial_oracle(target: str, n: int, seed, t: int) -> VectorFunction:
    if target == "feistel":
        return Feistel3.random(n, seed=(seed, 201, t)).encrypt_table()
    return VectorFunction(2 * n, 2 * n,
                          random_permutation(2 * n, seeded_rng(seed, 201, t)))


def _cmd_distinguish_feistel(args) -> tuple[dict, int]:
    n = args.n
    if not 1 <= n <= 12:
        raise ValueError(f"branch width must be in 1..12 (2n-bit tables), got {n}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    params = {"n": n, "target": args.target, "seed": args.seed, "p": args.p,
              "trials": args.trials}
    quantum = classical = yes = 0
    for t in range(args.trials):
        rep = distinguish_feistel(_trial_oracle(args.target, n, args.seed, t),
                                  seed=(args.seed, 202, t), p=args.p)
        yes += bool(rep.verdict)
        quantum += rep.queries["quantum"]
        classical += rep.queries["classical"]
    params["p"] = rep.p
    if args.trials == 1:
        result = {"trials": 1, "verdict": rep.verdict, "candidate": rep.candidate,
                  "s0": rep.s0, "s1": rep.s1, "probe": rep.probe}
        code = 0 if rep.verdict else 1
    else:
        result = {"trials": args.trials, "yes": yes, "yes_rate": yes / args.trials}
        code = 0
    return _report("distinguish-feistel", params, result,
                   {"quantum": quantum, "classical": classical}), code


def _cmd_attack_em(args) -> tuple[dict, int]:
    perm, etable = load_cipher(args.cipher).even_mansour()
    rep = recover_em_key(perm, etable, seed=args.seed, p=args.p)
    queries = dict(rep.queries)
    k2 = None
    if rep.found:
        # one classical query pins the post-whitening key: k2 = E(0) ^ P(k1)
        k2 = int(etable.table[0]) ^ int(perm.table[rep.k1])
        queries["classical"] += 1
    params = {"cipher": args.cipher, "seed": args.seed, "p": rep.p}
    result = {"found": rep.found, "k1": rep.k1, "k2": k2,
              "candidates": rep.candidates}
    return _report("attack-em", params, result, queries), 0 if rep.found else 1


def _cmd_attack_diff(args) -> tuple[dict, int]:
    cf = load_cipher(args.cipher)
    public = cf.toy_public()
    rep = differential_attack(public, cf.table("etable"), seed=args.seed,
                              q=args.q, p=args.p, pairs=args.pairs)
    params = {"cipher": args.cipher, "seed": args.seed, "q": rep.q, "p": rep.p,
              "pairs": rep.pairs}
    result = {
        "found": rep.found,
        "a": rep.a,
        "alpha": rep.alpha,
        "recovered_last_key": rep.recovered_last_key,
        "counts": list(rep.counter.counts) if rep.counter else None,
    }
    return _report("attack-diff", params, result, rep.queries), 0 if rep.found else 1


def _cmd_attack_smallprob(args) -> tuple[dict, int]:
    cf = load_cipher(args.cipher)
    public = cf.toy_public()
    rep = small_probability_attack(public, cf.table("etable"), seed=args.seed,
                                   q=args.q, l=args.l, p=args.p)
    params = {"cipher": args.cipher, "seed": args.seed, "q": rep.q, "l": rep.l,
              "p": rep.p, "pairs": rep.pairs}
    result = {
        "found": rep.found,
        "a": rep.a,
        "target_diff": rep.target_diff,
        "recovered_last_key": rep.recovered_last_key,
        "counts": list(rep.counter.counts) if rep.counter else None,
        "rates": [str(rep.counter.rate(s)) for s in range(len(rep.counter.counts))]
        if rep.counter else None,
    }
    return _report("attack-smallprob", params, result, rep.queries), 0 if rep.found else 1


def _cmd_attack_impossible(args) -> tuple[dict, int]:
    cf = load_cipher(args.cipher)
    public = cf.toy_public()
    rep = impossible_attack(public, cf.table("etable"), seed=args.seed,
                            pairs=args.pairs, p=args.p)
    params = {"cipher": args.cipher, "seed": args.seed, "p": rep.p,
              "pairs": rep.pairs}
    cert = None
    if rep.certificate is not None:
        cert = {"component": rep.certificate.j, "a": rep.certificate.a,
                "forbidden": rep.certificate.forbidden}
    result = {
        "found": rep.found,
        "certificate": cert,
        "certificate_valid": rep.certificate_valid,
        "alive": list(rep.alive),
        "alive_count": len(rep.alive),
    }
    ok = rep.found and bool(rep.certificate_valid)
    return _report("attack-impossible", params, result, rep.queries), 0 if ok else 1


def _cmd_verify_theorems(args) -> tuple[dict, int]:
    if args.config is not None:
        if args.which is not None or args.n is not None or args.trials is not None:
            raise ValueError("--config cannot be combined with --which/--n/--trials")
        configs = [load_experiment_config(args.config)]
    else:
        which = args.which or "all"
        names = list(ALL_EXPERIMENTS) if which == "all" else [which]
        if which == "all" and (args.n is not None or args.trials is not None):
            raise ValueError("--n/--trials apply to a single experiment, not --which all")
        configs = [ExperimentConfig.with_defaults(name, args.seed, args.n, args.trials,
                                                  args.z, args.variant) for name in names]
    results = [run_experiment(cfg) for cfg in configs]
    cfg = configs[0]  # seed, z and variant as they ran: the flags' or the config's
    params = {"which": [c.which for c in configs], "seed": cfg.seed, "z": cfg.z,
              "variant": cfg.variant}
    result = {
        "passed": all(r.passed for r in results),
        "experiments": [r.to_dict() for r in results],
    }
    return _report("verify-theorems", params, result), 0 if result["passed"] else 1


def _cmd_gen_cipher(args) -> tuple[dict, int]:
    n, kind = args.n, args.kind
    if kind == "feistel3":
        cipher = Feistel3.random(n, seed=args.seed)
    elif kind == "even-mansour":
        if n > 20:
            raise ValueError(f"n = {n} is too wide to tabulate")
        cipher = EvenMansour.random(n, seed=args.seed)
    else:
        cipher = ToyCipher.generate(n, args.preset, seed=args.seed, rounds=args.rounds)
    out = args.out
    if out is None:
        suffix = "-challenge" if args.challenge else ""
        out = f"{kind}-n{n}-seed{args.seed}{suffix}.cipher"
    save_cipher(out, cipher, seed=args.seed, include_secrets=not args.challenge)
    params = {"kind": kind, "n": n, "seed": args.seed, "out": out,
              "challenge": args.challenge}
    if kind == "toy":
        params["preset"] = args.preset
        params["rounds"] = args.rounds
    result = {"written": out, "kind": kind, "n": n,
              "secrets_included": not args.challenge}
    return _report("gen-cipher", params, result), 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bvattack",
        description="Classical simulation of structure-finding attacks on block ciphers.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectrum", help="exact spectral profile of a function file")
    p.add_argument("fn", help="path to a function table file")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("lsfind", help="sampled structure search on a function file")
    p.add_argument("fn", help="path to a function table file")
    p.add_argument("--p", type=int, default=None, help="samples per output bit")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_lsfind)

    p = sub.add_parser("distinguish-feistel",
                       help="decide Feistel vs random permutation on fresh instances")
    p.add_argument("--n", type=int, required=True, help="branch width in bits")
    p.add_argument("--target", choices=["feistel", "random"], required=True,
                   help="which kind of instance to generate and test")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(handler=_cmd_distinguish_feistel)

    p = sub.add_parser("attack-em", help="recover Even-Mansour whitening keys")
    p.add_argument("cipher", help="path to a cipher file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(handler=_cmd_attack_em)

    p = sub.add_parser("attack-diff", help="differential last-round key recovery")
    p.add_argument("cipher", help="path to a cipher file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--q", type=int, required=True,
                   help="key-coverage target parameter (coverage 1 - 1/q)")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--pairs", type=int, default=None)
    p.set_defaults(handler=_cmd_attack_diff)

    p = sub.add_parser("attack-smallprob",
                       help="key recovery from a rarely-satisfied differential")
    p.add_argument("cipher", help="path to a cipher file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--l", type=int, required=True,
                   help="rate separation parameter; right key scores below 1/l")
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(handler=_cmd_attack_smallprob)

    p = sub.add_parser("attack-impossible",
                       help="impossible-differential certificate search and key sieve")
    p.add_argument("cipher", help="path to a cipher file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(handler=_cmd_attack_impossible)

    p = sub.add_parser("verify-theorems", help="run the bound-validation experiments")
    p.add_argument("--which", choices=list(ALL_EXPERIMENTS) + ["all"], default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--z", type=float, default=3.0)
    p.add_argument("--variant", default="default")
    p.add_argument("--config", default=None, help="JSON experiment config file")
    p.set_defaults(handler=_cmd_verify_theorems)

    p = sub.add_parser("gen-cipher", help="generate a cipher instance file")
    p.add_argument("--kind", choices=["feistel3", "even-mansour", "toy"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None,
                   help="cipher file path (default <kind>-n<n>-seed<seed>.cipher)")
    p.add_argument("--preset", choices=["weak", "strong"], default="weak")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--challenge", action="store_true",
                   help="omit secret keys and round functions from the file")
    p.set_defaults(handler=_cmd_gen_cipher)

    for name, sp in sub.choices.items():
        if name != "gen-cipher":
            sp.add_argument("--out", default=None,
                            help="write the JSON report here instead of stdout")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        report, code = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2) + "\n"
    if args.subcommand != "gen-cipher" and args.out is not None:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code
