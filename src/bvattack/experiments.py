"""Empirical validation of the advertised success bounds.

Eight seeded experiments, one per bound; the labels T1..T8 are stable
interface names used by the CLI and the test suite:

  T1  candidate quality of the single-function structure search
  T2  false-positive rate of the search on structure-free functions
  T3  joint candidate quality of the vector structure search
  T4  Feistel distinguisher success rates and query accounting
  T5  Even-Mansour key recovery rate and query accounting
  T6  differential attack: planted differential, key coverage, recovery
  T7  small-probability attack: right-key rate and wrong-key contrast
  T8  impossible differential: certificate validity and sieve safety

Each experiment compares measured rates against analytic bounds with a
binomial margin of z standard errors (z = 3 by default).  Thresholds that
the acceptance contract fixes as plain numbers (0.05, 0.95, 0.99, 1.0)
carry margin 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .attacks import (
    differential_attack,
    distinguish_feistel,
    impossible_attack,
    key_fraction_meeting,
    recover_em_key,
    small_probability_attack,
)
from .boolfn import (
    MAX_WIDTH,
    BooleanFunction,
    VectorFunction,
    WalshSpectrum,
    autocorrelation,
    derivative_count,
    derivative_table,
    linear_structures_exhaustive,
    random_boolean_function,
    structure_free_uniformity,
    vector_structures_exhaustive,
    walsh_spectrum,
)
from .ciphers import EvenMansour, Feistel3, ToyCipher, random_permutation, toy_reduced_family
from .lsfind import find_boolean_structures, find_vector_structures
from .rng import seeded_rng

__all__ = [
    "ALL_EXPERIMENTS",
    "BoundCheck",
    "ExperimentConfig",
    "ExperimentResult",
    "binomial_margin",
    "hoeffding_success_bound",
    "default_shape",
    "run_experiment",
    "example_quadratic",
    "planted_boolean",
    "planted_vector",
    "inner_product_function",
]

# width factor of a variant whose widest table differs from its experiment's
_VARIANT_WIDTH = {("T2", "strong-toy"): 3}
_VARIANTS = ("default", "random", "bent", "strong-toy")


def default_shape(which: str) -> tuple[int, int]:
    if which not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {which!r}")
    return _EXPERIMENTS[which][1]


def binomial_margin(rate: float, trials: int, z: float = 3.0) -> float:
    """z standard errors of a binomial rate estimate."""
    if trials < 1:
        raise ValueError("margin needs at least one trial")
    return z * math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)


def hoeffding_success_bound(p: int, eps: float) -> float:
    """1 - exp(-2 p eps^2): the per-candidate quality bound for p samples."""
    if p < 1:
        raise ValueError(f"sample count must be positive, got {p}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return 1.0 - math.exp(-2.0 * p * eps * eps)


@dataclass(frozen=True)
class BoundCheck:
    """One measured rate against one bound; margin already folded out."""

    label: str
    observed: float
    bound: float
    margin: float
    direction: str  # ">=" or "<="
    trials: int
    passed: bool

    @classmethod
    def at_least(cls, label: str, observed: float, bound: float, margin: float,
                 trials: int) -> "BoundCheck":
        return cls(label, observed, bound, margin, ">=", trials,
                   observed >= bound - margin)

    @classmethod
    def at_most(cls, label: str, observed: float, bound: float, margin: float,
                trials: int) -> "BoundCheck":
        return cls(label, observed, bound, margin, "<=", trials,
                   observed <= bound + margin)


def _check(label: str, hits: int, trials: int, bound: float, z: float = 0.0,
           at_most: bool = False) -> BoundCheck:
    """The rate hits / trials (0 without trials) against bound, with a margin
    of z binomial standard errors; z = 0 for a fixed contract threshold."""
    rate = hits / trials if trials else 0.0
    margin = binomial_margin(rate, trials, z) if z else 0.0
    return (BoundCheck.at_most if at_most else BoundCheck.at_least)(
        label, rate, bound, margin, trials)


@dataclass(frozen=True)
class ExperimentConfig:
    which: str
    n: int
    trials: int
    seed: int
    z: float = 3.0
    variant: str = "default"

    def __post_init__(self) -> None:
        if self.which not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.which!r}")
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {', '.join(_VARIANTS)}")
        if self.trials < 30:
            raise ValueError(f"need at least 30 trials for rate estimates, got {self.trials}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 0 <= self.z < math.inf:
            raise ValueError(f"z must be finite and non-negative, got {self.z}")
        bits = self.n * _VARIANT_WIDTH.get((self.which, self.variant), _EXPERIMENTS[self.which][2])
        if bits > MAX_WIDTH:
            raise ValueError(f"{self.which} at n = {self.n} needs {bits}-bit tables, over {MAX_WIDTH}")

    @classmethod
    def with_defaults(cls, which: str, seed: int, n: int | None = None,
                      trials: int | None = None, z: float = 3.0,
                      variant: str = "default") -> "ExperimentConfig":
        """The config with n and trials, where None, taken from default_shape."""
        dn, dt = default_shape(which)
        return cls(which, dn if n is None else n, dt if trials is None else trials,
                   seed, z, variant)


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    checks: tuple[BoundCheck, ...]
    details: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "which": self.config.which,
            "config": asdict(self.config),
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# corpora


def example_quadratic() -> BooleanFunction:
    """x1 x2 + x3: the classic single-structure example (001 flips the output)."""
    x = np.arange(8)
    return BooleanFunction(3, (((x >> 2) & (x >> 1)) ^ x) & 1)


def planted_boolean(n: int, rng: np.random.Generator,
                    flips: int = 0) -> tuple[BooleanFunction, int, int]:
    """Random function with a planted structure (a, i), optionally damaged by
    flipping `flips` table entries."""
    a = int(rng.integers(1, 1 << n))
    i = int(rng.integers(0, 2))
    xs = np.arange(1 << n)
    reps = xs[xs < (xs ^ a)]
    table = np.zeros(1 << n, dtype=np.uint8)
    vals = rng.integers(0, 2, size=len(reps), dtype=np.uint8)
    table[reps] = vals
    table[reps ^ a] = vals ^ i
    if flips:
        pos = rng.choice(1 << n, size=flips, replace=False)
        table[pos] ^= 1
    return BooleanFunction(n, table), a, i


def planted_vector(m: int, n: int, rng: np.random.Generator,
                   flips: int = 0) -> tuple[VectorFunction, int, int]:
    """Vector function with a planted structure (a, alpha), optionally noisy."""
    a = int(rng.integers(1, 1 << m))
    alpha = int(rng.integers(0, 1 << n))
    xs = np.arange(1 << m)
    reps = xs[xs < (xs ^ a)]
    table = np.zeros(1 << m, dtype=np.int64)
    vals = rng.integers(0, 1 << n, size=len(reps), dtype=np.int64)
    table[reps] = vals
    table[reps ^ a] = vals ^ alpha
    if flips:
        pos = rng.choice(1 << m, size=flips, replace=False)
        table[pos] ^= rng.integers(1, 1 << n, size=flips, dtype=np.int64)
    return VectorFunction(m, n, table), a, alpha


def inner_product_function(n: int) -> BooleanFunction:
    """The half-against-half inner product; every nonzero derivative is
    exactly balanced, which is the worst case for ruling directions out."""
    if n % 2:
        raise ValueError("inner product function needs even n")
    x = np.arange(1 << n)
    half = n // 2
    lo = x & ((1 << half) - 1)
    hi = x >> half
    return BooleanFunction(n, (np.bitwise_count(hi & lo) & 1).astype(np.uint8))


def _structure_free_function(n: int, rng: np.random.Generator) -> BooleanFunction:
    """Random function rejected until it has no nonzero structure."""
    while True:
        f = random_boolean_function(n, rng)
        u0, u1 = linear_structures_exhaustive(f)
        if u0 == [0] and not u1:
            return f


def _joint_defect(F: VectorFunction, a: int, alpha: int) -> float:
    match = int(np.count_nonzero(derivative_table(F, a) == alpha))
    return 1.0 - match / (1 << F.m)


def _survival_union(spectra: list[WalshSpectrum], width: int, p: int) -> float:
    """Sum over nonzero directions a of the leading `width` input bits of
    the exact chance that a survives p samples of every component, the
    product of q0^p + q1^p.  q1(a) is the squared mass on {w : w . a = 1},
    the exact integer (4^m - 2^m C(a)) / 2, over the total mass 4^m."""
    m = spectra[0].n
    shift = m - width
    mass = 1 << (2 * m)
    total = float(mass)
    autos = [autocorrelation(spec) for spec in spectra]
    union = 0.0
    for a in range(1, 1 << width):
        prod = 1.0
        for c in autos:
            q1 = ((mass - (int(c[a << shift]) << m)) // 2) / total
            prod *= (1.0 - q1) ** p + q1 ** p
        union += prod
    return union


# ---------------------------------------------------------------------------
# T1: single-function candidate quality


_QUALITY_GRID = ((50, 0.25), (200, 0.1))


def _t1_corpus(n_max: int, seed: int) -> list[BooleanFunction]:
    """Planted-structure functions, half exact and half with table damage.
    The quality guarantee is conditional on a candidate being returned, so
    damaged entries mostly exercise the honest-No path."""
    fns = [example_quadratic()]
    widths = [4, 5, 6, 7, 8]
    for idx in range(20):
        n = min(widths[idx % len(widths)], n_max)
        rng = seeded_rng(seed, 110, idx)
        flips = max(1, (1 << n) // 32) if idx % 2 else 0
        fns.append(planted_boolean(n, rng, flips=flips)[0])
    return fns


def _quality_grid(cfg: ExperimentConfig, corpus: list, tag: int, search, good,
                  bound, prefix: str) -> ExperimentResult:
    """Candidate quality over _QUALITY_GRID: of the trials whose search found
    a candidate, the share that good(f, res, eps) accepts, against
    bound(p, eps).  Trial t searches corpus[t % len] with seed (seed, tag, gi, t)."""
    checks = []
    details: dict = {"corpus_size": len(corpus), "grid": []}
    for gi, (p, eps) in enumerate(_QUALITY_GRID):
        hits = found = 0
        for t in range(cfg.trials):
            f = corpus[t % len(corpus)]
            res = search(f, p=p, seed=(cfg.seed, tag, gi, t))
            if res.found:
                found += 1
                hits += good(f, res, eps)
        b = bound(p, eps)
        checks.append(_check(f"{prefix}-p{p}-eps{eps}", hits, max(found, 1), b, cfg.z))
        details["grid"].append({"p": p, "eps": eps, "bound": b,
                                "found": found, "good": hits,
                                "found_rate": found / cfg.trials})
    return ExperimentResult(cfg, tuple(checks), details)


def _eps_good_candidate(f: BooleanFunction, res, eps: float) -> bool:
    """The smallest candidate (a, i) holds on all but an eps share of inputs."""
    cand = res.smallest_candidate()
    return cand is not None and 1.0 - derivative_count(f, *cand) / (1 << f.n) < eps


def _run_t1(cfg: ExperimentConfig) -> ExperimentResult:
    return _quality_grid(cfg, _t1_corpus(max(cfg.n, 4), cfg.seed), 111,
                         find_boolean_structures, _eps_good_candidate,
                         hoeffding_success_bound, "quality-rate")


# ---------------------------------------------------------------------------
# T2: false-positive rate on structure-free functions


def _run_t2(cfg: ExperimentConfig) -> ExperimentResult:
    n = cfg.n
    p = 3 * n
    variant = cfg.variant if cfg.variant != "default" else "random"
    if variant == "strong-toy":
        return _run_t2_strong_toy(cfg)

    no_count = 0
    cache: dict[int, tuple[BooleanFunction, float, float]] = {}
    for t in range(cfg.trials):
        fi = 0 if variant == "bent" else t % 40
        if fi not in cache:
            f = (inner_product_function(n) if variant == "bent"
                 else _structure_free_function(n, seeded_rng(cfg.seed, 120, fi)))
            union = _survival_union([walsh_spectrum(f)], n, p)
            dp = structure_free_uniformity(f)
            cache[fi] = (f, union, float(dp) if dp is not None else 0.0)
        f = cache[fi][0]
        res = find_boolean_structures(f, p=p, seed=(cfg.seed, 121, t))
        if not res.found:
            no_count += 1

    worst_union = max(u for _, u, _ in cache.values())
    p0 = max(d for _, _, d in cache.values())
    union_bound = 1.0 - min(1.0, worst_union)
    checks = [_check("no-rate", no_count, cfg.trials, union_bound, cfg.z)]
    details = {
        "variant": variant,
        "p": p,
        "measured_delta_prime_max": p0,
        "raw_p0_to_p": p0 ** p,
        "coarse_union_bound": 1.0 - min(1.0, 2 * ((1 << n) - 1) * p0 ** p),
        "exact_union_bound": union_bound,
    }
    return ExperimentResult(cfg, tuple(checks), details)


def _run_t2_strong_toy(cfg: ExperimentConfig) -> ExperimentResult:
    """Strong-preset cipher variant: the joint search over data and key bits
    should answer No, at a rate matching the exact spectral survival odds."""
    n = cfg.n
    p = 4 * n
    no_count = 0
    rejected = 0
    worst_union = 0.0
    cache: dict[int, tuple] = {}
    for t in range(cfg.trials):
        ci = t % 20
        if ci not in cache:
            inst = None
            bump = 0
            while inst is None:
                cand = ToyCipher.generate(n, "strong", seed=(cfg.seed, 130, ci, bump))
                if len(vector_structures_exhaustive(
                        VectorFunction(n, n, cand.public.sbox))) == 1:
                    inst = cand
                else:
                    rejected += 1
                    bump += 1
            G = toy_reduced_family(inst.public)
            union = _survival_union([walsh_spectrum(G.component(j)) for j in range(1, n + 1)],
                                    n, p)
            cache[ci] = (G, union)
        G, union = cache[ci]
        worst_union = max(worst_union, union)
        res = find_vector_structures(G, p=p, seed=(cfg.seed, 131, t), solve_width=n)
        if not res.found:
            no_count += 1
    bound = 1.0 - min(1.0, worst_union)
    checks = [_check("no-rate", no_count, cfg.trials, bound, cfg.z)]
    details = {"variant": "strong-toy", "p": p, "exact_union_bound": bound,
               "rejected_sboxes": rejected}
    return ExperimentResult(cfg, tuple(checks), details)


# ---------------------------------------------------------------------------
# T3: vector candidate quality


def _run_t3(cfg: ExperimentConfig) -> ExperimentResult:
    n = cfg.n
    corpus = []
    for idx in range(10):
        rng = seeded_rng(cfg.seed, 140, idx)
        flips = max(1, (1 << n) // 32) if idx % 2 else 0
        corpus.append(planted_vector(n, n, rng, flips=flips)[0])
    return _quality_grid(
        cfg, corpus, 141, find_vector_structures,
        lambda F, res, eps: _joint_defect(F, res.a, res.alpha) < n * eps,
        lambda p, eps: hoeffding_success_bound(p, eps) ** n, "joint-quality-rate")


# ---------------------------------------------------------------------------
# T4: Feistel distinguisher


def _run_t4(cfg: ExperimentConfig) -> ExperimentResult:
    n = cfg.n
    p = n + 1
    yes = {"feistel": 0, "random": 0}
    accounting_ok = 0
    for t in range(cfg.trials):
        cipher = Feistel3.random(n, seed=(cfg.seed, 150, t))
        rep = distinguish_feistel(cipher.encrypt_table(), seed=(cfg.seed, 151, t))
        if rep.verdict:
            yes["feistel"] += 1
        exact = rep.queries["quantum"] == n * p and rep.queries["classical"] == 2
        perm = VectorFunction(2 * n, 2 * n,
                              random_permutation(2 * n, seeded_rng(cfg.seed, 152, t)))
        rrep = distinguish_feistel(perm, seed=(cfg.seed, 153, t))
        if rrep.verdict:
            yes["random"] += 1
        q = rrep.queries["quantum"]
        rc_ok = (q % p == 0 and q <= n * p
                 and rrep.queries["classical"] == (2 if rrep.candidate is not None else 0))
        if exact and rc_ok:
            accounting_ok += 1

    checks = [
        _check("feistel-yes-rate", yes["feistel"], cfg.trials,
               1.0 - (2.0 / 3.0) ** (n + 1), cfg.z),
        _check("random-yes-rate", yes["random"], cfg.trials, 0.05, at_most=True),
        _check("query-accounting", accounting_ok, cfg.trials, 1.0),
    ]
    details = {"p": p, "yes": yes, "expected_quantum_per_run": n * p}
    return ExperimentResult(cfg, tuple(checks), details)


# ---------------------------------------------------------------------------
# T5: Even-Mansour key recovery


def _run_t5(cfg: ExperimentConfig) -> ExperimentResult:
    n = cfg.n
    ok = 0
    accounting_ok = 0
    for t in range(cfg.trials):
        em = EvenMansour.random(n, seed=(cfg.seed, 160, t))
        rep = recover_em_key(em.perm_table(), em.encrypt_table(),
                             seed=(cfg.seed, 161, t))
        if rep.found and rep.k1 == em.k1:
            ok += 1
        if rep.queries["quantum"] == n * n and rep.queries["classical"] == 0:
            accounting_ok += 1
    checks = [
        _check("recovery-rate", ok, cfg.trials, 1.0 - (2.0 / 3.0) ** n, cfg.z),
        _check("query-accounting", accounting_ok, cfg.trials, 1.0),
    ]
    return ExperimentResult(cfg, tuple(checks), {"expected_quantum": n * n})


# ---------------------------------------------------------------------------
# T6-T8: attacks on weak toy ciphers


def _weak_toy_runs(cfg: ExperimentConfig, tag: int, attack, **kw):
    """(cipher, report) for each trial whose attack found something: trial t
    generates a weak toy cipher from (seed, tag, t) and attacks its encryption
    table with seed (seed, tag + 1, t)."""
    for t in range(cfg.trials):
        cipher = ToyCipher.generate(cfg.n, "weak", seed=(cfg.seed, tag, t))
        rep = attack(cipher.public, cipher.encrypt_table(), seed=(cfg.seed, tag + 1, t), **kw)
        if rep.found:
            yield cipher, rep


def _run_t6(cfg: ExperimentConfig) -> ExperimentResult:
    """Differential attack: planted differential, key coverage, recovery."""
    n = cfg.n
    q = max(2, n)
    threshold = Fraction(1) - Fraction(1, q)
    planted = coverage_ok = recovered = 0
    for t in range(cfg.trials):
        # as _weak_toy_runs, but the family is tabulated once for attack and coverage
        cipher = ToyCipher.generate(n, "weak", seed=(cfg.seed, 170, t))
        G = toy_reduced_family(cipher.public)
        rep = differential_attack(cipher.public, cipher.encrypt_table(), seed=(cfg.seed, 171, t),
                                  q=q, G=G)
        if not rep.found:
            continue
        if rep.a == 3 and rep.alpha == 3:
            planted += 1
        if key_fraction_meeting(G, rep.a, rep.alpha, threshold) >= threshold:
            coverage_ok += 1
        if rep.recovered_last_key == cipher.last_key:
            recovered += 1
    checks = [
        _check("planted-differential-rate", planted, cfg.trials, 0.99, cfg.z),
        _check("key-coverage-rate", coverage_ok, cfg.trials, 1.0),
        _check("recovery-rate", recovered, cfg.trials, 0.95),
    ]
    details = {"q": q, "threshold": str(threshold), "key_bits": 2 * n}
    return ExperimentResult(cfg, tuple(checks), details)


def _run_t7(cfg: ExperimentConfig) -> ExperimentResult:
    """Small-probability attack: right-key rate and wrong-key contrast."""
    n = cfg.n
    l = q = n
    exceed = wrong_cnt = recovered = found = 0
    wrong_sum = 0.0
    for cipher, rep in _weak_toy_runs(cfg, 180, small_probability_attack, q=q, l=l):
        found += 1
        lam_right = rep.counter.rate(cipher.last_key)
        if lam_right >= Fraction(1, l):
            exceed += 1
        for s in range(1 << n):
            if s != cipher.last_key:
                wrong_sum += float(rep.counter.rate(s))
                wrong_cnt += 1
        if rep.recovered_last_key == cipher.last_key:
            recovered += 1
    wrong_mean = wrong_sum / wrong_cnt if wrong_cnt else 0.0
    checks = [
        _check("right-key-exceed-rate", exceed, cfg.trials, 3.0 * math.exp(-n / 2.0),
               cfg.z, at_most=True),
        BoundCheck.at_least("wrong-key-mean-rate-lower", wrong_mean, 0.45, 0.0, cfg.trials),
        BoundCheck.at_most("wrong-key-mean-rate-upper", wrong_mean, 0.55, 0.0, cfg.trials),
    ]
    details = {"l": l, "q": q, "found": found, "recovery_rate": recovered / cfg.trials,
               "p_per_component": (n ** 3) * (l ** 2) * (q ** 2)}
    return ExperimentResult(cfg, tuple(checks), details)


def _run_t8(cfg: ExperimentConfig) -> ExperimentResult:
    """Impossible differential: certificate validity and sieve safety."""
    found = valid = true_alive = alive_total = 0
    for cipher, rep in _weak_toy_runs(cfg, 190, impossible_attack):
        found += 1
        if rep.certificate_valid:
            valid += 1
        if cipher.last_key in rep.alive:
            true_alive += 1
        alive_total += len(rep.alive)
    checks = [
        _check("certificate-found-rate", found, cfg.trials, 0.99, cfg.z),
        _check("certificate-validity-rate", valid, found, 0.99),
        _check("true-key-alive-rate", true_alive, found, 1.0),
    ]
    details = {"found": found, "mean_alive": alive_total / found if found else 0.0}
    return ExperimentResult(cfg, tuple(checks), details)


# name -> (runner, default (n, trials), widest table built in multiples of n).
# n is the function width for T1-T3, the half-block for T4 (2n-bit Feistel
# blocks), the block width for T5 and the toy cipher width for T6-T8 (n + 2n-bit
# keyed families); T1's corpus stays at most 8 bits wide whatever n is.
_EXPERIMENTS = {
    "T1": (_run_t1, (6, 400), 0),
    "T2": (_run_t2, (6, 500), 1),
    "T3": (_run_t3, (4, 300), 1),
    "T4": (_run_t4, (6, 200), 2),
    "T5": (_run_t5, (8, 500), 1),
    "T6": (_run_t6, (4, 100), 3),
    "T7": (_run_t7, (6, 100), 3),
    "T8": (_run_t8, (4, 1000), 3),
}
ALL_EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one bound-validation experiment; trials below 30 are rejected at
    config construction."""
    return _EXPERIMENTS[cfg.which][0](cfg)


# key -> the JSON types a config file may give it; bool is never an int here
_CONFIG_TYPES = {"which": str, "seed": int, "n": int, "trials": int,
                 "z": (int, float), "variant": str}


def load_experiment_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON file.  Required keys: which,
    seed.  Optional: n, trials (default per experiment), z, variant."""
    import json

    with open(path, "r", encoding="ascii") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("experiment config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("which", "seed"):
        if key not in raw:
            raise ValueError(f"experiment config missing {key!r}")
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[key]):
            raise ValueError(f"config key {key!r} has the wrong type: {value!r}")
    return ExperimentConfig.with_defaults(**{**raw, "z": float(raw.get("z", 3.0))})
