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
from dataclasses import asdict, dataclass, field
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

ALL_EXPERIMENTS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")

# per-experiment default (n, trials); n means function width for T1-T3,
# half-block for T4, block width for T5, and the toy cipher width for T6-T8
_DEFAULT_SHAPE = {
    "T1": (6, 400),
    "T2": (6, 500),
    "T3": (4, 300),
    "T4": (6, 200),
    "T5": (8, 500),
    "T6": (4, 100),
    "T7": (6, 100),
    "T8": (4, 1000),
}

# widest table built, in multiples of n: 2n-bit Feistel blocks, n + 2n-bit keyed
# toy families; T1's corpus stays at most 8 bits wide whatever n is
_WIDTH_FACTOR = {"T1": 0, "T2": 1, ("T2", "strong-toy"): 3, "T3": 1, "T4": 2, "T5": 1,
                 "T6": 3, "T7": 3, "T8": 3}


def default_shape(which: str) -> tuple[int, int]:
    if which not in _DEFAULT_SHAPE:
        raise ValueError(f"unknown experiment {which!r}")
    return _DEFAULT_SHAPE[which]


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


@dataclass(frozen=True)
class ExperimentConfig:
    which: str
    n: int
    trials: int
    seed: int
    z: float = 3.0
    variant: str = "default"

    def __post_init__(self) -> None:
        if self.which not in _DEFAULT_SHAPE:
            raise ValueError(f"unknown experiment {self.which!r}")
        if self.trials < 30:
            raise ValueError(f"need at least 30 trials for rate estimates, got {self.trials}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        bits = self.n * _WIDTH_FACTOR.get((self.which, self.variant), _WIDTH_FACTOR[self.which])
        if bits > MAX_WIDTH:
            raise ValueError(f"{self.which} at n = {self.n} needs {bits}-bit tables, over {MAX_WIDTH}")


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
    xs = np.arange(1 << F.m)
    match = int(np.count_nonzero((F.table[xs ^ a] ^ F.table) == alpha))
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


def _run_t1(cfg: ExperimentConfig) -> ExperimentResult:
    corpus = _t1_corpus(max(cfg.n, 4), cfg.seed)
    checks = []
    details: dict = {"corpus_size": len(corpus), "grid": []}
    for gi, (p, eps) in enumerate(_QUALITY_GRID):
        good = 0
        found = 0
        for t in range(cfg.trials):
            f = corpus[t % len(corpus)]
            res = find_boolean_structures(f, p=p, seed=(cfg.seed, 111, gi, t))
            if not res.found:
                continue
            found += 1
            cand = res.smallest_candidate()
            if cand is None:
                continue
            a, i = cand
            defect = 1.0 - derivative_count(f, a, i) / (1 << f.n)
            if eps >= 1.0 or defect < eps:
                good += 1
        denom = max(found, 1)
        rate = good / denom
        bound = hoeffding_success_bound(p, eps)
        checks.append(BoundCheck.at_least(
            f"quality-rate-p{p}-eps{eps}", rate, bound,
            binomial_margin(rate, denom, cfg.z), denom))
        details["grid"].append({"p": p, "eps": eps, "bound": bound,
                                "found": found, "good": good,
                                "found_rate": found / cfg.trials})
    return ExperimentResult(cfg, tuple(checks), details)


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

    rate = no_count / cfg.trials
    worst_union = max(u for _, u, _ in cache.values())
    p0 = max(d for _, _, d in cache.values())
    union_bound = 1.0 - min(1.0, worst_union)
    checks = [
        BoundCheck.at_least("no-rate", rate, union_bound,
                            binomial_margin(rate, cfg.trials, cfg.z), cfg.trials),
    ]
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
    rate = no_count / cfg.trials
    bound = 1.0 - min(1.0, worst_union)
    checks = [BoundCheck.at_least("no-rate", rate, bound,
                                  binomial_margin(rate, cfg.trials, cfg.z), cfg.trials)]
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
    checks = []
    details: dict = {"corpus_size": len(corpus), "grid": []}
    for gi, (p, eps) in enumerate(_QUALITY_GRID):
        good = 0
        found = 0
        for t in range(cfg.trials):
            F = corpus[t % len(corpus)]
            res = find_vector_structures(F, p=p, seed=(cfg.seed, 141, gi, t))
            if not res.found:
                continue
            found += 1
            if _joint_defect(F, res.a, res.alpha) < n * eps:
                good += 1
        denom = max(found, 1)
        rate = good / denom
        bound = hoeffding_success_bound(p, eps) ** n
        checks.append(BoundCheck.at_least(
            f"joint-quality-rate-p{p}-eps{eps}", rate, bound,
            binomial_margin(rate, denom, cfg.z), denom))
        details["grid"].append({"p": p, "eps": eps, "bound": bound,
                                "found": found, "good": good,
                                "found_rate": found / cfg.trials})
    return ExperimentResult(cfg, tuple(checks), details)


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

    fy = yes["feistel"] / cfg.trials
    ry = yes["random"] / cfg.trials
    acc = accounting_ok / cfg.trials
    bound = 1.0 - (2.0 / 3.0) ** (n + 1)
    checks = [
        BoundCheck.at_least("feistel-yes-rate", fy, bound,
                            binomial_margin(fy, cfg.trials, cfg.z), cfg.trials),
        BoundCheck.at_most("random-yes-rate", ry, 0.05, 0.0, cfg.trials),
        BoundCheck.at_least("query-accounting", acc, 1.0, 0.0, cfg.trials),
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
    rate = ok / cfg.trials
    acc = accounting_ok / cfg.trials
    bound = 1.0 - (2.0 / 3.0) ** n
    checks = [
        BoundCheck.at_least("recovery-rate", rate, bound,
                            binomial_margin(rate, cfg.trials, cfg.z), cfg.trials),
        BoundCheck.at_least("query-accounting", acc, 1.0, 0.0, cfg.trials),
    ]
    return ExperimentResult(cfg, tuple(checks), {"expected_quantum": n * n})


# ---------------------------------------------------------------------------
# T6: differential attack


def _run_t6(cfg: ExperimentConfig) -> ExperimentResult:
    n = cfg.n
    q = max(2, n)
    threshold = Fraction(1) - Fraction(1, q)
    planted = 0
    coverage_ok = 0
    recovered = 0
    for t in range(cfg.trials):
        cipher = ToyCipher.generate(n, "weak", seed=(cfg.seed, 170, t))
        rep = differential_attack(cipher.public, cipher.encrypt_table(),
                                  seed=(cfg.seed, 171, t), q=q)
        if not rep.found:
            continue
        if rep.a == 3 and rep.alpha == 3:
            planted += 1
        if key_fraction_meeting(cipher.public, rep.a, rep.alpha, threshold) >= threshold:
            coverage_ok += 1
        if rep.recovered_last_key == cipher.last_key:
            recovered += 1
    pr = planted / cfg.trials
    cr = coverage_ok / cfg.trials
    rr = recovered / cfg.trials
    checks = [
        BoundCheck.at_least("planted-differential-rate", pr, 0.99,
                            binomial_margin(pr, cfg.trials, cfg.z), cfg.trials),
        BoundCheck.at_least("key-coverage-rate", cr, 1.0, 0.0, cfg.trials),
        BoundCheck.at_least("recovery-rate", rr, 0.95, 0.0, cfg.trials),
    ]
    details = {"q": q, "threshold": str(threshold), "key_bits": 2 * n}
    return ExperimentResult(cfg, tuple(checks), details)


# ---------------------------------------------------------------------------
# T7: small-probability attack


def _run_t7(cfg: ExperimentConfig) -> ExperimentResult:
    n = cfg.n
    l = q = n
    exceed = 0
    wrong_sum = 0.0
    wrong_cnt = 0
    recovered = 0
    found = 0
    for t in range(cfg.trials):
        cipher = ToyCipher.generate(n, "weak", seed=(cfg.seed, 180, t))
        rep = small_probability_attack(cipher.public, cipher.encrypt_table(),
                                       seed=(cfg.seed, 181, t), q=q, l=l)
        if not rep.found:
            continue
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
    er = exceed / cfg.trials
    wrong_mean = wrong_sum / wrong_cnt if wrong_cnt else 0.0
    bound = 3.0 * math.exp(-n / 2.0)
    checks = [
        BoundCheck.at_most("right-key-exceed-rate", er, bound,
                           binomial_margin(er, cfg.trials, cfg.z), cfg.trials),
        BoundCheck.at_least("wrong-key-mean-rate-lower", wrong_mean, 0.45, 0.0, cfg.trials),
        BoundCheck.at_most("wrong-key-mean-rate-upper", wrong_mean, 0.55, 0.0, cfg.trials),
    ]
    details = {"l": l, "q": q, "found": found, "recovery_rate": recovered / cfg.trials,
               "p_per_component": (n ** 3) * (l ** 2) * (q ** 2)}
    return ExperimentResult(cfg, tuple(checks), details)


# ---------------------------------------------------------------------------
# T8: impossible differential


def _run_t8(cfg: ExperimentConfig) -> ExperimentResult:
    n = cfg.n
    found = 0
    valid = 0
    true_alive = 0
    alive_total = 0
    for t in range(cfg.trials):
        cipher = ToyCipher.generate(n, "weak", seed=(cfg.seed, 190, t))
        rep = impossible_attack(cipher.public, cipher.encrypt_table(),
                                seed=(cfg.seed, 191, t))
        if not rep.found:
            continue
        found += 1
        if rep.certificate_valid:
            valid += 1
        if cipher.last_key in rep.alive:
            true_alive += 1
        alive_total += len(rep.alive)
    vr = valid / found if found else 0.0
    ta = true_alive / found if found else 0.0
    checks = [
        BoundCheck.at_least("certificate-found-rate", found / cfg.trials, 0.99,
                            binomial_margin(found / cfg.trials, cfg.trials, cfg.z),
                            cfg.trials),
        BoundCheck.at_least("certificate-validity-rate", vr, 0.99, 0.0, found),
        BoundCheck.at_least("true-key-alive-rate", ta, 1.0, 0.0, found),
    ]
    details = {"found": found, "mean_alive": alive_total / found if found else 0.0}
    return ExperimentResult(cfg, tuple(checks), details)


_RUNNERS = {
    "T1": _run_t1,
    "T2": _run_t2,
    "T3": _run_t3,
    "T4": _run_t4,
    "T5": _run_t5,
    "T6": _run_t6,
    "T7": _run_t7,
    "T8": _run_t8,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one bound-validation experiment; trials below 30 are rejected at
    config construction."""
    return _RUNNERS[cfg.which](cfg)


def load_experiment_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON file.  Required keys: which,
    seed.  Optional: n, trials (default per experiment), z, variant."""
    import json

    with open(path, "r", encoding="ascii") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("experiment config must be a JSON object")
    unknown = set(raw) - {"which", "n", "trials", "seed", "z", "variant"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("which", "seed"):
        if key not in raw:
            raise ValueError(f"experiment config missing {key!r}")
    which = raw["which"]
    dn, dt = default_shape(which)
    return ExperimentConfig(
        which=which,
        n=int(raw.get("n", dn)),
        trials=int(raw.get("trials", dt)),
        seed=int(raw["seed"]),
        z=float(raw.get("z", 3.0)),
        variant=str(raw.get("variant", "default")),
    )
