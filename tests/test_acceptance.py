"""Acceptance criteria, one test per criterion, one verdict line each.

Run order matches the numbered contract.  Every test prints a single
"ACCEPTANCE <k> PASS ..." line on the live terminal (bypassing capture, so
it shows under plain pytest -v).  Statistical checks use the analytic bound
minus three binomial standard errors unless the contract fixes a plain
threshold.
"""

import json
import sys
import time

import numpy as np
import pytest
from scipy import stats

from bvattack.boolfn import (
    BooleanFunction,
    derivative_count,
    linear_structures_exhaustive,
    linear_structures_via_spectrum,
    random_boolean_function,
    restricted_spectral_mass,
    walsh_spectrum,
)
from bvattack.bv import BvSampler
from bvattack.cli import main
from bvattack.experiments import ExperimentConfig, default_shape, run_experiment
from bvattack.rng import seeded_rng

from oracles import (
    boolean_structures_direct,
    restricted_mass_direct,
    sample_distribution_direct,
)

SEED = 20240901

_emit = print


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    # route verdict lines past pytest's capture so plain -v shows them
    global _emit

    def emit(msg):
        with capfd.disabled():
            print(msg)
            sys.stdout.flush()

    _emit = emit
    yield
    _emit = print


def _report(k, text, t0):
    _emit(f"ACCEPTANCE {k} PASS: {text} ({time.perf_counter() - t0:.1f}s)")


def _run(which, variant="default", n=None, trials=None):
    dn, dt = default_shape(which)
    cfg = ExperimentConfig(which=which, n=n or dn, trials=trials or dt,
                           seed=SEED, variant=variant)
    res = run_experiment(cfg)
    detail = "; ".join(
        f"{c.label}={c.observed:.4f}{c.direction}{c.bound:.4f}-+{c.margin:.4f}"
        for c in res.checks)
    assert res.passed, f"{which}/{variant} failed: {detail}"
    return res, detail


def test_acceptance_01_sampler_outcome_law():
    """Support containment on 200 functions; chi-square on 1e5 draws."""
    t0 = time.perf_counter()
    for i in range(200):
        n = (i % 6) + 1
        f = random_boolean_function(n, seeded_rng(900, i))
        support = set(walsh_spectrum(f).support().tolist())
        out = BvSampler(f, (901, i)).draw(64)
        assert set(out.tolist()) <= support
    for j, n in enumerate((4, 5, 6)):
        f = random_boolean_function(n, seeded_rng(902, j))
        probs = sample_distribution_direct(f.table, n)
        draws = 100_000
        out = BvSampler(f, (903, j)).draw(draws)
        counts = np.bincount(out, minlength=1 << n)
        keep = [k for k in range(1 << n) if probs[k] > 0]
        assert sum(int(counts[k]) for k in range(1 << n) if k not in keep) == 0
        _, pvalue = stats.chisquare([int(counts[k]) for k in keep],
                                    [float(probs[k]) * draws for k in keep])
        assert pvalue > 1e-3, f"chi-square rejected at n={n}: p={pvalue}"
    _report(1, "sampler obeys the exact squared-coefficient law", t0)


def test_acceptance_02_exact_structure_theory():
    """Spectral mass identity on 1000 cases; structure sets match brute force."""
    t0 = time.perf_counter()
    for i in range(1000):
        n = (i % 10) + 1
        f = random_boolean_function(n, seeded_rng(910, i))
        rng = seeded_rng(911, i)
        a = int(rng.integers(1, 1 << n)) if n > 1 else 1
        bit = int(rng.integers(0, 2))
        spec = walsh_spectrum(f)
        mass = restricted_spectral_mass(spec, a, bit)
        assert mass == (1 << n) * derivative_count(f, a, bit)
        if n <= 6:
            assert mass == restricted_mass_direct(f.table, n, a, bit)
    for i in range(150):
        n = (i % 6) + 1
        f = random_boolean_function(n, seeded_rng(912, i))
        assert linear_structures_via_spectrum(walsh_spectrum(f)) == \
            boolean_structures_direct(f.table, n)
        assert linear_structures_exhaustive(f) == boolean_structures_direct(f.table, n)
    _report(2, "restricted spectral mass equals 2^n times the derivative count, exactly", t0)


def test_acceptance_03_search_quality_bound():
    t0 = time.perf_counter()
    _, detail = _run("T1")
    _report(3, f"candidate quality meets the Hoeffding bound [{detail}]", t0)


def test_acceptance_04_feistel_distinguisher():
    t0 = time.perf_counter()
    _, detail = _run("T4")
    _report(4, f"Feistel yes-rate, random no-rate, and exact query ledger [{detail}]", t0)


def test_acceptance_05_em_key_recovery():
    t0 = time.perf_counter()
    _, detail = _run("T5")
    _report(5, f"Even-Mansour recovery rate with n^2 quantum queries [{detail}]", t0)


def test_acceptance_06_differential_attack():
    t0 = time.perf_counter()
    res, detail = _run("T6")
    _report(6, f"planted differential, key coverage, >=95% recovery [{detail}]", t0)


def test_acceptance_07_small_probability_attack():
    t0 = time.perf_counter()
    res, detail = _run("T7")
    assert res.details["recovery_rate"] >= 0.95
    _report(7, f"right-key rate bound and wrong-key contrast [{detail}]", t0)


def test_acceptance_08_impossible_differential():
    t0 = time.perf_counter()
    res, detail = _run("T8")
    _report(8, f"certificate validity and sieve never kills the true key [{detail}]", t0)


def test_acceptance_09_no_rates_on_structure_free_inputs():
    t0 = time.perf_counter()
    res_r, d1 = _run("T2")
    res_b, d2 = _run("T2", variant="bent", trials=200)
    res_s, d3 = _run("T2", variant="strong-toy", n=4, trials=100)
    assert res_b.details["measured_delta_prime_max"] == 0.5
    assert 0 < res_r.details["measured_delta_prime_max"] < 1
    _report(9, "honest No on random, bent, and strong-cipher inputs; "
               f"measured worst-case bias {res_r.details['measured_delta_prime_max']:.3f} "
               f"[{d1} | {d2} | {d3}]", t0)


def test_acceptance_10_report_determinism(tmp_path, capfd):
    t0 = time.perf_counter()
    toy = tmp_path / "toy.txt"
    assert main(["gen-cipher", "--kind", "toy", "--n", "4", "--seed", "51",
                 "--preset", "weak", "--out", str(toy)]) == 0
    capfd.readouterr()
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["attack-diff", str(toy), "--seed", "53",
                     "--q", "4", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    other = tmp_path / "c.json"
    assert main(["attack-diff", str(toy), "--seed", "54",
                 "--q", "4", "--out", str(other)]) == 0
    assert other.read_bytes() != outs[0]
    pair = []
    for name in ("d.json", "e.json"):
        out = tmp_path / name
        assert main(["distinguish-feistel", "--n", "4", "--target", "feistel",
                     "--seed", "61", "--trials", "5", "--out", str(out)]) == 0
        pair.append(out.read_bytes())
    assert pair[0] == pair[1]
    json.loads(outs[0])  # reports stay valid JSON
    capfd.readouterr()
    _report(10, "identical flags and seeds give byte-identical reports", t0)
