"""Layer spans recorded from outside the bvattack package.

`Tracer.install()` replaces public functions and methods of the package with
wrappers that record one span per call: its name, start, end and the span
that was open when it started.  A function is patched in every bvattack
module that holds a binding to it (the defining module and every module that
imported it), so calls made through any import path are seen.  Methods are
patched on their class.  `Tracer.uninstall()` puts every original back; the
package's own code is never edited.

Counts (draws, rows, elements, bytes, ...) are taken at the same boundaries
by small hooks that read the call's arguments and result.  Spans live in
memory as flat arrays and are aggregated after the run.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

CLI_SUBCOMMANDS = ("gen-cipher", "attack-em", "attack-impossible", "spectrum")

# Work counts that must repeat exactly between two cycles of one seed.
EXACT_COUNTS = (
    "bv.draw.draws",
    "ledger.quantum",
    "ledger.classical",
    "gf2.solve.rows",
    "boolfn.walsh_spectrum.elements",
    "ciphers.reduced_encrypt_all_keys.cells",
)


def _size(path) -> int:
    return os.path.getsize(path)


# -- count hooks: (counts, args, kwargs, result) -> None ----------------------


def _walsh(c, a, k, r):
    n = a[0].n
    c["boolfn.walsh_spectrum.elements"] += 1 << n
    # computed, not measured: n butterfly stages, each reading and writing
    # the whole 2^n int64 array once
    c["boolfn.walsh_spectrum.bytes_computed"] += n * (1 << n) * 16


def _load_fn(c, a, k, r):
    c["boolfn.load_function.bytes"] += _size(a[0])


def _save_fn(c, a, k, r):
    c["boolfn.save_function.bytes"] += _size(a[0])


def _sampler(c, a, k, r):
    c["bv.sampler_build.support"] += len(a[0].outcomes)


def _draw(c, a, k, r):
    c["bv.draw.draws"] += len(r)
    c["bv.draw.distinct"] += np.count_nonzero(np.bincount(r))


def _solve(c, a, k, r):
    c["gf2.solve.rows"] += len(a[0].constraints)


def _search(c, a, k, r):
    fn = a[0]
    vector = hasattr(fn, "m")  # VectorFunction; a BooleanFunction has one output
    c["lsfind.components.available"] += fn.n if vector else 1
    if hasattr(r, "components_done"):
        c["lsfind.components.sampled"] += r.components_done
    elif hasattr(r, "components"):
        c["lsfind.components.sampled"] += len(r.components)
    else:
        c["lsfind.components.sampled"] += 1


def _cells(c, a, k, r):
    c["ciphers.reduced_encrypt_all_keys.cells"] += r.size


def _load_cipher(c, a, k, r):
    c["ciphers.load_cipher.bytes"] += _size(a[0])


def _save_cipher(c, a, k, r):
    c["ciphers.save_cipher.bytes"] += _size(a[0])


def _rank(c, a, k, r):
    oracle, pairs = a[0], a[4]
    c["attacks.rank_last_round_keys.checks"] += pairs * (1 << oracle.fn.n)


def _cli_subcommand(a, k):
    """Span name of one cli.main call: cli.<subcommand>, or None for others."""
    argv = a[0] if a else k.get("argv")
    if argv and argv[0] in CLI_SUBCOMMANDS:
        return f"cli.{argv[0].replace('-', '_')}"
    return None


def _quantum(c, a, k, r):
    c["ledger.quantum"] += a[1] if len(a) > 1 else k.get("count", 1)


def _classical(c, a, k, r):
    c["ledger.classical"] += a[1] if len(a) > 1 else k.get("count", 1)


# (module, attribute, span name or None for count-only, count hook)
FUNCTIONS = (
    ("boolfn", "walsh_spectrum", "boolfn.walsh_spectrum", _walsh),
    ("boolfn", "load_function", "boolfn.load_function", _load_fn),
    ("boolfn", "save_function", "boolfn.save_function", _save_fn),
    ("boolfn", "differential_uniformity", "boolfn.derivative_scan", None),
    ("boolfn", "structure_free_uniformity", "boolfn.derivative_scan", None),
    ("boolfn", "linear_structures_exhaustive", "boolfn.derivative_scan", None),
    ("boolfn", "vector_structures_exhaustive", "boolfn.derivative_scan", None),
    ("gf2", "solve", "gf2.solve", _solve),
    ("gf2", "intersect", "gf2.intersect", None),
    ("gf2", "constancy_set", "gf2.constancy_set", None),
    ("lsfind", "find_boolean_structures", "lsfind.search", _search),
    ("lsfind", "find_vector_structures", "lsfind.search", _search),
    ("lsfind", "find_common_zero_structure", "lsfind.search", _search),
    ("ciphers", "load_cipher", "ciphers.load_cipher", _load_cipher),
    ("ciphers", "save_cipher", "ciphers.save_cipher", _save_cipher),
    ("attacks", "distinguish_feistel", "attacks.driver", None),
    ("attacks", "recover_em_key", "attacks.driver", None),
    ("attacks", "differential_attack", "attacks.driver", None),
    ("attacks", "small_probability_attack", "attacks.driver", None),
    ("attacks", "impossible_attack", "attacks.driver", None),
    ("attacks", "rank_last_round_keys", "attacks.rank_last_round_keys", _rank),
    ("attacks", "impossible_certificate_valid", "attacks.impossible_certificate_valid", None),
    ("experiments", "run_experiment", "experiments.run_experiment", None),
    ("cli", "main", "cli.main", None),
    ("rng", "seeded_rng", "rng.seeded_rng", None),
)

# Layers whose spans are split further: a function of a call's arguments gives
# the span's own name, reported as <name>.busy_s beside the layer's figures.
SUBSPANS = {"cli.main": _cli_subcommand}

# (module, class, method, span name or None for count-only, count hook)
METHODS = (
    ("boolfn", "VectorFunction", "component", "boolfn.component", None),
    ("bv", "BvSampler", "__init__", "bv.sampler_build", _sampler),
    ("bv", "BvSampler", "draw", "bv.draw", _draw),
    ("bv", "QueryLedger", "add_quantum", None, _quantum),
    ("bv", "QueryLedger", "add_classical", None, _classical),
    ("ciphers", "ToyCipherPublic", "reduced_encrypt_all_keys",
     "ciphers.reduced_encrypt_all_keys", _cells),
    ("ciphers", "ToyCipher", "generate", "ciphers.generate", None),
    ("ciphers", "EvenMansour", "random", "ciphers.generate", None),
    ("ciphers", "Feistel3", "random", "ciphers.generate", None),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[int] = []  # per name: its layer's name id
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.nested = array("b")
        self.hook = array("d")  # time spent in count hooks within each span
        self._stack: list[int] = []
        self._stack_layers: list[int] = []
        self.counts: defaultdict[str, int | float] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str, layer: int | None = None) -> int:
        if name not in self._name_ids:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.layer_of.append(nid if layer is None else layer)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        layer = self.layer_of[nid]
        self.nested.append(layer in self._stack_layers)
        self.hook.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._stack_layers.append(layer)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._stack_layers.pop()

    def _charge_hook(self, seconds: float) -> None:
        # a hook runs inside every open span; its time is not the layer's
        for idx in self._stack:
            self.hook[idx] += seconds

    def _wrap(self, fn, name, hook):
        counts = self.counts
        calls_key = f"{name}.calls" if name else None
        nid = self._intern(name) if name else -1
        subspan = SUBSPANS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if nid < 0:
                result = fn(*args, **kwargs)
                t0 = time.perf_counter()
                hook(counts, args, kwargs, result)
                tracer._charge_hook(time.perf_counter() - t0)
                return result
            sub = subspan(args, kwargs) if subspan else None
            idx = tracer._open(tracer._intern(sub, nid) if sub else nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            counts[calls_key] += 1
            if hook is not None:
                t0 = time.perf_counter()
                hook(counts, args, kwargs, result)
                tracer._charge_hook(time.perf_counter() - t0)
            return result

        return functools.wraps(fn)(traced)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "bvattack" or n.startswith("bvattack.")) and m is not None]
        for mod_name, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules[f"bvattack.{mod_name}"], attr)
            wrapped = self._wrap(original, name, hook)
            for mod in mods:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapped)
        for mod_name, cls_name, attr, name, hook in METHODS:
            cls = getattr(sys.modules[f"bvattack.{mod_name}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, hook))
            else:
                wrapped = self._wrap(raw, name, hook)
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation ---------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Position to aggregate from: (span count, snapshot of the counts)."""
        return len(self.start), dict(self.counts)

    def aggregate(self, begin: tuple[int, dict], finish: tuple[int, dict]) -> dict:
        """Busy time, self time and counts of the spans and counts recorded
        between two marks.  Busy time counts only the outermost span of each
        layer, so a layer that reaches itself again is not counted twice.
        A layer's figures cover all its spans; a span named by SUBSPANS also
        gets its own busy time.  Time spent in count hooks is taken out of
        every span it fell in."""
        lo, hi = begin[0], finish[0]
        nid = np.frombuffer(self.name_id, dtype=np.int64)[lo:hi]
        start = np.frombuffer(self.start)[lo:hi]
        dur = np.frombuffer(self.end)[lo:hi] - start - np.frombuffer(self.hook)[lo:hi]
        outer = np.frombuffer(self.nested, dtype=np.int8)[lo:hi] == 0
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        child = np.zeros(len(dur))
        inside = parent >= 0
        np.add.at(child, parent[inside], dur[inside])
        self_t = dur - child
        layer = np.asarray(self.layer_of, dtype=np.int64)[nid]
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            is_layer = self.layer_of[k] == k
            sel = (layer if is_layer else nid) == k
            if not sel.any():
                continue
            out[f"{name}.busy_s"] = float(dur[sel & outer].sum())
            if is_layer:
                out[f"{name}.self_s"] = float(self_t[sel].sum())
        before, after = begin[1], finish[1]
        for key, value in after.items():
            out[key] = value - before.get(key, 0)
        return out
