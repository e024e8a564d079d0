"""The benchmark (perfbench/run.py and perfbench/tracing.py) reaches into the
package by name; a rename or deletion in the package would silently break a
benchmark run, so every name it uses must still resolve, as must every name
the package exports.  The scripts under scripts/ must still run to the end."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing_module():
    # executed from its source text so nothing is written next to it
    mod = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def test_traced_names_resolve():
    tracing = _tracing_module()
    for mod_name, attr, *_ in tracing.FUNCTIONS:
        mod = importlib.import_module(f"bvattack.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"bvattack.{mod_name}.{attr}"
    for mod_name, cls_name, attr, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"bvattack.{mod_name}"), cls_name)
        assert attr in cls.__dict__, f"bvattack.{mod_name}.{cls_name}.{attr}"


def test_exported_names_resolve():
    # a deleted or renamed name left in an __all__ breaks `import *` only
    import bvattack

    mods = [bvattack] + [importlib.import_module(f"bvattack.{p.stem}")
                         for p in sorted((ROOT / "src" / "bvattack").glob("*.py"))
                         if p.stem not in ("__init__", "__main__")]
    for mod in mods:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


def _unresolved_readme_names(text: str) -> list[str]:
    """The Class.attr names of `text` whose class the package does not
    define or whose attribute it lacks, and the bvattack.<module>.<name>
    names that do not resolve."""
    classes = {}
    for path in sorted((ROOT / "src" / "bvattack").glob("*.py")):
        if path.stem != "__main__":
            mod = importlib.import_module(f"bvattack.{path.stem}")
            classes.update((name, obj) for name, obj in vars(mod).items()
                           if inspect.isclass(obj) and obj.__module__ == mod.__name__)
    bad = [f"{cls}.{attr}" for cls, attr in re.findall(r"\b([A-Z][a-z]\w*)\.(\w+)", text)
           if not hasattr(classes.get(cls), attr)]
    for mod_name, attr in re.findall(r"\bbvattack\.(\w+)\.(\w+)", text):
        try:
            found = hasattr(importlib.import_module(f"bvattack.{mod_name}"), attr)
        except ImportError:
            found = False
        if not found:
            bad.append(f"bvattack.{mod_name}.{attr}")
    return bad


def test_readme_names_resolve():
    # a rename or deletion leaves no stale name in the README's prose
    assert _unresolved_readme_names(
        "ToyCipherPublic.keyed_rounds, ToyCipherPublic.key_bits, G.n, README.md, "
        "bvattack.bv.MAX_DRAWS, bvattack.bv.walsh_spectrum, bvattack.nope.x") == [
        "ToyCipherPublic.keyed_rounds", "bvattack.bv.walsh_spectrum", "bvattack.nope.x"]
    assert _unresolved_readme_names((ROOT / "README.md").read_text()) == []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither references nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # no linter is installed, so the check is a plain walk of each module's syntax tree
    assert _unused_imports("import os\nfrom a import b, c as d\nos.sep\n__all__ = ['d']\n") == [
        "b (line 2)"]
    for path in sorted((ROOT / "src" / "bvattack").glob("*.py")):
        assert _unused_imports(path.read_text()) == [], path.name


def _unreferenced_names(sources: dict[str, str], outside: dict[str, str],
                        traced: frozenset = frozenset()) -> list[str]:
    """Module-level names of `sources` that nothing uses, then the public
    methods and properties of their public classes that nothing uses.  A
    private name (a leading underscore, not a dunder) is used where any
    module of `sources` references it by name, attribute or import.  A public
    function or class is used where a module of `sources` other than
    `__init__` references it by name or attribute, or an `outside` file (a
    script or the benchmark, which names what it patches in strings) by name,
    attribute or string; a re-export in `__init__` or an `__all__` string is
    no use.  A method is used where a module of `sources` or an `outside` file
    reads it as an attribute, or where its (class, method) pair is in
    `traced`, the methods the benchmark patches; a string is no use."""
    defined, methods, used, used_public, attrs = [], [], set(), set(), set()
    for module, source in {**sources, **outside}.items():
        tree = ast.parse(source)
        refs = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and module in sources:
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and module in outside):
                refs.add(node.value)
        if module in outside:
            used_public |= refs
            continue
        used |= refs
        if module != "__init__":
            used_public |= refs
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            public = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            defined += [(module, name) for name in names if not name.startswith("__")
                        and (name.startswith("_") or public)]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                methods += [(module, node.name, m.name) for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not m.name.startswith("_")]
    return [f"{module}.{name}" for module, name in defined
            if name not in (used if name.startswith("_") else used_public)] + [
        f"{module}.{cls}.{name}" for module, cls, name in methods
        if name not in attrs and (cls, name) not in traced]


# Public functions, classes and methods that only tests call, each with why it stays.
_TESTS_ONLY_PUBLIC = {
    "boolfn.restricted_spectral_mass": "the sampler-law acceptance criterion the acceptance "
                                       "suite states its check in",
    "boolfn.random_vector_function": "the generator of the tests' random vector-function corpus",
}


def test_no_dead_private_helpers():
    # nor public ones: a function, class or method that only tests call lives
    # in tests/oracles.py or is named above
    assert _unreferenced_names({
        "a": "def _used(): pass\ndef _dead(): pass\n_X = 1\n_Y: int = 2\n__v__ = 3\n"
             "def pub(): pass\nclass Pub: pass\ndef lone(): pass\ndef named(): pass\n"
             "def inner(): pass\nP = 1\n__all__ = ['lone']\n"
             "class C:\n    def read(self): pass\n    def value(self): pass\n"
             "    def patched(self): pass\n    @property\n    def size(self): pass\n"
             "    def _own(self): pass\nclass _D:\n    def dead(self): pass\n",
        "b": "from a import _used, named, C, _D\nprint(_X, pub(), C().size)\n",
        "__init__": "from a import lone, inner\ninner()\n",
    }, {"run.py": "import a\nx = a.Pub\ngetattr(a, 'named')\ny = a.C.read\nz = {'value': 1}\n"},
        frozenset({("C", "patched")})) == ["a._dead", "a._Y", "a.lone", "a.inner", "a.C.value"]
    src = ROOT / "src" / "bvattack"
    sources = {p.stem: p.read_text() for p in sorted(src.glob("*.py"))}
    outside = {str(p.relative_to(ROOT)): p.read_text()
               for p in sorted([*(ROOT / "scripts").glob("*.py"), *PERFBENCH.glob("*.py")])}
    # read the way test_traced_names_resolve reads it
    traced = frozenset((cls_name, attr) for _, cls_name, attr, *_ in _tracing_module().METHODS)
    assert sorted(_unreferenced_names(sources, outside, traced)) == sorted(_TESTS_ONLY_PUBLIC)


def _calls(source: str, names: set[str]) -> list[int]:
    """The lines of `source` that call a function or method named in `names`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in names]


def test_no_module_calls_draw():
    # the searches read sample sets, which stop once every outcome has shown;
    # a full draw pays one binary search per uniform, so only tests call it
    assert _calls("s.draw(5)\nx = s.draw\ns.sample_set(5)\nf(draw=1)\n", {"draw"}) == [1]
    for path in sorted((ROOT / "src" / "bvattack").glob("*.py")):
        assert _calls(path.read_text(), {"draw"}) == [], path.name


def _stream_layout_uses(source: str) -> list[int]:
    """The lines of `source` that jump a stream (`advance`) or reach a bit
    generator or its `state`, numpy's private stream layout."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and node.attr in ("advance", "bit_generator", "state")})


def test_no_module_reaches_into_the_bit_generator():
    # a sample set leaves its stream after the last block it drew, and each
    # sampler serves one; nothing in the package moves or reads a stream's
    # position, which would tie it to numpy's PCG64 layout
    assert _stream_layout_uses("g.bit_generator.advance(3)\nx = b.state\nb.state = x\n"
                               "g.integers(0, 4)\nf(state=1)\n") == [1, 2, 3]
    for path in sorted((ROOT / "src" / "bvattack").glob("*.py")):
        assert _stream_layout_uses(path.read_text()) == [], path.name


def test_no_search_builds_samplers_from_component_tables():
    # the vector, common-zero and impossible searches take their samplers
    # from bv.component_samplers, one butterfly per block of output bits; a
    # build through VectorFunction.component copies a bit table and runs a
    # butterfly per bit.  BvSampler.__init__ and component stay, as the
    # per-bit entry and the benchmark's hooks.  bv builds samplers, lsfind
    # alone reads them (the boolean search builds its one sampler itself),
    # and no other module, attacks included, builds one.
    assert _calls("F.component(1)\nc = F.component\nbv.component_samplers(F, 1)\n",
                  {"component"}) == [1]
    assert _calls("BvSampler(f, 1)\nBvSampler.__new__(BvSampler)\nbv.BvSampler(f, 2)\n",
                  {"BvSampler"}) == [1, 3]
    for path in sorted((ROOT / "src" / "bvattack").glob("*.py")):
        source = path.read_text()
        per_bit, blocked = (1, 3) if path.stem == "lsfind" else (0, 0)
        if path.stem in ("lsfind", "attacks"):
            assert _calls(source, {"component"}) == [], path.name
        assert len(_calls(source, {"BvSampler"})) == per_bit, path.name
        assert len(_calls(source, {"component_samplers"})) == blocked, path.name


def test_searches_share_one_signature():
    # every structure search takes (F, p, seed, ledger) first, and the two
    # that search a truncated input end with the same keyword, so one call
    # shape drives any of them (the toy attacks pass their search to one
    # search phase)
    from bvattack import lsfind

    searches = sorted(name for name in lsfind.__all__ if name.startswith("find_"))
    assert searches == ["find_boolean_structures", "find_common_zero_structure",
                        "find_impossible_differential", "find_vector_structures"]
    for name in searches:
        params = list(inspect.signature(getattr(lsfind, name)).parameters)
        assert params[1:4] == ["p", "seed", "ledger"], name
        if name in ("find_impossible_differential", "find_vector_structures"):
            assert params[4:] == ["solve_width"], name


def _definitions(source: str, names: set[str]) -> list[str]:
    """The names in `names` that `source` defines as functions, once per def."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name in names]


def test_one_sign_butterfly():
    # walsh_spectrum and every sampler write their signs and transform them
    # through boolfn's one kernel; a second copy would drift from it
    kernel = {"_butterfly", "_sign_type", "_wht"}
    assert _definitions("def _wht(b): pass\nclass C:\n    def _butterfly(s): pass\n",
                        kernel) == ["_wht", "_butterfly"]
    found = {path.stem: _definitions(path.read_text(), kernel)
             for path in sorted((ROOT / "src" / "bvattack").glob("*.py"))}
    assert {stem: sorted(names) for stem, names in found.items() if names} == {
        "boolfn": ["_butterfly", "_sign_type", "_wht"]}


def test_no_module_tabulates_the_whole_keyed_family():
    # every toy path reads the zero-key slice G0, 2^n times smaller than the
    # keyed family G; only tests (oracles.toy_reduced_family) and the benchmark
    # build G
    import bvattack.ciphers

    whole = {"reduced_encrypt_all_keys", "toy_reduced_family"}
    assert _calls("p.reduced_encrypt_all_keys()\ntoy_reduced_family(p)\nf = g.toy_reduced_family\n",
                  whole) == [1, 2]
    for path in sorted((ROOT / "src" / "bvattack").glob("*.py")):
        assert _calls(path.read_text(), whole) == [], path.name
    assert not hasattr(bvattack.ciphers, "toy_reduced_family")


def test_key_ranking_signature_matches_its_count_hook():
    # the hook reads the oracle and the pair count by position
    from bvattack.attacks import rank_last_round_keys

    params = list(inspect.signature(rank_last_round_keys).parameters)
    assert params[0] == "oracle" and params[4] == "pairs"


def test_table_file_signatures_match_their_byte_hooks():
    # the hooks stat the file named by the first positional argument
    from bvattack.boolfn import load_function, save_function
    from bvattack.ciphers import load_cipher, save_cipher

    for fn in (save_function, load_function, save_cipher, load_cipher):
        assert list(inspect.signature(fn).parameters)[0] == "path", fn.__name__


def test_draw_and_butterfly_return_what_the_hooks_read():
    # the draw hook counts len(r) and np.bincount(r) of a draw's result, so a
    # draw returns all its outcomes as one 1-D int64 array, in one block or
    # across more than one lookup block
    import numpy as np

    from bvattack.boolfn import _wht, random_boolean_function
    from bvattack.bv import _BLOCK, BvSampler
    from bvattack.rng import seeded_rng

    f = random_boolean_function(8, seeded_rng(60))
    for width in (8, 5):
        for p in (1, 100, 1 << 12, 2 * _BLOCK + 3):
            r = BvSampler(f, (61,), width=width).draw(p)
            assert (type(r), r.ndim, r.dtype, len(r)) == (np.ndarray, 1, np.int64, p), (width, p)
    # callers rely on the butterfly running in place on their own array
    b = np.ones((16, 3), dtype=np.int32)
    assert _wht(b) is b and b[0].tolist() == [16] * 3
    # the build hook counts len(outcomes): the toy attacks build on the slice
    # G0, and count the support of the keyed family G
    from bvattack.ciphers import ToyCipher, toy_zero_key_family
    from oracles import toy_reduced_family

    pub = ToyCipher.generate(4, "weak", seed=62).public
    G, G0 = toy_reduced_family(pub), toy_zero_key_family(pub)
    for j in range(1, 5):
        support = len(BvSampler(G.component(j), (63,), width=4).outcomes)
        assert len(BvSampler(G0.component(j), (63,), width=4).outcomes) == support


def test_benchmark_driver_names_resolve():
    # every experiments.X, boolfn.X and cli.X that run.py reads, found in its source
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("experiments", "boolfn", "cli")}
    assert ("experiments", "run_experiment") in used and ("cli", "main") in used
    for mod_name, attr in sorted(used):
        mod = importlib.import_module(f"bvattack.{mod_name}")
        assert hasattr(mod, attr), f"bvattack.{mod_name}.{attr}"


def test_experiment_config_takes_the_benchmark_keywords():
    from bvattack.experiments import ExperimentConfig

    cfg = ExperimentConfig(which="T5", n=8, trials=30, seed=1)
    assert (cfg.which, cfg.n, cfg.trials, cfg.seed) == ("T5", 8, 30, 1)


def test_attack_demo_runs():
    # every attack once, the impossible sieve included, in a fresh interpreter
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "attack_demo.py")],
                          env={**os.environ, "PYTHONPATH": path}, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "impossible differential sieve" in done.stdout
