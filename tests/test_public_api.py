"""The package's public surface: declared once, in each module's ``__all__``,
and still holding every name the benchmark harness and its tools look up."""

import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import splicecap
from splicecap import families, pipeline, search, surfaces

ROOT = Path(__file__).resolve().parents[1]


def test_public_names_are_the_modules_all():
    modules = [
        importlib.import_module(f"splicecap.{info.name}")
        for info in pkgutil.iter_modules(splicecap.__path__)
    ]
    declared = [name for m in modules for name in getattr(m, "__all__", ())]
    assert len(declared) == len(set(declared)), "a name exported twice"
    public = {name for name in dir(splicecap) if not name.startswith("_")}
    submodules = {n for n in public if isinstance(getattr(splicecap, n), ModuleType)}
    assert public - submodules == set(declared)
    star = {}
    exec("from splicecap import *", star)
    assert {n for n in star if not n.startswith("__")} == public


def test_benchmark_lookups_resolve():
    """perfbench and ``tools/bench.py`` reach the package as ``sc.<name>``;
    perfbench's worker also reads the names of ``package_api`` and the two
    caches, and its tracer wraps the calls the pipeline makes."""
    sources = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tools" / "bench.py"]
    looked_up = {
        name for path in sources for name in re.findall(r"\bsc\.(\w+)", path.read_text())
    }
    assert len(looked_up) > 20
    package_api = ("ingest_table", "ingest_external", "verify_observation",
                   "emit_report", "u_minus", "crosscap_alt", "connected_sum",
                   "gen_family")
    for name in sorted(looked_up | set(package_api)):
        assert hasattr(splicecap, name), name
    traced = {
        pipeline: ("u_minus", "u_upper", "crosscap_alt", "seifert_genus",
                   "classify_projection", "decompose_prime"),
        search: ("u_minus", "_UMINUS_MEMO"),
        surfaces: ("ak_min_genus",),
        families: ("_family_keys_by_count",),
    }
    for module, names in traced.items():
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert callable(families._family_keys_by_count.cache_clear)
