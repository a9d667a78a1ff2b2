"""Reach it or delete it: the public-surface rule, as a test.

A name stays in ``repro.api.__all__`` iff something a user can run reaches
it — an ``examples/`` program, a CLI command, an experiment harness behind
a ``ClaimResult`` row, a workload, a ``benchmarks/e2e`` file or one of the
two front doors (``Pipeline``, the mini-language) — or it is on the
:data:`ALLOWLIST` below with the one-line reason it is exempt.  A name's
own ``def``/``class`` line, its ``__all__`` entry and an ``import`` of it
are not reach: a module that only defines and re-exports a name does not
use it.  The
allowlist is kept honest both ways: an entry that has become reached, or
names something no longer exported, fails too.  The same rule one level
down: every module under ``src/repro`` is imported by another module (a
package ``__init__`` re-export does not count as a use) or is the entry
point.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import repro
import repro.api
import repro.experiments
import repro.experiments.baselines
import repro.faults
import repro.workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Where a reference counts as reach (word-boundary search of the text).
BENCHMARK = sorted((ROOT / "benchmarks" / "e2e").glob("*.py"))
REACH = [
    *sorted((ROOT / "examples").glob("*.py")),
    SRC / "cli.py",
    *sorted((SRC / "experiments").glob("*.py")),
    *sorted((SRC / "workloads").glob("*.py")),
    *BENCHMARK,
    SRC / "query" / "pipeline.py",
    SRC / "query" / "language.py",
]

_ERROR = "error vocabulary: raised to callers of reached code"
_RECORD = "record/type vocabulary: what reached code hands out or accepts"

#: Exported names nothing in :data:`REACH` mentions, each with its reason.
ALLOWLIST: dict[str, str] = {
    # errors
    "ExecutionError": _ERROR,
    "InvariantViolation": _ERROR,
    "RecoveryError": _ERROR,
    "SchemaError": _ERROR,
    "ShardError": _ERROR,
    "ShardTimeoutError": _ERROR,
    "TimestampError": _ERROR,
    # records and types
    "CheckpointInfo": _RECORD,
    "CountWindow": _RECORD,
    "LATENT_TS": _RECORD,
    "Punctuation": _RECORD,
    "ShardedRecoveryReport": _RECORD,
    "StreamElement": _RECORD,
    "TimeWindow": _RECORD,
    "TraceEvent": _RECORD + " (Tracer.events)",
    "is_data": _RECORD,
    "is_punctuation": _RECORD,
}

#: Exported names with no caller left but the frozen ``benchmarks/e2e``
#: (editable only by a ``benchmark`` PR), so they are reached — for now.
#: Unexported pins of the same kind: ``ThreadBackend``,
#: ``EngineConfig(block_mode=)``, ``IdleTracker.refresh`` and the
#: ``EngineStats`` field names ``tracing.py`` reads — ``blocks``,
#: ``block_rows`` and ``block_fallbacks``, the last always 0 now that every
#: operator runs its one kernel (it goes with the next ``benchmark`` PR).
BENCHMARK_PINS: dict[str, str] = {
    "set_numpy": "inert; run.py calls set_numpy(False)",
}


def unreached(names, texts) -> list[str]:
    """The ``names`` no text in ``texts`` mentions as a whole word."""
    words = set()
    for text in texts:
        words.update(re.findall(r"\w+", text))
    return [name for name in names if name not in words]


def surface_problems(exported, allowlist, texts) -> list[str]:
    missing = set(unreached(exported, texts))
    problems = [f"{name}: exported, reached by nothing, not allowlisted"
                for name in sorted(missing - set(allowlist))]
    problems += [f"{name}: allowlisted but no longer exported"
                 for name in sorted(set(allowlist) - set(exported))]
    problems += [f"{name}: allowlisted but reached — drop the entry"
                 for name in sorted(set(allowlist) & set(exported) - missing)]
    return problems


def without_self_reach(source: str) -> str:
    """``source`` minus what names a name without using it: each ``def`` or
    ``class`` name where it is defined, ``__all__`` assignments and
    imports."""
    def assigns_all(node) -> bool:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        return any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets)

    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            row = node.lineno - 1
            lines[row] = re.sub(rf"\b(def|class)\s+{node.name}\b", r"\1",
                                lines[row], count=1)
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
              or isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
              and assigns_all(node)):
            for row in range(node.lineno - 1, node.end_lineno):
                lines[row] = ""
    return "\n".join(lines)


def _reach_texts(paths=REACH) -> list[str]:
    return [without_self_reach(path.read_text()) for path in paths]


#: The most names ``repro.api`` may export: the engine a pipeline author
#: uses, not the harness around it (``repro.experiments``,
#: ``repro.faults`` and ``repro.workloads`` export their own).
MAX_EXPORTS = 100


def test_every_export_is_reached_or_allowlisted():
    exported = repro.api.__all__
    assert len(exported) == len(set(exported)) <= MAX_EXPORTS
    assert all(hasattr(repro.api, name) for name in exported)
    assert surface_problems(exported, ALLOWLIST, _reach_texts()) == []
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_benchmark_pins_go_when_the_benchmark_lets_go():
    """A pin is reached by the benchmark and by nothing else; once a
    ``benchmark`` PR drops the call this fails, and the name is deleted."""
    elsewhere = [path for path in REACH if path not in BENCHMARK]
    pins = list(BENCHMARK_PINS)
    assert unreached(pins, _reach_texts(BENCHMARK)) == []
    assert unreached(pins, _reach_texts(elsewhere)) == pins


#: A module that defines, lists and re-exports names and uses none of them.
_SELF_REACHED = """
from .impl import PlantedReExport

__all__ = ["PlantedOwnClass", "PlantedReExport", "planted_own_def"]
__all__ += ["PlantedOwnClass"]


class PlantedOwnClass:
    pass


@functools.cache
def planted_own_def():
    return PlantedOwnClass
"""


def test_the_rule_bites():
    """Red on a planted unreached export, on names only their own module
    mentions, and on a stale allowlist entry."""
    texts = _reach_texts()
    planted = [*repro.api.__all__, "PlantedUnreachedFeature"]
    assert surface_problems(planted, ALLOWLIST, texts) == [
        "PlantedUnreachedFeature: exported, reached by nothing, "
        "not allowlisted"]
    own = ["PlantedOwnClass", "PlantedReExport", "planted_own_def"]
    assert surface_problems(
        [*repro.api.__all__, *own], ALLOWLIST,
        [*texts, without_self_reach(_SELF_REACHED)]) == [
        "PlantedReExport: exported, reached by nothing, not allowlisted",
        "planted_own_def: exported, reached by nothing, not allowlisted"]
    stale = {**ALLOWLIST, "Pipeline": "stale", "GoneName": "stale"}
    assert surface_problems(repro.api.__all__, stale, texts) == [
        "GoneName: allowlisted but no longer exported",
        "Pipeline: allowlisted but reached — drop the entry"]


def test_package_root_is_not_a_second_surface():
    assert repro.__all__ == ["__version__"]
    public = {name for name in vars(repro) if not name.startswith("_")}
    # Submodules appear as attributes once imported; nothing else may.
    assert all((SRC / name).exists() or (SRC / f"{name}.py").exists()
               for name in public)


# --------------------------------------------------------------------- #
# Each engine knob is said once


#: The packages whose ``__all__`` is public: the engine's facade and the
#: harness around it.
PUBLIC = (repro.api, repro.experiments, repro.experiments.baselines,
          repro.faults, repro.workloads)

#: Public classes with an ``__init__`` parameter that shares a name with
#: an ``EngineConfig`` field without being a second declaration of it.
KNOB_NAMESAKES: dict[str, tuple[set[str], str]] = {
    "EventBus": ({"observers"}, "the list itself, not a knob about it"),
    "RecoveryManager": ({"state_dir"}, "the manager's own directory"),
    "CrashReport": ({"recovery"}, "a result record's RecoveryReport"),
    "ScenarioConfig": ({"batch_size", "observers"},
                       "an experiment's parameters, handed to Simulation "
                       "as keywords"),
    "ChaosConfig": ({"batch_size"}, "an experiment's parameters"),
    "CrashConfig": ({"batch_size", "checkpoint_every", "state_dir"},
                    "an experiment's parameters"),
    "OverloadConfig": ({"feedback"},
                       "an experiment's parameters (feedback is a bool)"),
}


def knob_redeclarations(classes) -> dict[str, set[str]]:
    """``class name -> __init__ parameters`` that restate a shared knob."""
    knobs = {f.name for f in dataclasses.fields(repro.api.EngineConfig)}
    found = {}
    for cls in classes:
        if cls is repro.api.EngineConfig:
            continue
        params = set(inspect.signature(cls.__init__).parameters)
        restated = {name for name in params
                    if name in knobs or name.endswith("_factory")
                    or name == "engine_kwargs"}
        if restated:
            found[cls.__name__] = restated
    return found


def test_only_engine_config_declares_an_engine_knob():
    """``ExecutionEngine``, ``Simulation`` and the sharded engines take
    ``config`` plus ``**knobs`` (``core/config.py``); a constructor that
    names a knob again is a second default, a second docstring and a
    second merge rule."""
    from repro.shard.backends import EngineShard

    exported = [getattr(module, name)
                for module in PUBLIC for name in module.__all__]
    classes = [obj for obj in exported if inspect.isclass(obj)]
    assert knob_redeclarations([*classes, EngineShard]) == {
        name: names for name, (names, _) in KNOB_NAMESAKES.items()}
    assert all(reason.strip() for _, reason in KNOB_NAMESAKES.values())

    class Restating(repro.api.ExecutionEngine):
        def __init__(self, graph, clock, *, batch_size=1,
                     ets_policy_factory=None, **kwargs):
            super().__init__(graph, clock, batch_size=batch_size, **kwargs)

    assert knob_redeclarations([Restating]) == {
        "Restating": {"batch_size", "ets_policy_factory"}}


# --------------------------------------------------------------------- #
# The module graph


def _modules() -> dict[str, Path]:
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = ("repro", *path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _imports(module: str, path: Path) -> list[tuple[str, str | None]]:
    """``(absolute module, imported name or None)`` per import statement."""
    package = module if path.name == "__init__.py" \
        else module.rpartition(".")[0]
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join([*anchor, base] if base else anchor)
            found += [(base, alias.name) for alias in node.names]
    return found


def _defining_module(module: str, name: str | None, modules,
                     tables) -> str:
    """Follow ``from module import name`` through re-exports to its home."""
    if name is None or module not in modules:
        return module
    if f"{module}.{name}" in modules:
        return f"{module}.{name}"
    for source, imported in tables[module]:
        if imported == name and source in modules:
            return _defining_module(source, name, modules, tables)
    return module


def test_every_module_is_imported_or_is_the_entry_point():
    modules = _modules()
    tables = {module: _imports(module, path)
              for module, path in modules.items()}
    used = {"repro.__main__"}
    for importer, table in tables.items():
        if modules[importer].name == "__init__.py":
            continue  # a re-export list is not a use
        for source, name in table:
            # Both ends count: the module named and, through any
            # re-exports, the module the name lives in.
            used.update({source, _defining_module(source, name, modules,
                                                  tables)} - {importer})
    unused = [module for module, path in modules.items()
              if path.name != "__init__.py" and module not in used]
    assert unused == []


#: The harness packages: what the claims, ablations and fault matrices
#: run.  The engine (everything else under ``src/repro``) serves them but
#: holds nothing only they use.
HARNESS = ("repro.experiments", "repro.faults", "repro.workloads")


def harness_only_classes(modules: dict[str, Path]) -> list[str]:
    """``module.Class`` for each class defined at the top level of an
    engine module that some module imports and only harness modules do
    (a package ``__init__`` re-export is not an import of use)."""
    tables = {module: _imports(module, path)
              for module, path in modules.items()}
    importers: dict[tuple[str, str | None], set[str]] = {}
    for importer, table in tables.items():
        if modules[importer].name == "__init__.py":
            continue
        for source, name in table:
            home = _defining_module(source, name, modules, tables)
            importers.setdefault((home, name), set()).add(importer)
    found = []
    for module, path in modules.items():
        if module.startswith(HARNESS):
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                users = importers.get((module, node.name), set()) - {module}
                if users and all(user.startswith(HARNESS) for user in users):
                    found.append(f"{module}.{node.name}")
    return found


def test_no_engine_module_holds_a_harness_only_class():
    """A class only the harness imports — an ablation baseline such as
    round-robin scheduling or adaptive heartbeats — lives in
    ``repro/experiments``, not in the engine."""
    assert harness_only_classes(_modules()) == []


def test_the_harness_only_rule_bites(tmp_path):
    """Red on an engine class only an experiment imports; green once the
    engine imports it too, and for a class the harness defines itself."""
    planted = {
        "repro.core.planted": "class PlantedBaseline:\n    pass\n",
        "repro.faults.planted": "class PlantedSpec:\n    pass\n",
        "repro.experiments.planted_user": (
            "from ..core.planted import PlantedBaseline\n"
            "from ..faults.planted import PlantedSpec\n"),
    }
    modules = dict(_modules())
    for module, text in planted.items():
        path = tmp_path / f"{module}.py"
        path.write_text(text)
        modules[module] = path
    assert harness_only_classes(modules) == [
        "repro.core.planted.PlantedBaseline"]
    engine_user = tmp_path / "engine_user.py"
    engine_user.write_text("from .planted import PlantedBaseline\n")
    modules["repro.core.planted_user"] = engine_user
    assert harness_only_classes(modules) == []


# --------------------------------------------------------------------- #
# The shard protocol carries no feedback


def shard_imports_of_feedback(modules: dict[str, Path]) -> list[str]:
    """``module -> imported`` for each import of ``repro.feedback`` (or
    anything under it) by a module under ``repro.shard``: a shard command
    is rows, punctuation, clock and log position, and a shard engine runs
    no controller."""
    def feedback(target: str) -> bool:
        return target == "repro.feedback" or target.startswith(
            "repro.feedback.")

    found = []
    for module, path in modules.items():
        if module != "repro.shard" and not module.startswith("repro.shard."):
            continue
        for source, name in _imports(module, path):
            target = source if name is None else f"{source}.{name}"
            if feedback(source) or feedback(target):
                found.append(f"{module} -> {target}")
    return found


def test_no_shard_module_imports_feedback():
    assert shard_imports_of_feedback(_modules()) == []


def test_the_shard_feedback_rule_bites(tmp_path):
    """Red on each spelling of the import, green on a neighbour's."""
    planted = {
        "repro.shard.planted_from": "from ..feedback import controller\n",
        "repro.shard.planted_package": "from .. import feedback\n",
        "repro.shard.planted_plain": "import repro.feedback.throttle\n",
        "repro.shard.planted_clean": "from ..core import config\n",
        "repro.core.planted_outside": "from ..feedback import controller\n",
    }
    modules = {}
    for module, text in planted.items():
        path = tmp_path / f"{module}.py"
        path.write_text(text)
        modules[module] = path
    assert shard_imports_of_feedback(modules) == [
        "repro.shard.planted_from -> repro.feedback.controller",
        "repro.shard.planted_package -> repro.feedback",
        "repro.shard.planted_plain -> repro.feedback.throttle"]
