"""Public API snapshot: the package's exported surface is a contract.

Pins ``repro.__all__``, the :class:`~repro.engine.RunConfig` fields,
the redesigned ``Engine.load``/``Engine.run`` signatures and their
typed errors for misplaced arguments, and the dynamic linking error
hierarchy.  A failure here means a (possibly accidental)
breaking change to the public API — update the snapshot only on a
deliberate redesign."""

import inspect
import warnings

import pytest

import repro
from repro.engine import Engine, RunConfig
from repro.errors import (
    CrossModuleViolation,
    DuplicateExportError,
    DynamicLinkError,
    LinkError,
    ModuleCycleError,
    ModuleRevokedError,
    ReproError,
    UnresolvedImportError,
    VerifyError,
)

#: The exported names of the `repro` package, frozen.  Additions are
#: appended deliberately; removals/renames are breaking changes.
PUBLIC_API = [
    "ARCHITECTURES",
    "AccessViolation",
    "CompileError",
    "CompileOptions",
    "CrossModuleViolation",
    "DeadlineExceeded",
    "DuplicateExportError",
    "DynamicLinkError",
    "Engine",
    "FaultInjector",
    "Host",
    "HostCallError",
    "LinkedImage",
    "LinkedProgram",
    "MOBILE_NOSFI",
    "MOBILE_SFI",
    "MetricsCollector",
    "ModuleCycleError",
    "ModuleHost",
    "ModuleRegistry",
    "ModuleRequest",
    "ModuleResponse",
    "ModuleRevokedError",
    "NATIVE_CC",
    "NATIVE_GCC",
    "ObjectModule",
    "PROFILES",
    "QuotaExceeded",
    "ReproError",
    "RequestQuota",
    "RetryPolicy",
    "RunConfig",
    "SandboxViolation",
    "ServiceOverloaded",
    "ShardedModuleHost",
    "TranslationCache",
    "TranslationOptions",
    "UnknownArchitectureError",
    "UnresolvedImportError",
    "VerifyError",
    "assemble",
    "compile_and_link",
    "compile_minilisp",
    "compile_to_object",
    "dynamic_link",
    "link",
    "load_for_interpretation",
    "load_for_target",
    "load_module",
    "metrics",
    "run_module",
    "run_on_target",
    "translate",
]


class TestPackageSurface:
    def test_all_matches_snapshot(self):
        assert sorted(repro.__all__) == PUBLIC_API

    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


class TestRunConfig:
    def test_fields(self):
        assert [f.name for f in
                __import__("dataclasses").fields(RunConfig)] == [
            "fuel", "segment_size", "engine", "verify", "host"
        ]

    def test_defaults(self):
        config = RunConfig()
        assert config.fuel is None
        assert config.segment_size is None
        assert config.engine is None
        assert config.verify is True
        assert config.host is None

    def test_frozen(self):
        with pytest.raises(Exception):
            RunConfig().fuel = 7  # type: ignore[misc]


class TestEngineSignatures:
    def test_load_takes_config(self):
        params = list(inspect.signature(Engine.load).parameters)
        assert params[:5] == ["self", "program", "target", "options",
                              "config"]

    def test_run_takes_config_after_entry(self):
        params = list(inspect.signature(Engine.run).parameters)
        assert params[:6] == ["self", "program", "target", "options",
                              "entry", "config"]

    def test_engine_has_dynamic_linking_api(self):
        for name in ("register_module", "revoke_module",
                     "link_modules", "load_program", "registry"):
            assert hasattr(Engine, name) or name == "registry"

    def test_positional_config_names_config_keyword(self):
        """A RunConfig passed positionally lands in the target slot; the
        error names the config= keyword instead of reporting an unknown
        architecture."""
        engine = Engine()
        program = engine.compile("int main() { return 0; }")
        with pytest.raises(TypeError, match=r"config=RunConfig"):
            engine.run(program, RunConfig(fuel=10**6))
        with pytest.raises(TypeError, match=r"config=RunConfig"):
            engine.load(program, RunConfig(fuel=10**6))

    def test_non_runconfig_config_rejected(self):
        """A bare Host (the pre-RunConfig positional host) in the config
        slot is a TypeError naming RunConfig."""
        from repro.runtime.host import Host

        engine = Engine()
        program = engine.compile("int main() { return 0; }")
        with pytest.raises(TypeError, match=r"RunConfig or None, not Host"):
            engine.load(program, None, None, Host())
        with pytest.raises(TypeError, match=r"RunConfig or None, not Host"):
            engine.run(program, config=Host())

    def test_config_path_emits_no_warning(self):
        engine = Engine()
        program = engine.compile("int main() { return 0; }")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine.load(program, config=RunConfig(fuel=1_000_000))
        assert not [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]


class TestErrorHierarchy:
    def test_dynamic_link_errors_are_link_errors(self):
        for err in (DynamicLinkError, UnresolvedImportError,
                    DuplicateExportError, ModuleCycleError,
                    ModuleRevokedError):
            assert issubclass(err, LinkError), err
            assert issubclass(err, ReproError), err

    def test_cross_module_violation_is_verify_error(self):
        assert issubclass(CrossModuleViolation, VerifyError)

    def test_error_payloads(self):
        err = UnresolvedImportError("f", importer="m")
        assert err.symbol == "f" and err.importer == "m"
        err = DuplicateExportError("g", ("a", "b"))
        assert err.symbol == "g" and err.modules == ("a", "b")
        err = ModuleCycleError(("a", "b", "a"))
        assert err.cycle == ("a", "b", "a")
        err = ModuleRevokedError("lib", epoch=3)
        assert err.name == "lib" and err.epoch == 3
        err = CrossModuleViolation("bad", module="m", target=64)
        assert err.module == "m" and err.target == 64
