"""Unit tests for the persistence-declaration layer.

These tests pin the decorator, registry and inheritance union, and
cross-check the repo's real annotations against the crash model they
describe.  The poison that reads ``volatile=`` at run time is tested in
``test_volatile_poison.py``.
"""

import pytest

from repro.common.persistence import (
    REGISTRY,
    DomainDeclaration,
    declaration,
    is_declared,
    persistence,
    persistent_attrs,
    volatile_attrs,
)
from repro.core.schemes import SCHEMES, create_scheme
from tests.conftest import SMALL_CAPACITY, small_config


class TestDecorator:
    def test_declaration_attached_and_registered(self):
        @persistence(persistent=("a",), volatile=("b",))
        class Thing:
            pass

        decl = declaration(Thing)
        assert isinstance(decl, DomainDeclaration)
        assert decl.persistent == ("a",)
        assert decl.volatile == ("b",)
        assert REGISTRY["Thing"] is decl
        assert is_declared(Thing)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            persistence(persistent=("x",), volatile=("x",))

    def test_positional_args_rejected(self):
        with pytest.raises(TypeError):
            persistence(("x",))  # keyword-only by design

    def test_subclass_inherits_but_does_not_redeclare(self):
        @persistence(persistent=("p",))
        class Base:
            pass

        class Child(Base):
            pass

        assert declaration(Child) is None  # nothing on Child itself
        assert is_declared(Child)  # ...but the lineage is declared
        assert persistent_attrs(Child) == frozenset({"p"})

    def test_subclass_declaration_unions_with_ancestors(self):
        @persistence(volatile=("base_v",))
        class Base2:
            pass

        @persistence(volatile=("child_v",))
        class Child2(Base2):
            pass

        assert volatile_attrs(Child2) == frozenset({"base_v", "child_v"})
        assert volatile_attrs(Base2) == frozenset({"base_v"})


class TestRepoAnnotations:
    """The real annotations match the crash behaviour they declare."""

    def test_core_classes_are_declared(self):
        from repro.core.drainer import DirtyAddressQueue
        from repro.core.schemes.base import SecureNVMScheme
        from repro.core.tcb import TCB
        from repro.mem.nvm import NVMDevice
        from repro.mem.wpq import WritePendingQueue
        from repro.metadata.metacache import MetadataStore

        for cls in (TCB, NVMDevice, WritePendingQueue, MetadataStore,
                    DirtyAddressQueue, SecureNVMScheme):
            assert is_declared(cls), cls.__name__

    def test_tcb_and_nvm_hold_all_persistent_state(self):
        from repro.core.tcb import TCB
        from repro.mem.nvm import NVMDevice

        assert "recovery_pending" in persistent_attrs(TCB)
        assert persistent_attrs(NVMDevice) == frozenset(
            {"_lines", "_write_counts"}
        )

    def test_scheme_volatile_domain_includes_meta_cache(self):
        from repro.core.schemes.ccnvm import CcNVM

        vols = volatile_attrs(CcNVM)
        assert "meta" in vols  # the meta cache handle is crash-lost state
        assert "queue" in vols  # the dirty address queue too
        assert not (vols & persistent_attrs(CcNVM))

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_declared_names_exist_on_built_components(self, name):
        """Every declared persistent/volatile name is a live attribute."""
        scheme = create_scheme(name, small_config(), SMALL_CAPACITY)
        checked = set()
        seen = set()
        todo = [scheme]
        while todo:
            obj = todo.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            cls = type(obj)
            if is_declared(cls):
                checked.add(cls.__name__)
                for attr in persistent_attrs(cls) | volatile_attrs(cls):
                    assert hasattr(obj, attr), f"{cls.__name__}.{attr} is declared but missing"
            todo.extend(
                value for value in vars(obj).values()
                if type(value).__module__.startswith("repro.")
                and hasattr(value, "__dict__")
            )
        assert {"TCB", "NVMDevice", "WritePendingQueue", "MetadataStore",
                type(scheme).__name__} <= checked
        assert ("DirtyAddressQueue" in checked) == name.startswith("ccnvm")
