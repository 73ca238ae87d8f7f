"""Persistence-domain declarations for the static analyzer and runtime.

cc-NVM's correctness argument rests on a write-ordering discipline:
persistent state — the TCB root registers, ``Nwb``, the NVM line arrays —
may only change through sanctioned micro-ops (the owning class's methods,
the WPQ's ``write``/``write_atomic``/``commit_atomic``), in an order the
recovery algorithm can undo or roll forward.  This module is the single
place that discipline is *declared* so ``repro.lint`` can *enforce* it.

Classes annotate themselves with the :func:`persistence` decorator::

    @persistence(
        persistent=("root_new", "root_old", "nwb"),
        volatile=(),
        aka=("tcb",),
        mutators=("update_root_new", "commit_root", "set_roots"),
    )
    class TCB: ...

* ``persistent`` — attribute names that survive a power failure.  The
  lint rule P1 forbids assigning them outside the owning class: all
  mutation must go through the class's own methods, which are the
  sanctioned (and fault-instrumented) micro-ops.
* ``volatile`` — attribute names lost at a power failure.  Rule P4
  forbids recovery-path code from reading them: recovery must work from
  the NVM image and the persistent TCB registers alone.
* ``aka`` — receiver names under which instances of the class
  conventionally appear elsewhere (``self.tcb``, ``scheme.wpq`` ...);
  the analyzer uses them to attribute ``x.tcb.nwb = 0`` to :class:`TCB`
  without type inference.
* ``mutators`` — the class's sanctioned write-path methods, quoted in
  lint messages as the suggested fix for a direct store.

Two further fields declare the **trace domain** that lint rule P7 and
the static/dynamic cross-check (``repro lint --cross-check``) read:

* ``stores`` — the WPQ's normal store micro-ops (``write``,
  ``write_partial``).  Declaring any puts the class in the trace
  domain: every declared mutator must call the persist-trace hook, and
  the cross-check counts these ops (plus ``write_atomic``) as store
  sites.
* ``grouped`` — register micro-ops that must execute inside a
  ``begin_combined``/``end_combined`` controller transaction so the
  persist-trace recorder (and ADR) sees them share fate with the data
  write they describe.  Declared on the TCB (``count_writeback``,
  ``log_counter_update``); it also makes every TCB mutator a
  cross-check register site.

The decorator arguments must be **literal** tuples/lists of strings: the
analyzer reads them from the AST without importing the code (importing
the system under analysis could run it).  Non-literal declarations are
themselves reported by the analyzer (rule P0).

Declarations are inherited: a subclass's effective domains are the union
of its own and its ancestors' (``CcNVM`` adds ``_draining`` to the base
scheme's volatile set, for example).  At runtime the same information is
queryable through :func:`persistent_attrs` / :func:`volatile_attrs`,
which the unit tests use to cross-check the model against reality.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Name of the attribute the decorator stores its declaration under.
DECLARATION_ATTR = "__persistence__"


@dataclass(frozen=True)
class DomainDeclaration:
    """The declared persistence domains of one class (not inherited)."""

    cls_name: str
    persistent: tuple[str, ...] = ()
    volatile: tuple[str, ...] = ()
    aka: tuple[str, ...] = ()
    mutators: tuple[str, ...] = ()
    stores: tuple[str, ...] = ()
    grouped: tuple[str, ...] = ()


#: Runtime registry of declared classes, keyed by class name.
REGISTRY: dict[str, DomainDeclaration] = {}


def persistence(
    *,
    persistent: tuple[str, ...] = (),
    volatile: tuple[str, ...] = (),
    aka: tuple[str, ...] = (),
    mutators: tuple[str, ...] = (),
    stores: tuple[str, ...] = (),
    grouped: tuple[str, ...] = (),
):
    """Class decorator declaring which attributes persist across a crash."""
    overlap = set(persistent) & set(volatile)
    if overlap:
        raise ValueError(
            f"attributes cannot be both persistent and volatile: {sorted(overlap)}"
        )

    def wrap(cls):
        decl = DomainDeclaration(
            cls.__name__,
            tuple(persistent),
            tuple(volatile),
            tuple(aka),
            tuple(mutators),
            tuple(stores),
            tuple(grouped),
        )
        setattr(cls, DECLARATION_ATTR, decl)
        REGISTRY[cls.__name__] = decl
        return cls

    return wrap


def declaration(cls) -> DomainDeclaration | None:
    """The declaration made *on cls itself* (not inherited), or ``None``."""
    decl = cls.__dict__.get(DECLARATION_ATTR)
    return decl if isinstance(decl, DomainDeclaration) else None


def is_declared(cls) -> bool:
    """True when *cls* (or an ancestor) carries a persistence declaration."""
    return any(declaration(c) is not None for c in cls.__mro__)


def persistent_attrs(cls) -> frozenset[str]:
    """Effective persistent attribute names of *cls*, ancestors included."""
    return frozenset(
        name
        for c in cls.__mro__
        if (decl := declaration(c)) is not None
        for name in decl.persistent
    )


def volatile_attrs(cls) -> frozenset[str]:
    """Effective volatile attribute names of *cls*, ancestors included."""
    return frozenset(
        name
        for c in cls.__mro__
        if (decl := declaration(c)) is not None
        for name in decl.volatile
    )
