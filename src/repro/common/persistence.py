"""Persistence-domain declarations and the volatile poison.

The paper's recovery (Section 4.4) must work from the NVM image and the
persistent TCB registers alone: every on-chip structure — the meta
cache, the drainer's dirty address queue, an open WPQ batch — is lost
at a power failure.  Classes declare which of their attributes are which
with the :func:`persistence` decorator::

    @persistence(
        persistent=("root_new", "root_old", "nwb"),
    )
    class TCB: ...

* ``persistent`` — attribute names that survive a power failure.  The
  persist-trace recorder copies these declarations into every trace it
  records.
* ``volatile`` — attribute names lost at a power failure.  A scheme's
  ``crash()`` clears them and then replaces each, on the scheme and on
  every declared component it holds, with a :class:`LostState` (see
  :func:`poison_volatile`): any read of one raises
  :class:`VolatileStateLost` until a completed ``recover()`` puts the
  cleared objects back (:func:`restore_volatile`).  Recovery code that
  consults lost state therefore fails the first time it runs.

Declarations are inherited: a subclass's effective domains are the union
of its own and its ancestors' (``CcNVM`` adds ``queue`` to the base
scheme's volatile set, for example), queryable through
:func:`persistent_attrs` / :func:`volatile_attrs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

#: Name of the attribute the decorator stores its declaration under.
DECLARATION_ATTR = "__persistence__"


@dataclass(frozen=True)
class DomainDeclaration:
    """The declared persistence domains of one class (not inherited)."""

    cls_name: str
    persistent: tuple[str, ...] = ()
    volatile: tuple[str, ...] = ()


#: Runtime registry of declared classes, keyed by class name.
REGISTRY: dict[str, DomainDeclaration] = {}


def persistence(*, persistent: tuple[str, ...] = (), volatile: tuple[str, ...] = ()):
    """Class decorator declaring which attributes persist across a crash."""
    overlap = set(persistent) & set(volatile)
    if overlap:
        raise ValueError(
            f"attributes cannot be both persistent and volatile: {sorted(overlap)}"
        )

    def wrap(cls):
        decl = DomainDeclaration(cls.__name__, tuple(persistent), tuple(volatile))
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


# ---------------------------------------------------------------------------
# the volatile poison
# ---------------------------------------------------------------------------


class VolatileStateLost(RuntimeError):
    """A read of state a power failure destroyed, before recovery completed."""


def _label(lost: "LostState") -> str:
    return object.__getattribute__(lost, "_label")


def _raise(self, *args, **kwargs):
    raise VolatileStateLost(
        f"{_label(self)} was lost at the power failure; nothing may read it "
        "before recovery completes"
    )


class LostState:
    """Stands in for one volatile attribute between a crash and a
    completed recovery: attribute access, ``len``, iteration, truth
    value, arithmetic and comparison all raise :class:`VolatileStateLost`.
    Only ``repr`` works, so a failure message can name it."""

    __slots__ = ("_label",)

    def __init__(self, label: str) -> None:
        object.__setattr__(self, "_label", label)

    def __repr__(self) -> str:
        return f"<lost at power failure: {_label(self)}>"

    __getattribute__ = __setattr__ = __delattr__ = _raise
    __len__ = __iter__ = __reversed__ = __contains__ = __next__ = _raise
    __getitem__ = __setitem__ = __delitem__ = __call__ = _raise
    __bool__ = __index__ = __int__ = __float__ = __hash__ = _raise
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _raise
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _raise
    __truediv__ = __rtruediv__ = __floordiv__ = __rfloordiv__ = _raise
    __mod__ = __rmod__ = __pow__ = __rpow__ = __neg__ = __pos__ = __abs__ = _raise
    __and__ = __rand__ = __or__ = __ror__ = __xor__ = __rxor__ = _raise
    __lshift__ = __rlshift__ = __rshift__ = __rrshift__ = __invert__ = _raise
    __enter__ = __exit__ = __round__ = __trunc__ = _raise


@lru_cache(maxsize=None)
def _sentinels(cls) -> tuple[tuple[str, LostState], ...]:
    """``(name, sentinel)`` per volatile attribute of *cls*.  A sentinel
    holds nothing but its label, so every instance shares them."""
    return tuple(
        (name, LostState(f"{cls.__name__}.{name}"))
        for name in sorted(volatile_attrs(cls))
    )


def poison_volatile(root, *components) -> list[tuple[object, str, object]]:
    """Poison every declared volatile attribute of *root*, of the declared
    objects its volatile attributes hold, and of *components*.

    Each attribute is replaced by a :class:`LostState`; the returned
    ``(owner, name, value)`` list is what :func:`restore_volatile` puts
    back.  The caller clears the values first, so what comes back is
    the state a freshly powered-on machine would hold.  Attributes are
    swapped with ``getattr``/``setattr``, never through ``vars()``:
    materializing an instance's ``__dict__`` slows every later attribute
    load on it.
    """
    owners = list(components)
    for name, _ in _sentinels(type(root)):
        value = getattr(root, name)
        if _sentinels(type(value)):
            owners.append(value)
    owners.append(root)
    saved: list[tuple[object, str, object]] = []
    for owner in owners:
        for name, lost in _sentinels(type(owner)):
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, lost)
    return saved


def restore_volatile(saved: list[tuple[object, str, object]]) -> None:
    """Undo :func:`poison_volatile`: put the saved objects back."""
    for owner, name, value in saved:
        setattr(owner, name, value)
