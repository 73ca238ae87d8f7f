"""The fault injector: deterministic crashes at named micro-steps.

The injector is a callable that plugs into the plain ``fault_hook``
attributes the core exposes (scheme, WPQ, dirty address queue; the
recovery manager inherits the scheme's hook).  It runs in one of two
modes:

* **discovery** (default) — count how many times each site is visited by
  a given workload, without interfering — a caller learns which sites a
  scheme/workload pair reaches and how often, then picks a deterministic
  visit (e.g. the middle one) to crash at;
* **armed** — raise :class:`PowerFailure` at exactly the *n*-th visit of
  one site, then disarm, so the crash is reproducible and a subsequent
  recovery run is not re-crashed unless re-armed.
"""

from __future__ import annotations

from collections import Counter

from repro.faults.plan import ALL_SITE_NAMES, PowerFailure


class FaultInjector:
    """Counts site visits and, when armed, crashes at a chosen one."""

    def __init__(self) -> None:
        #: Visits per site since construction.
        self.hits: Counter[str] = Counter()
        self._armed_site: str | None = None
        self._armed_hit = 0
        #: Remaining (site, hit) pairs of an armed schedule; the head pair
        #: auto-arms after each fire so a second crash can land *inside*
        #: the recovery run the first one triggered.
        self._schedule: list[tuple[str, int]] = []
        #: Total injected power failures.
        self.fired = 0

    # -- wiring ---------------------------------------------------------------

    def attach(self, scheme) -> None:
        """Install this injector's hook on *scheme* and its components.

        Covers the scheme itself (write-back/drain/recovery sites — the
        scheme forwards its hook to the recovery manager), its WPQ, and
        its dirty address queue when the design has one.
        """
        scheme.fault_hook = self
        scheme.wpq.fault_hook = self
        queue = getattr(scheme, "queue", None)
        if queue is not None:
            queue.fault_hook = self

    # -- arming ---------------------------------------------------------------

    def arm(self, site: str, hit: int = 1) -> None:
        """Crash at the *hit*-th visit of *site* (counted from now on).

        Raises ``ValueError`` for names not in the registry — arming a
        typo would otherwise silently never fire — and ``RuntimeError``
        when a crash is already pending: re-arming mid-run would silently
        clobber the armed site/hit and make the experiment unreproducible.
        Call :meth:`disarm` first to change an armed crash deliberately.
        """
        if self._armed_site is not None:
            raise RuntimeError(
                f"injector already armed at {self._armed_site!r} "
                f"(hit {self._armed_hit}); disarm() before re-arming"
            )
        self._validate(site, hit)
        self._armed_site = site
        self._armed_hit = hit
        self.hits[site] = 0

    def arm_schedule(self, pairs) -> None:
        """Arm a sequence of crashes: fire at each (site, hit) in turn.

        The first pair arms immediately; after every injected failure the
        next pair arms itself, so the caller's recover/crash loop takes a
        power failure at each scheduled point — including points *inside*
        the recovery run started after the previous crash (the nested
        crash-during-recovery case the restartable ``recovery_pending``
        path exists for).
        """
        pairs = [(site, hit) for site, hit in pairs]
        if not pairs:
            raise ValueError("an empty schedule never fires")
        for site, hit in pairs:
            self._validate(site, hit)
        head, *rest = pairs
        self.arm(*head)
        self._schedule = rest

    def _validate(self, site: str, hit: int) -> None:
        if site not in ALL_SITE_NAMES:
            raise ValueError(f"unknown fault site {site!r}")
        if hit < 1:
            raise ValueError("hit numbers are 1-based")

    def disarm(self) -> None:
        """Cancel any armed crash and pending schedule (counting continues)."""
        self._armed_site = None
        self._armed_hit = 0
        self._schedule = []

    @property
    def armed(self) -> str | None:
        """The armed site name, or ``None`` in discovery mode."""
        return self._armed_site

    # -- the hook -------------------------------------------------------------

    def __call__(self, site: str) -> None:
        self.hits[site] += 1
        if site == self._armed_site and self.hits[site] == self._armed_hit:
            self._armed_site = None
            self._armed_hit = 0
            if self._schedule:
                next_site, next_hit = self._schedule.pop(0)
                self._armed_site = next_site
                self._armed_hit = next_hit
                self.hits[next_site] = 0
            self.fired += 1
            raise PowerFailure(site)
