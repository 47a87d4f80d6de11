"""Deterministic fault injection and retry policy for the runtime.

Giraph-style fault tolerance is only trustworthy if it can be *tested*
deterministically, so the runtime threads named injection sites through
its superstep machinery and this module decides — from a seeded, fully
explicit :class:`FaultPlan` — whether a given site trips.  Production
runs pay one ``None`` check per site.

Sites (see :data:`SITES`):

* ``shard.compute``  — inside one shard task, before compute runs;
* ``shard.route``    — at the superstep barrier, before message routing;
* ``storage.apply``  — SQL plane, before staged updates are applied;
* ``storage.sync``   — shard plane, before resident state is mirrored
  into the relational tables;
* ``checkpoint.write`` — mid-checkpoint, after the snapshot directory
  (tables and manifest) is written but before ``LATEST`` names it (leaves
  a complete but unpublished snapshot behind).

Fault kinds:

* ``"transient"`` — raises :class:`InjectedFault` with ``transient=True``
  (the retry layer's classifier honors the flag);
* ``"deterministic"`` — same exception, ``transient=False``: retrying is
  pointless and the run must fail fast;
* ``"kill"`` — raises :class:`InjectedKill`, a ``BaseException`` that no
  runtime handler catches, simulating the process dying at that exact
  point (the kill-and-resume fuzz suite's tool).

A plan is activated for the current process either explicitly
(:func:`injected` / :func:`activate`) or via the ``REPRO_FAULT_PLAN``
environment variable holding :meth:`FaultPlan.to_json` output.

The module also owns the runtime's *retry policy*: :func:`is_transient`
classifies exceptions (injected faults, OS/network errors) and
:func:`retry_call` retries transient failures with capped deterministic
exponential backoff — shared by shard tasks, graph-view extraction, and
dataset downloads.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time
import urllib.error
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.errors import VertexicaError

__all__ = [
    "SITES",
    "FaultSpec",
    "FaultPlan",
    "InjectedFault",
    "InjectedKill",
    "activate",
    "active_plan_json",
    "deactivate",
    "injected",
    "trip",
    "is_transient",
    "retry_call",
    "ENV_VAR",
]

#: Named injection sites the runtime trips (module docstring has the map).
SITES = (
    "shard.compute",
    "shard.route",
    "storage.apply",
    "storage.sync",
    "checkpoint.write",
)

KINDS = ("transient", "deterministic", "kill")

#: Environment variable carrying a JSON fault plan (see FaultPlan.to_json).
ENV_VAR = "REPRO_FAULT_PLAN"


class InjectedFault(RuntimeError):
    """A planned fault raised at an injection site.

    Attributes:
        site, superstep, shard: where it tripped.
        transient: whether the retry classifier should treat it as
            retriable.
    """

    def __init__(
        self,
        site: str,
        superstep: int | None,
        shard: int | None,
        transient: bool,
    ) -> None:
        kind = "transient" if transient else "deterministic"
        super().__init__(
            f"injected {kind} fault at {site!r} (superstep={superstep}, shard={shard})"
        )
        self.site = site
        self.superstep = superstep
        self.shard = shard
        self.transient = transient

    def __reduce__(self):
        # The default exception reduce replays ``cls(*args)`` with the
        # formatted message, which does not match this constructor; a
        # fault raised inside a worker process must survive the pickle
        # round-trip back to the coordinator intact.
        return (InjectedFault, (self.site, self.superstep, self.shard, self.transient))


class InjectedKill(BaseException):
    """A planned process death.

    Deliberately *not* an :class:`Exception`: every runtime fault handler
    catches ``Exception``, so a kill tears straight through compute,
    rollback, and checkpointing — exactly like SIGKILL — leaving only
    what was already durable.
    """

    def __init__(self, site: str, superstep: int | None, shard: int | None) -> None:
        super().__init__(
            f"injected kill at {site!r} (superstep={superstep}, shard={shard})"
        )
        self.site = site
        self.superstep = superstep
        self.shard = shard

    def __reduce__(self):
        # Same pickling contract as InjectedFault: a kill raised inside a
        # worker process re-raises as the same BaseException type in the
        # coordinator, tearing through every Exception handler there too.
        return (InjectedKill, (self.site, self.superstep, self.shard))


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``superstep``/``shard`` of ``None`` match any value (including sites
    that trip without one); ``times`` bounds how often the spec fires.
    """

    site: str
    kind: str = "transient"
    superstep: int | None = None
    shard: int | None = None
    times: int = 1

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise VertexicaError(f"unknown fault site {self.site!r}; expected one of {SITES}")
        if self.kind not in KINDS:
            raise VertexicaError(f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if self.times < 1:
            raise VertexicaError("fault times must be >= 1")

    def matches(self, site: str, superstep: int | None, shard: int | None) -> bool:
        if self.site != site:
            return False
        if self.superstep is not None and superstep != self.superstep:
            return False
        if self.shard is not None and shard != self.shard:
            return False
        return True

    def to_dict(self) -> dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "superstep": self.superstep,
            "shard": self.shard,
            "times": self.times,
        }


class FaultPlan:
    """An ordered set of :class:`FaultSpec` with per-spec firing budgets.

    Thread-safe: shard tasks trip sites concurrently.  ``fired`` records
    every fault actually raised as ``(site, superstep, shard, kind)`` so
    tests can assert the plan did what it said.
    """

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs = tuple(specs)
        self._remaining = [spec.times for spec in self.specs]
        self._lock = threading.Lock()
        self.fired: list[tuple[str, int | None, int | None, str]] = []

    # ------------------------------------------------------------------
    def trip(self, site: str, superstep: int | None = None, shard: int | None = None) -> None:
        """Raise the first matching planned fault (if any is left)."""
        with self._lock:
            kind = None
            for i, spec in enumerate(self.specs):
                if self._remaining[i] > 0 and spec.matches(site, superstep, shard):
                    self._remaining[i] -= 1
                    kind = spec.kind
                    self.fired.append((site, superstep, shard, kind))
                    break
            if kind is None:
                return
        if kind == "kill":
            raise InjectedKill(site, superstep, shard)
        raise InjectedFault(site, superstep, shard, transient=(kind == "transient"))

    @property
    def exhausted(self) -> bool:
        """True once every spec has fired its full budget."""
        with self._lock:
            return all(r == 0 for r in self._remaining)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        sites: Sequence[str] = SITES,
        kinds: Sequence[str] = ("kill",),
        max_superstep: int = 6,
        n_faults: int = 1,
    ) -> "FaultPlan":
        """A reproducible random plan: ``n_faults`` specs drawn from
        ``sites`` × ``kinds`` × supersteps ``0..max_superstep``."""
        rng = np.random.default_rng(seed)
        specs = [
            FaultSpec(
                site=sites[int(rng.integers(len(sites)))],
                kind=kinds[int(rng.integers(len(kinds)))],
                superstep=int(rng.integers(max_superstep + 1)),
            )
            for _ in range(n_faults)
        ]
        return cls(specs)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse :meth:`to_json` output (also the ``REPRO_FAULT_PLAN``
        format): a JSON list of spec objects, or ``{"seed": N, ...}``
        forwarding keyword options to :meth:`from_seed`.

        Raises:
            VertexicaError: malformed JSON or unknown fields.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise VertexicaError(f"malformed fault plan JSON: {exc}") from exc
        if isinstance(payload, dict):
            if "seed" not in payload:
                raise VertexicaError("fault plan object form requires a 'seed' key")
            kwargs = dict(payload)
            seed = kwargs.pop("seed")
            for key in ("sites", "kinds"):
                if key in kwargs:
                    kwargs[key] = tuple(kwargs[key])
            try:
                return cls.from_seed(int(seed), **kwargs)
            except TypeError as exc:
                raise VertexicaError(f"bad fault plan options: {exc}") from exc
        if not isinstance(payload, list):
            raise VertexicaError("fault plan JSON must be a list or a seed object")
        specs = []
        for entry in payload:
            try:
                specs.append(FaultSpec(**entry))
            except TypeError as exc:
                raise VertexicaError(f"bad fault spec {entry!r}: {exc}") from exc
        return cls(specs)

    def to_json(self) -> str:
        return json.dumps([spec.to_dict() for spec in self.specs])


# ----------------------------------------------------------------------
# Process-wide activation (explicit plan wins over the environment)
# ----------------------------------------------------------------------
_ACTIVE: FaultPlan | None = None
_ENV_CACHE: tuple[str, FaultPlan] | None = None


def activate(plan: FaultPlan) -> None:
    """Arm ``plan`` for this process (until :func:`deactivate`)."""
    global _ACTIVE
    _ACTIVE = plan


def deactivate() -> None:
    """Disarm any explicit plan (the env plan, if set, applies again)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scope a plan to a ``with`` block (always disarms on exit)."""
    activate(plan)
    try:
        yield plan
    finally:
        deactivate()


def _plan_from_env() -> FaultPlan | None:
    """The ``REPRO_FAULT_PLAN`` plan, parsed once per distinct value so
    firing budgets persist across trips within the process."""
    global _ENV_CACHE
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if _ENV_CACHE is None or _ENV_CACHE[0] != raw:
        _ENV_CACHE = (raw, FaultPlan.from_json(raw))
    return _ENV_CACHE[1]


def active_plan_json() -> str | None:
    """The armed plan (explicit or environment) as portable JSON, or
    ``None`` when no plan is armed.

    This is how the process-parallel shard plane ships fault plans into
    its worker processes: each run's plane bootstrap captures the JSON
    and re-activates it child-side, so ``shard.compute`` trips inside
    the process that actually runs the shard.  Spec budgets are restated
    in full (each child gets its own counters); plans targeting a
    specific superstep/shard behave identically either way.
    """
    plan = _ACTIVE
    if plan is None:
        plan = _plan_from_env()
    return None if plan is None else plan.to_json()


def trip(site: str, superstep: int | None = None, shard: int | None = None) -> None:
    """The runtime's injection hook — a no-op unless a plan is armed."""
    plan = _ACTIVE
    if plan is None:
        plan = _plan_from_env()
        if plan is None:
            return
    plan.trip(site, superstep, shard)


# ----------------------------------------------------------------------
# Retry policy (shared classifier + capped deterministic backoff)
# ----------------------------------------------------------------------

#: HTTP statuses worth retrying (rate limits, upstream hiccups).
TRANSIENT_HTTP_STATUSES = frozenset({408, 425, 429, 500, 502, 503, 504})

#: OS errnos that signal a momentary condition, not a broken input.
TRANSIENT_ERRNOS = frozenset(
    {
        errno.EAGAIN,
        errno.EINTR,
        errno.EBUSY,
        errno.ETIMEDOUT,
        errno.ECONNRESET,
        errno.ECONNABORTED,
        errno.ENETRESET,
        errno.ENETUNREACH,
    }
)


def is_transient(exc: BaseException) -> bool:
    """Classify an exception as retriable (transient) or deterministic.

    An explicit boolean ``transient`` attribute wins (how
    :class:`InjectedFault` and custom errors opt in/out); otherwise
    network/OS error families are matched structurally.  Anything
    unrecognized — program bugs, type errors, engine errors — is
    deterministic: retrying it would just repeat the failure.
    """
    flag = getattr(exc, "transient", None)
    if flag is not None:
        return bool(flag)
    if isinstance(exc, urllib.error.HTTPError):
        return exc.code in TRANSIENT_HTTP_STATUSES
    if isinstance(exc, urllib.error.URLError):
        return True  # DNS/connection-level failure
    if isinstance(exc, (ConnectionError, TimeoutError, InterruptedError)):
        return True
    if isinstance(exc, OSError):
        return exc.errno in TRANSIENT_ERRNOS
    return False


def retry_call(
    fn: Callable[[], Any],
    *,
    retries: int = 2,
    backoff: float = 0.01,
    backoff_cap: float = 1.0,
    classify: Callable[[BaseException], bool] = is_transient,
    on_retry: Callable[[BaseException, int, float], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Call ``fn``, retrying transient failures up to ``retries`` times.

    Backoff is capped deterministic exponential — ``backoff * 2**attempt``
    bounded by ``backoff_cap``, no jitter — so reruns are reproducible.
    Deterministic failures (per ``classify``) and exhausted budgets
    re-raise the original exception unchanged.  ``on_retry(exc, attempt,
    delay)`` is invoked before each sleep (attempt counts from 1).
    """
    attempt = 0
    while True:
        try:
            return fn()
        except Exception as exc:
            if attempt >= retries or not classify(exc):
                raise
            delay = min(backoff * (2.0**attempt), backoff_cap)
            if on_retry is not None:
                on_retry(exc, attempt + 1, delay)
            if delay > 0:
                sleep(delay)
            attempt += 1
