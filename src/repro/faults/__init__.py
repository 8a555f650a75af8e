"""Deterministic fault injection for the sweep/cluster stack.

The cluster protocol claims to survive crashed workers, poisoned jobs, torn
shard writes and stalled heartbeats — this module makes those failures
*schedulable*, so the chaos tests (and ``bench_cluster --poison``) can
assert the survival invariants deterministically instead of hoping a race
shows up.

A :class:`FaultPlan` is a list of :class:`FaultRule` entries, each naming a
**seam** (a point in the worker/executor flow where faults are injected):

=============  ==============================================================
seam           fires
=============  ==============================================================
``claim``      right after a worker claims an item, before any execution
``execute``    just before :func:`~repro.runtime.executors.execute_group`
``publish``    just before the group's records are appended to the shard
``complete``   after a durable publish, before the completion rename
``heartbeat``  in the background lease-refresh thread, before each beat
=============  ==============================================================

and a **kind**:

* ``exception`` — raise :class:`InjectedFault` (a poisoned job);
* ``stall`` — sleep ``stall_s`` seconds (a slow disk / GC pause);
* ``stall_resume`` — sleep ``stall_s`` seconds *and then keep going*: a
  zombie that outlives its lease and resumes publishing.  Pair it with a
  ``stall_s`` past the lease timeout to rehearse the fence (the merge layer
  must reject the zombie's stale-fenced shard lines);
* ``sigkill`` — ``SIGKILL`` the current process (a crashed worker);
* ``malloc`` — raise :class:`MemoryError` (an allocation that failed under
  memory pressure; the containment boundary must treat it like any other
  poisoned attempt, not die);
* ``torn_write`` — cooperative: :meth:`FaultPlan.should_tear` returns
  ``True`` and the *seam's owner* performs the torn write (only the code
  holding the file handle can tear its own write, so this kind never fires
  from :meth:`FaultPlan.fire`);
* ``disk_full`` — cooperative: :meth:`FaultPlan.should_fill_disk` tells the
  seam owner to write a torn prefix and raise ``ENOSPC``, the failure a
  filesystem that filled up mid-append produces;
* ``clock_skew`` — cooperative: :meth:`FaultPlan.clock_skew` hands the seam
  owner a ``skew_s`` offset to stamp into lease mtimes (a worker whose
  clock runs ahead; ``cluster verify`` flags the future-dated lease).

Rules match a seam ``tag`` (usually the queue item id) with an
:func:`fnmatch.fnmatch` pattern, arm on the ``nth`` matching visit, fire at
most ``times`` times per process (``None``: every armed visit), and may fire
probabilistically (``p``) — where the coin flip derives from the plan seed,
the rule and the visit number via :func:`repro.utils.rng.derived_seed`, so a
given schedule makes identical decisions on every host and every rerun.
With ``scope="run"`` the ``times`` budget is shared across the *fleet*
instead: firings claim slot files under ``<run_dir>/faults/`` (bound via
:meth:`FaultPlan.bind` by :func:`repro.cluster.worker.worker_loop`) with
``O_CREAT|O_EXCL``, so ``times=1`` means once run-wide no matter how many
worker processes carry the plan.  The per-process default is deliberate —
poison rules ("tear the first publish of item X") must re-arm in every
crash-looped replacement worker.

Plans propagate exactly like telemetry configuration: a process-local
install (:func:`install`), the :data:`FAULTS_ENV` environment variable, or
the run manifest (``manifest["faults"]``, written by
:func:`repro.cluster.broker.prepare_run_dir`) — in that precedence order,
resolved by :func:`repro.cluster.worker.worker_loop` so spawned worker
daemons honor the same schedule as in-process callers.  This generalizes (and subsumes) the original single-purpose
:data:`~repro.cluster.worker.CRASH_AFTER_CLAIM_ENV` hook, which is now a
one-rule plan (:func:`crash_after_claim_plan`).

With no plan installed, every seam costs one ``None`` check.
"""

from __future__ import annotations

import fnmatch
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.utils.rng import derived_seed, new_rng

__all__ = [
    "FAULTS_ENV",
    "SEAMS",
    "KINDS",
    "SCOPES",
    "BUDGET_DIRNAME",
    "InjectedFault",
    "FaultRule",
    "FaultPlan",
    "install",
    "clear",
    "current",
    "fire",
    "should_tear",
    "should_fill_disk",
    "clock_skew",
    "plan_from_env",
    "crash_after_claim_plan",
]

#: Environment variable holding a JSON-serialized plan (see
#: :meth:`FaultPlan.to_json`); spawned subprocesses inherit it.
FAULTS_ENV = "REPRO_FAULT_SCHEDULE"

#: Directory under a run dir where run-scoped rules claim firing slots.
BUDGET_DIRNAME = "faults"

SEAMS = ("claim", "execute", "publish", "complete", "heartbeat")
KINDS = (
    "exception",
    "stall",
    "stall_resume",
    "sigkill",
    "malloc",
    "torn_write",
    "disk_full",
    "clock_skew",
)
SCOPES = ("process", "run")


class InjectedFault(RuntimeError):
    """The exception raised by an ``exception``-kind fault rule."""


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: where, what, when and how often.

    Parameters
    ----------
    seam:
        Injection point, one of :data:`SEAMS`.
    kind:
        Fault kind, one of :data:`KINDS`.
    match:
        :mod:`fnmatch` pattern over the seam tag (usually the queue item id);
        ``"*"`` matches every visit, an exact item id poisons one item.
    nth:
        Arm on the ``nth`` matching visit of this rule in this process
        (1-based) — ``nth=3`` lets two visits pass untouched.
    times:
        Fire at most this many times per process; ``None`` fires on every
        armed visit (a permanently poisoned item).
    p:
        Probability a given armed visit fires.  Decided by a coin derived
        from ``(plan seed, rule, seam, tag, visit)``, so the same schedule
        replays identically.
    stall_s:
        Sleep duration for ``stall`` / ``stall_resume`` rules.
    skew_s:
        Clock offset (seconds, may be negative) handed to the seam owner by
        ``clock_skew`` rules; the default is a clock running five minutes
        ahead — far past any sane lease timeout.
    scope:
        ``"process"`` (default): the ``times`` budget counts per process.
        ``"run"``: firings additionally claim slot files under the bound
        run directory (:meth:`FaultPlan.bind`), so the budget is fleet-wide.
        An unbound run-scoped rule falls back to per-process counting.
    note:
        Free-form annotation, carried into telemetry events.
    """

    seam: str
    kind: str
    match: str = "*"
    nth: int = 1
    times: Optional[int] = 1
    p: float = 1.0
    stall_s: float = 0.05
    skew_s: float = 300.0
    scope: str = "process"
    note: str = ""

    def __post_init__(self):
        if self.seam not in SEAMS:
            raise ValueError(f"unknown fault seam {self.seam!r}; one of {SEAMS}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {KINDS}")
        if self.nth < 1:
            raise ValueError(f"nth must be at least 1, got {self.nth}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be at least 1 or None, got {self.times}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.stall_s < 0:
            raise ValueError(f"stall_s must be non-negative, got {self.stall_s}")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown fault scope {self.scope!r}; one of {SCOPES}")
        if self.scope == "run" and self.times is None:
            raise ValueError("scope='run' needs a finite times budget to share")

    def to_record(self) -> Dict[str, object]:
        return {
            "seam": self.seam,
            "kind": self.kind,
            "match": self.match,
            "nth": self.nth,
            "times": self.times,
            "p": self.p,
            "stall_s": self.stall_s,
            "skew_s": self.skew_s,
            "scope": self.scope,
            "note": self.note,
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "FaultRule":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in dict(record).items() if k in known})


@dataclass
class FaultPlan:
    """A seeded fault schedule; per-rule counters live per process.

    The counters (visits, firings) are process-local by design: a schedule
    like "tear the first publish of item X" then applies to *each* worker
    process that reaches that seam, which is what crash-loop scenarios need.
    """

    rules: List[FaultRule] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        self.rules = [
            rule if isinstance(rule, FaultRule) else FaultRule.from_record(rule)
            for rule in self.rules
        ]
        self._visits: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}
        self._budget_dir: Optional[str] = None

    # -- scheduling -----------------------------------------------------------

    def bind(self, budget_dir: str) -> "FaultPlan":
        """Bind run-scoped rules to a shared firing-budget directory.

        Workers bind the plan to ``<run_dir>/faults/`` before installing it
        (:func:`repro.cluster.worker.worker_loop`), so every process serving
        one run shares one budget.  Returns ``self`` for chaining; binding
        an already-bound plan to the same directory is a no-op.
        """
        self._budget_dir = os.path.abspath(budget_dir)
        return self

    def _acquire_slot(self, index: int, rule: FaultRule) -> bool:
        """Claim one fleet-wide firing slot for a run-scoped rule.

        Slots are files created with ``O_CREAT|O_EXCL`` — atomic on POSIX,
        so across every process exactly ``times`` acquisitions can ever
        succeed for one rule.
        """
        os.makedirs(self._budget_dir, exist_ok=True)
        for slot in range(int(rule.times)):
            path = os.path.join(self._budget_dir, f"rule-{index}-slot-{slot}")
            try:
                os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return True
            # repro: ignore[REP008] slot already claimed by another process
            # (or an earlier firing of this one); try the next slot.
            except FileExistsError:
                continue
        return False

    def _armed(self, index: int, rule: FaultRule, tag: str) -> bool:
        """Record one visit of ``rule`` and decide whether it fires."""
        visit = self._visits.get(index, 0) + 1
        self._visits[index] = visit
        if visit < rule.nth:
            return False
        if rule.times is not None and self._fired.get(index, 0) >= rule.times:
            return False
        if rule.p < 1.0:
            coin = new_rng(
                derived_seed(self.seed, index, rule.seam, tag, visit)
            ).random()
            if coin >= rule.p:
                return False
        if rule.scope == "run" and self._budget_dir is not None:
            if not self._acquire_slot(index, rule):
                return False
        self._fired[index] = self._fired.get(index, 0) + 1
        return True

    def _firing(self, seam: str, tag: str, kinds: Sequence[str]) -> List[FaultRule]:
        firing = []
        for index, rule in enumerate(self.rules):
            if rule.seam != seam or rule.kind not in kinds:
                continue
            if not fnmatch.fnmatch(tag, rule.match):
                continue
            if self._armed(index, rule, tag):
                firing.append(rule)
        return firing

    def fire(self, seam: str, tag: str = "") -> None:
        """Inject every scheduled fault of this seam visit.

        Stalls (both kinds) sleep and fall through — ``stall_resume`` is a
        ``stall`` whose name documents the scenario: the sleep outlasts the
        lease, the worker resumes as a zombie and keeps publishing, and the
        fence must stop it.  An exception or SIGKILL ends the visit the
        obvious way.  The cooperative kinds (``torn_write``, ``disk_full``,
        ``clock_skew``) never fire here — only the seam owner can perform
        them; see :meth:`should_tear` / :meth:`should_fill_disk` /
        :meth:`clock_skew`.
        """
        firing = self._firing(
            seam, tag, ("stall", "stall_resume", "exception", "sigkill", "malloc")
        )
        for rule in firing:
            telemetry.get_recorder().event(
                "faults.injected", level="warning",
                seam=seam, kind=rule.kind, tag=tag, note=rule.note,
            )
            if rule.kind in ("stall", "stall_resume"):
                time.sleep(rule.stall_s)
            elif rule.kind == "exception":
                raise InjectedFault(
                    f"injected fault at seam {seam!r}"
                    + (f" ({rule.note})" if rule.note else "")
                )
            elif rule.kind == "malloc":
                raise MemoryError(
                    f"injected allocation failure at seam {seam!r}"
                    + (f" ({rule.note})" if rule.note else "")
                )
            else:  # pragma: no cover - the process dies here
                import signal

                os.kill(os.getpid(), signal.SIGKILL)

    def should_tear(self, seam: str, tag: str = "") -> bool:
        """``True`` when a ``torn_write`` rule fires on this seam visit.

        The caller owns the file handle, so the caller performs the torn
        write (and, per the scenario's contract, dies without completing the
        item — see ``_torn_publish`` in :mod:`repro.cluster.worker`).
        """
        firing = self._firing(seam, tag, ("torn_write",))
        if firing:
            telemetry.get_recorder().event(
                "faults.injected", level="warning",
                seam=seam, kind="torn_write", tag=tag, note=firing[0].note,
            )
        return bool(firing)

    def should_fill_disk(self, seam: str, tag: str = "") -> bool:
        """``True`` when a ``disk_full`` rule fires on this seam visit.

        Cooperative like :meth:`should_tear`: the seam owner writes the torn
        prefix its filesystem would have managed and raises ``ENOSPC`` (see
        ``_disk_full_publish`` in :mod:`repro.cluster.worker`), so the
        containment boundary — not the injection harness — handles it.
        """
        firing = self._firing(seam, tag, ("disk_full",))
        if firing:
            telemetry.get_recorder().event(
                "faults.injected", level="warning",
                seam=seam, kind="disk_full", tag=tag, note=firing[0].note,
            )
        return bool(firing)

    def clock_skew(self, seam: str, tag: str = "") -> Optional[float]:
        """Clock offset to apply on this seam visit, or ``None``.

        Cooperative: the seam owner (the heartbeat thread) stamps lease
        mtimes at ``now + skew_s``, simulating a worker whose clock runs
        ahead — which defeats mtime-based expiry and is exactly what
        ``cluster verify``'s ``queue.clock_skew`` check catches.
        """
        firing = self._firing(seam, tag, ("clock_skew",))
        if not firing:
            return None
        telemetry.get_recorder().event(
            "faults.injected", level="warning",
            seam=seam, kind="clock_skew", tag=tag,
            skew_s=firing[0].skew_s, note=firing[0].note,
        )
        return firing[0].skew_s

    def fired_counts(self) -> Dict[str, int]:
        """``{"seam:kind": firings}`` so far in this process (test helper)."""
        counts: Dict[str, int] = {}
        for index, fired in self._fired.items():
            rule = self.rules[index]
            key = f"{rule.seam}:{rule.kind}"
            counts[key] = counts.get(key, 0) + fired
        return counts

    # -- serialization --------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """A JSON-safe document (the manifest / env-var representation)."""
        return {
            "seed": self.seed,
            "rules": [rule.to_record() for rule in self.rules],
        }

    @classmethod
    def from_json(cls, obj: Dict[str, object]) -> "FaultPlan":
        return cls(
            rules=[FaultRule.from_record(r) for r in (obj.get("rules") or [])],
            seed=int(obj.get("seed") or 0),
        )

    def to_env(self) -> Dict[str, str]:
        """``{FAULTS_ENV: json}`` for ``subprocess`` ``env=`` plumbing."""
        return {FAULTS_ENV: json.dumps(self.to_json(), sort_keys=True)}


# -- process-local plan -------------------------------------------------------

_PLAN: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` as this process's fault schedule (``None`` clears)."""
    global _PLAN
    _PLAN = plan


def clear() -> None:
    """Remove any installed fault schedule."""
    install(None)


def current() -> Optional[FaultPlan]:
    """The installed fault schedule, or ``None``."""
    return _PLAN


def fire(seam: str, tag: str = "") -> None:
    """Module-level seam hook: delegates to the installed plan, if any."""
    if _PLAN is not None:
        _PLAN.fire(seam, tag)


def should_tear(seam: str, tag: str = "") -> bool:
    """Module-level cooperative torn-write hook (``False`` with no plan)."""
    return _PLAN is not None and _PLAN.should_tear(seam, tag)


def should_fill_disk(seam: str, tag: str = "") -> bool:
    """Module-level cooperative disk-full hook (``False`` with no plan)."""
    return _PLAN is not None and _PLAN.should_fill_disk(seam, tag)


def clock_skew(seam: str, tag: str = "") -> Optional[float]:
    """Module-level cooperative clock-skew hook (``None`` with no plan)."""
    return None if _PLAN is None else _PLAN.clock_skew(seam, tag)


def plan_from_env() -> Optional[FaultPlan]:
    """The plan serialized in :data:`FAULTS_ENV`, or ``None``.

    A malformed value raises — a chaos schedule that silently fails to
    parse would let a broken test pass vacuously.
    """
    raw = os.environ.get(FAULTS_ENV)
    if not raw:
        return None
    return FaultPlan.from_json(json.loads(raw))


def crash_after_claim_plan(nth: int) -> FaultPlan:
    """The legacy ``CRASH_AFTER_CLAIM_ENV`` behaviour as a one-rule plan:
    SIGKILL this process right after its ``nth`` successful claim."""
    return FaultPlan(
        [FaultRule(seam="claim", kind="sigkill", nth=int(nth),
                   note="crash_after_claim")]
    )
