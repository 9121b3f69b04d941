"""Mid-stream man-in-the-middle attacker built on the URET evasion engine.

The offline attack manipulates a whole window at once.  A live attacker on
the CGM→pump link is weaker: past measurements have already been delivered,
so at each tick it may only rewrite the sample currently in flight.  This
module models exactly that adversary:

* During an :class:`AttackEpisode`, each incoming benign sample is attacked
  through the URET search on the *live context window* (the last
  ``history - 1`` delivered samples — including the attacker's own earlier
  tampering — plus the incoming sample), constrained to the scenario's
  plausible glucose range **and** to modifying at most the newest
  ``max_tampered_per_tick`` samples.  The delivered sample carries the CGM
  value the search assigned to the window's final position.
* Because each tick's tampering persists in the next tick's context, the
  manipulated suffix grows across an episode — the online analogue of the
  offline suffix transformations, and the mechanism that lets the attack
  build toward a hyperglycemia misdiagnosis over a few ticks.
* Once the context already predicts hyperglycemia (the goal is reached, so
  the window is ineligible for further search), ``sustain=True`` keeps
  delivering the last tampered CGM value to hold the misdiagnosis instead of
  snapping back to the benign stream.

Sessions under attack in the same tick that share a predictor are searched in
lockstep through :meth:`EvasionAttack.attack_batch` — the same batched engine
the offline campaign uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.constraints import (
    CompositeConstraint,
    MaxModifiedSamplesConstraint,
    constraint_for_scenario,
)
from repro.attacks.uret import EvasionAttack
from repro.data.cohort import CGM_COLUMN
from repro.glucose.states import Scenario, hyperglycemia_threshold
from repro.serving.session import PatientSession


@dataclass(frozen=True)
class AttackEpisode:
    """A contiguous tampering interval in session-tick coordinates."""

    start: int
    duration: int

    def __post_init__(self):
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    @property
    def end(self) -> int:
        """First tick after the episode."""
        return self.start + self.duration

    def covers(self, tick: int) -> bool:
        return self.start <= tick < self.end


@dataclass
class TamperRecord:
    """One delivered-sample manipulation, with its search provenance.

    ``success`` reports whether the *realized* window (the delivered stream)
    crossed the hyperglycemia threshold; sustain-mode ticks (``eligible``
    False — the context already predicted hyper, so no search ran) record
    ``success`` False.
    """

    session_id: str
    tick: int
    scenario: Scenario
    benign_cgm: float
    delivered_cgm: float
    eligible: bool
    success: bool
    queries: int
    #: True when this tick was resolved by replaying the previous tick's
    #: surviving transformation path (2 model queries) instead of a search.
    warm_started: bool = False

    @property
    def shift(self) -> float:
        """Signed CGM manipulation in mg/dL."""
        return self.delivered_cgm - self.benign_cgm


class OnlineAttacker:
    """Tamper live CGM streams during configured attack episodes.

    Parameters
    ----------
    episodes:
        ``{session_id: [AttackEpisode, ...]}`` — when each stream is attacked.
    attack_factory:
        Builds the :class:`EvasionAttack` per predictor (swap explorers or
        transformation sets here); defaults to the greedy URET engine.
    max_tampered_per_tick:
        How many of the newest window samples a single tick's *search* may
        modify.  1 (the default) is the strict in-flight attacker: the
        searched window and the delivered stream are identical.  Larger
        values let the search exploit rewriting recently buffered samples,
        but only the final sample is ever delivered — so the realized window
        differs from the searched one, and success is re-evaluated on the
        realized window (one extra batched model query per tick) so
        :class:`TamperRecord` and the replay metrics always describe what
        the stream actually saw.
    sustain:
        Hold the last tampered CGM value while the context already predicts
        hyperglycemia (see module docstring).
    warm_start:
        Seed each tick's search with the previous tick's surviving
        transformation path (the online windows overlap in all but one
        sample, so the path that worked a tick ago usually still works).  A
        successful replay costs 2 model queries instead of a full lockstep
        search; a failed replay falls back to the search with one extra
        query.  Per-tick query counts stay exact either way
        (``TamperRecord.queries``/``warm_started``).  Set False to restart
        the search from scratch every tick (the pre-warm-start behavior).
    obs:
        Optional :class:`~repro.obs.Observer` recording the attacker's
        deterministic activity counters (``attack.ticks_tampered_total``,
        ``attack.model_queries_total``, ``attack.warm_start_hits_total``, …
        — all per-record event counts, mirroring :class:`TamperRecord`).
        None (the default) records nothing.
    """

    def __init__(
        self,
        episodes: Mapping[str, Sequence[AttackEpisode]],
        attack_factory: Optional[Callable[[object], EvasionAttack]] = None,
        max_tampered_per_tick: int = 1,
        sustain: bool = True,
        warm_start: bool = True,
        obs=None,
    ):
        if max_tampered_per_tick <= 0:
            raise ValueError("max_tampered_per_tick must be positive")
        self.episodes: Dict[str, List[AttackEpisode]] = {
            str(session_id): sorted(session_episodes, key=lambda episode: episode.start)
            for session_id, session_episodes in episodes.items()
        }
        for session_id, session_episodes in self.episodes.items():
            for previous, current in zip(session_episodes, session_episodes[1:]):
                if current.start < previous.end:
                    raise ValueError(f"overlapping episodes for session {session_id!r}")
        self.attack_factory = attack_factory or (lambda predictor: EvasionAttack(predictor))
        self.max_tampered_per_tick = int(max_tampered_per_tick)
        self.sustain = bool(sustain)
        self.warm_start = bool(warm_start)
        self.obs = obs
        self.records: List[TamperRecord] = []
        # session_id -> the transformation path that reached the goal at that
        # session's previous attacked tick (the warm-start seed).
        self._seed_paths: Dict[str, List[str]] = {}
        self._attacks: Dict[str, EvasionAttack] = {}
        # id -> (predictor, hash); holding the predictor reference keeps the
        # id from being recycled for as long as the memo entry exists.
        self._hash_by_predictor: Dict[int, Tuple[object, str]] = {}
        self._held_cgm: Dict[str, float] = {}

    # ------------------------------------------------------------------ helpers
    def active_episode(self, session_id: str, tick: int) -> Optional[AttackEpisode]:
        for episode in self.episodes.get(str(session_id), ()):
            if episode.covers(tick):
                return episode
        return None

    def _attack_for(self, session: PatientSession) -> EvasionAttack:
        # state_hash digests every weight tensor — far too expensive for the
        # per-tick intercept path — so memoize it per predictor object (the
        # hash still deduplicates separately loaded identical checkpoints).
        predictor = session.predictor
        memo = self._hash_by_predictor.get(id(predictor))
        if memo is None or memo[0] is not predictor:
            memo = self._hash_by_predictor[id(predictor)] = (
                predictor,
                predictor.state_hash(),
            )
        key = memo[1]
        if key not in self._attacks:
            self._attacks[key] = self.attack_factory(predictor)
        return self._attacks[key]

    def _constraint_for(self, scenario: Scenario) -> CompositeConstraint:
        return CompositeConstraint(
            [
                constraint_for_scenario(scenario),
                MaxModifiedSamplesConstraint(max_modified=self.max_tampered_per_tick),
            ]
        )

    # ---------------------------------------------------------------- intercept
    def intercept(
        self,
        items: Sequence[Tuple[PatientSession, np.ndarray, Scenario]],
    ) -> Dict[str, np.ndarray]:
        """Intercept one tick's transmissions; return the delivered samples.

        ``items`` are ``(session, benign_sample, scenario)`` triples.  Streams
        outside an active episode (or still warming up) pass through benign;
        the rest are attacked — grouped by (predictor, scenario) and searched
        in lockstep via ``attack_batch``.
        """
        delivered: Dict[str, np.ndarray] = {}
        groups: Dict[tuple, dict] = {}

        for session, benign_sample, scenario in items:
            benign_sample = np.asarray(benign_sample, dtype=np.float64)
            session_id = session.session_id
            delivered[session_id] = benign_sample
            episode = self.active_episode(session_id, session.ticks)
            if episode is None:
                self._held_cgm.pop(session_id, None)
                self._seed_paths.pop(session_id, None)
                continue
            context = session.context_window(benign_sample)
            if context is None:  # not enough delivered history to form a window
                continue
            if not np.all(np.isfinite(context)):
                # A malformed (NaN / inf) sample is in flight or in recent
                # history — the evasion search would only propagate garbage
                # through the model, so the attacker sits this tick out.
                continue
            attack = self._attack_for(session)
            key = (id(attack), scenario)
            group = groups.setdefault(
                key, {"attack": attack, "scenario": scenario, "entries": []}
            )
            group["entries"].append((session, benign_sample, context))

        for group in groups.values():
            attack: EvasionAttack = group["attack"]
            scenario: Scenario = group["scenario"]
            windows = np.stack([context for _, _, context in group["entries"]])
            seed_paths = None
            if self.warm_start:
                seed_paths = [
                    self._seed_paths.get(session.session_id)
                    for session, _, _ in group["entries"]
                ]
                if not any(seed_paths):
                    seed_paths = None
            results = attack.attack_batch(
                windows,
                [scenario] * len(windows),
                constraint=self._constraint_for(scenario),
                seed_paths=seed_paths,
            )
            if self.warm_start:
                # Remember each session's surviving path as the next tick's
                # seed; a failed search invalidates the stale seed.  Sustain
                # ticks (ineligible: the context already predicts hyper)
                # keep their seed for when the search resumes.
                for (session, _, _), result in zip(group["entries"], results):
                    if not result.eligible:
                        continue
                    if result.success and result.path:
                        self._seed_paths[session.session_id] = list(result.path)
                    else:
                        self._seed_paths.pop(session.session_id, None)
            pending: List[tuple] = []
            for (session, benign_sample, context), result in zip(group["entries"], results):
                session_id = session.session_id
                benign_cgm = float(benign_sample[CGM_COLUMN])
                tampered_cgm: Optional[float] = None
                from_search = False
                if result.eligible:
                    candidate = float(result.adversarial_window[-1, CGM_COLUMN])
                    if abs(candidate - benign_cgm) > 1e-12:
                        tampered_cgm = candidate
                        from_search = True
                elif self.sustain and session_id in self._held_cgm:
                    # Goal already reached: hold the manipulated level instead
                    # of snapping back to the benign stream.
                    tampered_cgm = self._held_cgm[session_id]
                if tampered_cgm is None:
                    continue
                pending.append(
                    (session, benign_sample, context, result, tampered_cgm, from_search)
                )

            successes = [bool(result.success) for *_, result, _, _ in pending]
            if self.max_tampered_per_tick > 1 and pending:
                # The search was allowed to rewrite already-delivered samples,
                # but only the final sample is delivered — re-evaluate success
                # on the *realized* windows so records describe what the
                # stream actually saw.  (With max_tampered_per_tick == 1 the
                # searched and realized windows are identical; skip the query.)
                searched = [entry for entry in pending if entry[5]]
                if searched:
                    realized = np.stack(
                        [entry[2] for entry in searched]
                    )  # context windows
                    realized = realized.copy()
                    realized[:, -1, CGM_COLUMN] = [entry[4] for entry in searched]
                    predictions = attack.predictor.predict(realized)
                    threshold = hyperglycemia_threshold(scenario)
                    realized_success = iter(predictions > threshold)
                    successes = [
                        bool(next(realized_success)) if entry[5] else success
                        for entry, success in zip(pending, successes)
                    ]

            for (session, benign_sample, _, result, tampered_cgm, _), success in zip(
                pending, successes
            ):
                session_id = session.session_id
                sample = benign_sample.copy()
                sample[CGM_COLUMN] = tampered_cgm
                delivered[session_id] = sample
                self._held_cgm[session_id] = tampered_cgm
                record = TamperRecord(
                    session_id=session_id,
                    tick=session.ticks,
                    scenario=scenario,
                    benign_cgm=float(benign_sample[CGM_COLUMN]),
                    delivered_cgm=tampered_cgm,
                    eligible=bool(result.eligible),
                    success=success,
                    queries=int(result.queries),
                    warm_started=bool(result.warm_started),
                )
                self.records.append(record)
                if self.obs is not None:
                    registry = self.obs.registry
                    mode = "search" if record.eligible else "sustain"
                    registry.inc("attack.ticks_tampered_total", mode=mode)
                    registry.inc("attack.model_queries_total", record.queries)
                    if record.warm_started:
                        registry.inc("attack.warm_start_hits_total")
                    if record.eligible and record.success:
                        registry.inc("attack.successful_ticks_total")
        return delivered
