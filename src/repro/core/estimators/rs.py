"""RS-ESTIMATOR (paper §4, Algorithm 2).

Reservoir-sampling-inspired: the budget a round spends on *updating* old
drill-downs adapts to how much the database actually changed, estimated on
the fly from a small bootstrap phase.

Per round ``R_j``:

1. Partition remembered drill-downs into *groups* by the round they were
   last updated in; group ``j`` stands for brand-new drill-downs.
2. **Bootstrap** (Algorithm 2 line 4): run ``bootstrap_per_group`` pilot
   updates in each group (pilot fresh drill-downs for group ``j``), which
   yields per-group estimates of the update cost ``g_x`` and the change
   variance ``alpha_x`` (variance of the per-drill-down delta).
3. **Allocate** the remaining budget over groups by exact water-filling of
   Corollary 4.3's objective (see :mod:`repro.core.allocation`).
4. **Execute** the allocated updates/new drill-downs in random order until
   the budget runs out (line 8), folding results into the same group
   statistics.
5. **Combine** the per-group estimates with inverse-variance weights
   (Corollary 4.2).

Anchoring note.  The paper writes the group-``x`` estimator as
``fQ(x, q_j(r_i)) = Q~_x + |q_j(r_i)|/p - |q_x(r_i)|/p`` with ``Q~_x`` "the
estimation produced at round x".  We anchor each group on *its own* stored
contribution mean ``A_x = mean_i |q_x(r_i)|/p`` (which in the paper's
two-round Corollary 4.1 setting is exactly ``v~_1``, since group 1 is the
whole round-1 sample).  Unlike the round-``x`` *combined* estimate, the
``A_x`` of different groups are built from disjoint drill-down sets and are
therefore genuinely independent, so Corollary 4.2's inverse-variance
combination neither double-counts information nor ossifies on early
errors — the estimator's precision grows with the total number of
drill-downs ever performed, which is the behaviour §4 advertises.

When the database barely changes, ``alpha_x ~ 0`` and the allocator sends
nearly the whole budget to new drill-downs, so the error keeps shrinking
where REISSUE plateaus (Figure 5).  Under heavy churn ``alpha_x``
approaches the fresh-drill-down variance and updating (cheaper per
drill-down) dominates the allocation — REISSUE's behaviour, as §4.2's
comparison predicts.
"""

from __future__ import annotations

import math

from ...hiddendb.session import QuerySession
from ..aggregates import AggregateSpec, SizeChangeSpec
from ..allocation import GroupParams, integer_allocation
from ..drilldown import FRESH, DrillOutcome, FrontierWalker
from ..drilldown import drill_from_root, reissue_update  # noqa: F401 - re-exported
from ..variance import (
    combine_inverse_variance,
    mean,
    sample_variance,
    variance_of_mean,
)
from .base import DrillDownRecord, EstimatorBase, RoundReport

#: Fallback per-drill-down cost guess before any bootstrap data exists.
_DEFAULT_UPDATE_COST = 2.0


class _GroupData:
    """Per-round accumulation of one group's anchors and update results."""

    __slots__ = ("anchor_mean", "anchor_variance", "costs",
                 "old_contributions", "new_contributions")

    def __init__(
        self,
        anchor_mean: dict[str, float] | None = None,
        anchor_variance: dict[str, float] | None = None,
    ) -> None:
        #: Free (client-side) anchor: mean and variance-of-mean of the whole
        #: group's stored contributions, per base spec.  None for the
        #: new-drill-down group.
        self.anchor_mean = anchor_mean
        self.anchor_variance = anchor_variance
        self.costs: list[int] = []
        #: Aligned lists: contribution dicts before/after each update.
        self.old_contributions: list[dict[str, float]] = []
        self.new_contributions: list[dict[str, float]] = []

    def add(
        self,
        cost: int,
        new: dict[str, float],
        old: dict[str, float] | None = None,
    ) -> None:
        self.costs.append(cost)
        self.new_contributions.append(new)
        if old is not None:
            self.old_contributions.append(old)

    @property
    def count(self) -> int:
        return len(self.new_contributions)

    def deltas(self, spec_name: str) -> list[float]:
        return [
            new[spec_name] - old[spec_name]
            for old, new in zip(self.old_contributions, self.new_contributions)
        ]

    def news(self, spec_name: str) -> list[float]:
        return [new[spec_name] for new in self.new_contributions]

    def mean_cost(self) -> float:
        return mean(self.costs) if self.costs else _DEFAULT_UPDATE_COST


class RsEstimator(EstimatorBase):
    """Bootstrap the amount of change; split the budget accordingly."""

    name = "RS"

    def __init__(
        self,
        *args,
        bootstrap_per_group: int = 10,
        max_update_groups: int = 6,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if bootstrap_per_group < 2:
            raise ValueError("bootstrap_per_group must be at least 2")
        self.bootstrap_per_group = bootstrap_per_group
        #: Only the most recent groups are bootstrapped/updated in a round;
        #: older drill-downs stay dormant until they fall inside the window.
        self.max_update_groups = max_update_groups
        #: Pooled per-drill-down contribution variance, refreshed each round.
        self._pooled: dict[str, float] = {}

    # ------------------------------------------------------------------
    def _execute_round(
        self, session: QuerySession, round_index: int
    ) -> RoundReport:
        if not self.records:
            return self._first_round(session, round_index)

        leaf_overflows = 0
        groups = self._bucket_records()
        self._pooled = self._pooled_variances()
        update_rounds = sorted(groups, reverse=True)
        data: dict[int, _GroupData] = {
            x: self._group_with_anchor(groups[x]) for x in update_rounds
        }
        data[round_index] = _GroupData()
        remaining: dict[int, list[DrillDownRecord]] = {}
        for x in update_rounds:
            pool = list(groups[x])
            self.rng.shuffle(pool)
            remaining[x] = pool

        # ---- bootstrap phase -----------------------------------------
        walker = self._walker(session)
        new_created: list[DrillDownRecord] = []
        pilots: list[tuple[int, DrillDownRecord | None]] = []
        for x in update_rounds:
            for _ in range(min(self.bootstrap_per_group, len(remaining[x]))):
                pilots.append((x, remaining[x].pop()))
        pilots.extend((round_index, None) for _ in range(self.bootstrap_per_group))
        leaf_overflows += self._run_plan(
            walker, pilots, round_index, data, new_created
        )

        # ---- allocation and execution ----------------------------------
        if not walker.exhausted and session.remaining and session.remaining > 0:
            allocation = self._allocate(
                round_index, data, remaining, session.remaining
            )
            plan: list[tuple[str, int]] = []
            for x, count in allocation.items():
                if x == round_index:
                    plan.extend(("new", x) for _ in range(count))
                else:
                    take = min(count, len(remaining[x]))
                    plan.extend(("update", x) for _ in range(take))
            self.rng.shuffle(plan)
            items = [
                (x, remaining[x].pop() if kind == "update" else None)
                for kind, x in plan
            ]
            leaf_overflows += self._run_plan(
                walker, items, round_index, data, new_created
            )
            # Leftover budget (cost estimates are noisy): new drill-downs.
            for outcome in walker.fresh_until_exhausted(self.rng):
                leaf_overflows += self._fold(
                    round_index, None, outcome, round_index, data, new_created
                )
        self.records.extend(new_created)

        # ---- combination ----------------------------------------------
        estimates, variances = self._combine(round_index, data)
        overrides = self._size_change_overrides(round_index, data)
        self._finalize_estimates(
            round_index, estimates, variances, size_change_overrides=overrides
        )
        updated_total = sum(
            d.count for x, d in data.items() if x != round_index
        )
        return RoundReport(
            round_index,
            estimates,
            variances,
            queries_used=session.queries_used,
            drilldowns_updated=updated_total,
            drilldowns_new=len(new_created),
            leaf_overflows=leaf_overflows,
            active_drilldowns=len(self.records),
        )

    # ------------------------------------------------------------------
    # Phase helpers
    # ------------------------------------------------------------------
    def _pooled_variances(self) -> dict[str, float]:
        """Per-drill-down contribution variance pooled over all records.

        Contributions are identically distributed across groups (same tree,
        same database), so pooling gives a stable variance estimate where a
        single group's handful of draws — heavily skewed by design — would
        be wildly noisy and destabilise the inverse-variance weights.
        """
        pooled: dict[str, float] = {}
        for spec in self.base_specs:
            stored = [r.contributions[spec.name] for r in self.records]
            pooled[spec.name] = (
                sample_variance(stored) if len(stored) >= 2 else math.inf
            )
        return pooled

    def _bucket_records(self) -> dict[int, list[DrillDownRecord]]:
        """Partition records by last-updated round, archiving old rounds.

        The most recent ``max_update_groups - 1`` distinct rounds keep their
        own group (their change statistics differ); everything older is
        merged into one *archive* group keyed by its oldest round.  The
        anchored group estimator stays unbiased under merging: the anchor
        mean estimates the mixture ``mean_i Q(D_{x_i})`` and the delta mean
        estimates ``Q(D_j) - mean_i Q(D_{x_i})``, so their sum telescopes to
        ``Q(D_j)``.  Without merging, records older than the update window
        would sit dormant and their information would be lost.
        """
        by_round: dict[int, list[DrillDownRecord]] = {}
        for record in self.records:
            by_round.setdefault(record.last_round, []).append(record)
        distinct = sorted(by_round, reverse=True)
        recent = distinct[: max(self.max_update_groups - 1, 1)]
        older = distinct[len(recent):]
        groups = {x: by_round[x] for x in recent}
        if older:
            archive_key = min(older)
            archive: list[DrillDownRecord] = []
            for x in older:
                archive.extend(by_round[x])
            groups[archive_key] = archive
        return groups

    def _delta_alpha(self, deltas: list[float], spec_name: str) -> float:
        """Per-drill-down variance of a group's change term, with a floor.

        Change per drill-down is a rare, huge jump (a node's content shifts
        by a multiple of 1/p or not at all), so the sample variance of a
        handful of observed deltas — typically all zero — wildly
        understates the truth and would let stale anchors outvote fresh
        samples.  The floor ``2 * pooled / (c + 2)`` is a Jeffreys-style
        cap: with c verified deltas and no observed jump, the undetected
        jump rate can still be ~1/(c+2), and a jump's magnitude is on the
        order of the contribution spread.  More verification (larger c)
        shrinks the floor, so well-checked anchors regain full weight.
        """
        base = sample_variance(deltas) if len(deltas) >= 2 else 0.0
        pooled = self._pooled.get(spec_name, math.inf)
        if math.isfinite(pooled):
            return max(base, 2.0 * pooled / (len(deltas) + 2))
        return base

    def _group_with_anchor(
        self, records: list[DrillDownRecord]
    ) -> _GroupData:
        """Group data seeded with the free client-side anchor statistics."""
        anchor_mean: dict[str, float] = {}
        anchor_variance: dict[str, float] = {}
        for spec in self.base_specs:
            stored = [r.contributions[spec.name] for r in records]
            anchor_mean[spec.name] = mean(stored)
            anchor_variance[spec.name] = self._pooled[spec.name] / len(stored)
        return _GroupData(anchor_mean, anchor_variance)

    def _first_round(
        self, session: QuerySession, round_index: int
    ) -> RoundReport:
        """No history yet: behave like RESTART but remember the drill-downs."""
        created, leaf_overflows = self._new_drilldowns_until_exhausted(
            self._walker(session), round_index
        )
        self.records.extend(created)
        values_by_spec = {
            spec.name: [r.contributions[spec.name] for r in created]
            for spec in self.base_specs
        }
        estimates, variances = self._estimates_from_values(values_by_spec)
        self._finalize_estimates(round_index, estimates, variances)
        return RoundReport(
            round_index,
            estimates,
            variances,
            queries_used=session.queries_used,
            drilldowns_new=len(created),
            leaf_overflows=leaf_overflows,
            active_drilldowns=len(self.records),
        )

    def _run_plan(
        self,
        walker: FrontierWalker,
        items: list[tuple[int, DrillDownRecord | None]],
        round_index: int,
        data: dict[int, _GroupData],
        new_created: list[DrillDownRecord],
    ) -> int:
        """Run ``(group, record)`` items as one walker plan — a record is
        reissued, ``None`` is a fresh drill-down — folding each outcome
        into its group until the budget runs out; returns leaf overflows."""
        plan = [
            FRESH if record is None else (record.signature, record.depth)
            for _x, record in items
        ]
        leaf_overflows = 0
        # The walker comes first in zip so it always runs to its end.
        for outcome, (x, record) in zip(walker.walk(plan, self.rng), items):
            leaf_overflows += self._fold(
                x, record, outcome, round_index, data, new_created
            )
        return leaf_overflows

    def _fold(
        self,
        x: int,
        record: DrillDownRecord | None,
        outcome: DrillOutcome,
        round_index: int,
        data: dict[int, _GroupData],
        new_created: list[DrillDownRecord],
    ) -> bool:
        """Book one walk's outcome in group ``x``; returns its leaf flag."""
        if record is None:
            record = self._record_from(outcome, round_index)
            new_created.append(record)
            data[x].add(outcome.queries_spent, dict(record.contributions))
        else:
            old = dict(record.contributions)
            self._apply_outcome(record, outcome, round_index)
            data[x].add(outcome.queries_spent, dict(record.contributions), old)
        return record.leaf_overflow

    # ------------------------------------------------------------------
    # Allocation inputs (Corollary 4.3's alpha/beta/g per group)
    # ------------------------------------------------------------------
    def _primary_spec(self) -> AggregateSpec:
        return self.base_specs[0]

    def _allocate(
        self,
        round_index: int,
        data: dict[int, _GroupData],
        remaining: dict[int, list[DrillDownRecord]],
        budget: int,
    ) -> dict[int, int]:
        primary = self._primary_spec().name
        params: list[GroupParams] = []
        for x, group in data.items():
            if x == round_index:
                alpha = self._pooled.get(primary, math.inf)
                if not math.isfinite(alpha):
                    news = group.news(primary)
                    alpha = sample_variance(news) if len(news) >= 2 else 0.0
                params.append(
                    GroupParams(
                        x,
                        alpha=alpha,
                        beta=0.0,
                        cost=group.mean_cost(),
                        upper=math.inf,
                    )
                )
                continue
            if not remaining.get(x):
                continue
            beta = (
                group.anchor_variance.get(primary, math.inf)
                if group.anchor_variance
                else math.inf
            )
            if not math.isfinite(beta):
                # Single-record group: no usable anchor; its update is no
                # better than a fresh drill-down, so leave it dormant.
                continue
            deltas = group.deltas(primary)
            alpha = self._delta_alpha(deltas, primary)
            params.append(
                GroupParams(
                    x,
                    alpha=alpha,
                    beta=beta,
                    cost=group.mean_cost(),
                    upper=len(remaining[x]),
                )
            )
        return integer_allocation(params, budget)

    # ------------------------------------------------------------------
    # Combination (Corollary 4.2)
    # ------------------------------------------------------------------
    def _group_estimate(
        self, x: int, round_index: int, group: _GroupData, spec_name: str
    ) -> tuple[float, float] | None:
        """(estimate, variance) the group contributes for one base spec."""
        if group.count == 0:
            return None
        if x == round_index:
            news = group.news(spec_name)
            pooled = self._pooled.get(spec_name, math.inf)
            if math.isfinite(pooled):
                return mean(news), pooled / len(news)
            return mean(news), variance_of_mean(news)
        anchor = (
            group.anchor_mean.get(spec_name, math.nan)
            if group.anchor_mean
            else math.nan
        )
        beta = (
            group.anchor_variance.get(spec_name, math.inf)
            if group.anchor_variance
            else math.inf
        )
        deltas = group.deltas(spec_name)
        if math.isnan(anchor) or not math.isfinite(beta) or not deltas:
            # No usable anchor: fall back to treating the refreshed
            # contributions as fresh samples of the current round.
            news = group.news(spec_name)
            return mean(news), variance_of_mean(news)
        delta_variance = self._delta_alpha(deltas, spec_name) / len(deltas)
        return anchor + mean(deltas), beta + delta_variance

    def _combine(
        self, round_index: int, data: dict[int, _GroupData]
    ) -> tuple[dict[str, float], dict[str, float]]:
        estimates: dict[str, float] = {}
        variances: dict[str, float] = {}
        for spec in self.base_specs:
            parts = []
            for x, group in data.items():
                part = self._group_estimate(x, round_index, group, spec.name)
                if part is not None:
                    parts.append(part)
            try:
                estimates[spec.name], variances[spec.name] = (
                    combine_inverse_variance(parts)
                )
            except ValueError:
                previous = self.history[-1] if self.history else None
                estimates[spec.name] = (
                    previous.estimates.get(spec.name, math.nan)
                    if previous
                    else math.nan
                )
                variances[spec.name] = math.inf
        return estimates, variances

    # ------------------------------------------------------------------
    # Trans-round size change (§4.3's fQ cases)
    # ------------------------------------------------------------------
    def _size_change_overrides(
        self, round_index: int, data: dict[int, _GroupData]
    ) -> dict[str, tuple[float, float]]:
        overrides: dict[str, tuple[float, float]] = {}
        for spec in self.specs:
            if not isinstance(spec, SizeChangeSpec):
                continue
            base = spec.base.name
            parts = []
            # Group j-1 contributes direct deltas: |q_j|/p - |q_{j-1}|/p.
            previous_group = data.get(round_index - 1)
            if previous_group is not None and previous_group.count:
                deltas = previous_group.deltas(base)
                if deltas:
                    parts.append(
                        (
                            mean(deltas),
                            variance_of_mean(deltas)
                            if len(deltas) > 1
                            else math.inf,
                        )
                    )
            # Other groups reduce to |q_j|/p - Q~_{j-1} (fQ's x < j-1 case).
            previous_report = self._reports_by_round.get(round_index - 1)
            if previous_report is not None:
                anchor = previous_report.estimates.get(base, math.nan)
                anchor_variance = previous_report.variances.get(base, math.inf)
                if not math.isnan(anchor) and math.isfinite(anchor_variance):
                    news = []
                    for x, group in data.items():
                        if x == round_index - 1:
                            continue
                        news.extend(group.news(base))
                    if len(news) >= 2:
                        parts.append(
                            (
                                mean(news) - anchor,
                                variance_of_mean(news) + anchor_variance,
                            )
                        )
            try:
                overrides[spec.name] = combine_inverse_variance(parts)
            except ValueError:
                pass  # fall back to the base-class difference estimate
        return overrides
