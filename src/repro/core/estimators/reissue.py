"""REISSUE-ESTIMATOR (paper §3, Algorithm 1).

The drill-down *signatures* generated in earlier rounds are reused: each
round, every remembered drill-down is re-validated starting from its
previous terminal node — one query if it still overflows and its child
terminates, two for a stable drill-down (strict mode), a short descent or
roll-up otherwise.  The budget left after all updates funds brand-new
drill-downs, so the sample keeps growing round after round, which is where
the accuracy advantage over RESTART comes from (Theorem 3.2).

Trans-round size changes are estimated from per-drill-down deltas: a
drill-down updated in both rounds contributes
``Q_j(q)/p - Q_{j-1}(q)/p``, whose mean is an unbiased, very-low-variance
estimate of ``Q(D_j) - Q(D_{j-1})`` (§3.2.1 Example 1).
"""

from __future__ import annotations

import math

from ...hiddendb.session import QuerySession
from ..aggregates import SizeChangeSpec
from ..drilldown import reissue_update  # noqa: F401 - re-exported
from ..variance import mean, variance_of_mean
from .base import DrillDownRecord, EstimatorBase, RoundReport


class ReissueEstimator(EstimatorBase):
    """Reuse drill-down signatures; update, then extend, every round."""

    name = "REISSUE"

    def _execute_round(
        self, session: QuerySession, round_index: int
    ) -> RoundReport:
        leaf_overflows = 0
        # (record, its last_round before this update, its old contributions);
        # feeds the trans-round delta estimates below.
        update_log: list[tuple[DrillDownRecord, int, dict[str, float]]] = []

        walker = self._walker(session)
        order = list(self.records)
        self.rng.shuffle(order)
        plan = [(record.signature, record.depth) for record in order]
        # The walker comes first in zip so it always runs to its end.
        for outcome, record in zip(walker.walk(plan), order):
            update_log.append(
                (record, record.last_round, dict(record.contributions))
            )
            self._apply_outcome(record, outcome, round_index)
            leaf_overflows += outcome.leaf_overflow

        new_records: list[DrillDownRecord] = []
        if not walker.exhausted:
            new_records, new_overflows = self._new_drilldowns_until_exhausted(
                walker, round_index
            )
            self.records.extend(new_records)
            leaf_overflows += new_overflows

        # Single-round estimates from every drill-down refreshed this round.
        current = [r for r in self.records if r.last_round == round_index]
        values_by_spec = {
            spec.name: [r.contributions[spec.name] for r in current]
            for spec in self.base_specs
        }
        estimates, variances = self._estimates_from_values(values_by_spec)

        overrides = self._size_change_overrides(round_index, update_log)
        self._finalize_estimates(
            round_index, estimates, variances, size_change_overrides=overrides
        )
        return RoundReport(
            round_index,
            estimates,
            variances,
            queries_used=session.queries_used,
            drilldowns_updated=len(update_log),
            drilldowns_new=len(new_records),
            leaf_overflows=leaf_overflows,
            active_drilldowns=len(self.records),
        )

    def _size_change_overrides(
        self,
        round_index: int,
        update_log: list[tuple[DrillDownRecord, int, dict[str, float]]],
    ) -> dict[str, tuple[float, float]]:
        """Delta-based size-change estimates from consecutive-round updates."""
        overrides: dict[str, tuple[float, float]] = {}
        for spec in self.specs:
            if not isinstance(spec, SizeChangeSpec):
                continue
            deltas = [
                record.contributions[spec.base.name]
                - old_contributions[spec.base.name]
                for record, old_round, old_contributions in update_log
                if old_round == round_index - 1
            ]
            if deltas:
                overrides[spec.name] = (
                    mean(deltas),
                    variance_of_mean(deltas) if len(deltas) > 1 else math.inf,
                )
        return overrides
