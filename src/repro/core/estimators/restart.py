"""RESTART-ESTIMATOR: the repeated-execution baseline (paper §1, §3).

Every round is treated as an independent static database: the estimator
performs fresh random drill-downs (the static algorithm of Dasgupta et al.,
SIGMOD 2010) until the round's query budget is exhausted and averages their
contributions.  Nothing is carried across rounds, which is exactly the
waste the paper's algorithms remove.
"""

from __future__ import annotations

from ...hiddendb.session import QuerySession
from .base import EstimatorBase, RoundReport


class RestartEstimator(EstimatorBase):
    """Re-run the static drill-down estimator from scratch each round."""

    name = "RESTART"

    def _execute_round(
        self, session: QuerySession, round_index: int
    ) -> RoundReport:
        created, leaf_overflows = self._new_drilldowns_until_exhausted(
            self._walker(session), round_index
        )
        values_by_spec = {
            spec.name: [record.contributions[spec.name] for record in created]
            for spec in self.base_specs
        }
        estimates, variances = self._estimates_from_values(values_by_spec)
        self._finalize_estimates(round_index, estimates, variances)
        return RoundReport(
            round_index,
            estimates,
            variances,
            queries_used=session.queries_used,
            drilldowns_updated=0,
            drilldowns_new=len(created),
            leaf_overflows=leaf_overflows,
            active_drilldowns=len(created),
        )
