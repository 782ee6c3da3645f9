"""One-query-at-a-time reference walks and estimator rounds.

The library runs every round's drill-downs as batched, level-synchronous
plans (:class:`repro.core.drilldown.FrontierWalker`).  This module keeps
the plain sequential schedule those plans must reproduce: each walk issues
``QuerySession.search`` calls one by one, signatures come from
``rng.randrange``, and the estimators' rounds loop walk by walk until the
budget raises.  ``tests/test_frontier_parity.py`` compares the two.
"""

from __future__ import annotations

from repro.core.drilldown import DrillOutcome
from repro.core.estimators.base import RoundReport
from repro.core.estimators.reissue import ReissueEstimator
from repro.core.estimators.restart import RestartEstimator
from repro.core.estimators.rs import RsEstimator
from repro.errors import QueryBudgetExhausted, QueryError


def oracle_signature(tree, rng):
    return tuple(rng.randrange(size) for size in tree.free_sizes)


def oracle_drill_from_root(session, tree, signature):
    start = session.queries_used
    depth = 0
    result = session.search(tree.query_at(signature, depth))
    while result.overflow and depth < tree.max_depth:
        depth += 1
        result = session.search(tree.query_at(signature, depth))
    return DrillOutcome(
        signature, depth, result, session.queries_used - start,
        leaf_overflow=result.overflow,
    )


def oracle_reissue_update(session, tree, signature, start_depth,
                          parent_check="strict"):
    if parent_check not in ("strict", "lazy"):
        raise QueryError(f"unknown parent_check mode {parent_check!r}")
    if start_depth < 0 or start_depth > tree.max_depth:
        raise QueryError(f"start_depth {start_depth} out of range")
    start = session.queries_used
    depth = start_depth
    result = session.search(tree.query_at(signature, depth))
    if result.overflow:
        while result.overflow and depth < tree.max_depth:
            depth += 1
            result = session.search(tree.query_at(signature, depth))
        return DrillOutcome(
            signature, depth, result, session.queries_used - start,
            leaf_overflow=result.overflow,
        )
    if parent_check == "lazy" and result.valid:
        return DrillOutcome(signature, depth, result,
                            session.queries_used - start)
    while depth > 0:
        parent_result = session.search(tree.query_at(signature, depth - 1))
        if parent_result.overflow:
            break
        depth -= 1
        result = parent_result
        if parent_check == "lazy" and result.valid:
            break
    return DrillOutcome(signature, depth, result, session.queries_used - start)


class _OracleRounds:
    """Sequential versions of the estimators' round building blocks."""

    def _oracle_fresh(self, session, round_index):
        created = []
        leaf_overflows = 0
        while True:
            signature = oracle_signature(self.tree, self.rng)
            try:
                outcome = oracle_drill_from_root(session, self.tree, signature)
            except QueryBudgetExhausted:
                break
            created.append(self._record_from(outcome, round_index))
            leaf_overflows += outcome.leaf_overflow
        return created, leaf_overflows

    def _oracle_update(self, session, record):
        return oracle_reissue_update(
            session, self.tree, record.signature, record.depth,
            parent_check=self.parent_check,
        )


class OracleRestart(_OracleRounds, RestartEstimator):
    def _execute_round(self, session, round_index):
        created, leaf_overflows = self._oracle_fresh(session, round_index)
        values_by_spec = {
            spec.name: [record.contributions[spec.name] for record in created]
            for spec in self.base_specs
        }
        estimates, variances = self._estimates_from_values(values_by_spec)
        self._finalize_estimates(round_index, estimates, variances)
        return RoundReport(
            round_index, estimates, variances,
            queries_used=session.queries_used,
            drilldowns_updated=0,
            drilldowns_new=len(created),
            leaf_overflows=leaf_overflows,
            active_drilldowns=len(created),
        )


class OracleReissue(_OracleRounds, ReissueEstimator):
    def _execute_round(self, session, round_index):
        leaf_overflows = 0
        exhausted = False
        update_log = []
        order = list(self.records)
        self.rng.shuffle(order)
        for record in order:
            try:
                outcome = self._oracle_update(session, record)
            except QueryBudgetExhausted:
                exhausted = True
                break
            update_log.append(
                (record, record.last_round, dict(record.contributions))
            )
            self._apply_outcome(record, outcome, round_index)
            leaf_overflows += outcome.leaf_overflow
        new_records = []
        if not exhausted:
            new_records, new_overflows = self._oracle_fresh(
                session, round_index
            )
            self.records.extend(new_records)
            leaf_overflows += new_overflows
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
            round_index, estimates, variances,
            queries_used=session.queries_used,
            drilldowns_updated=len(update_log),
            drilldowns_new=len(new_records),
            leaf_overflows=leaf_overflows,
            active_drilldowns=len(self.records),
        )


class OracleRs(_OracleRounds, RsEstimator):
    def _execute_round(self, session, round_index):
        if not self.records:
            created, leaf_overflows = self._oracle_fresh(session, round_index)
            self.records.extend(created)
            values_by_spec = {
                spec.name: [r.contributions[spec.name] for r in created]
                for spec in self.base_specs
            }
            estimates, variances = self._estimates_from_values(values_by_spec)
            self._finalize_estimates(round_index, estimates, variances)
            return RoundReport(
                round_index, estimates, variances,
                queries_used=session.queries_used,
                drilldowns_new=len(created),
                leaf_overflows=leaf_overflows,
                active_drilldowns=len(self.records),
            )

        from repro.core.estimators.rs import _GroupData

        leaf_overflows = 0
        groups = self._bucket_records()
        self._pooled = self._pooled_variances()
        update_rounds = sorted(groups, reverse=True)
        data = {x: self._group_with_anchor(groups[x]) for x in update_rounds}
        data[round_index] = _GroupData()
        remaining = {}
        for x in update_rounds:
            pool = list(groups[x])
            self.rng.shuffle(pool)
            remaining[x] = pool

        exhausted = False
        for x in update_rounds:
            pilots = min(self.bootstrap_per_group, len(remaining[x]))
            for _ in range(pilots):
                record = remaining[x].pop()
                if not self._oracle_update_one(session, record, round_index,
                                               data[x]):
                    exhausted = True
                    break
                leaf_overflows += record.leaf_overflow
            if exhausted:
                break
        new_created = []
        if not exhausted:
            for _ in range(self.bootstrap_per_group):
                record = self._oracle_new_one(session, round_index,
                                              data[round_index])
                if record is None:
                    exhausted = True
                    break
                new_created.append(record)
                leaf_overflows += record.leaf_overflow

        if not exhausted and session.remaining and session.remaining > 0:
            allocation = self._allocate(
                round_index, data, remaining, session.remaining
            )
            plan = []
            for x, count in allocation.items():
                if x == round_index:
                    plan.extend(("new", x) for _ in range(count))
                else:
                    take = min(count, len(remaining[x]))
                    plan.extend(("update", x) for _ in range(take))
            self.rng.shuffle(plan)
            for kind, x in plan:
                if kind == "update":
                    record = remaining[x].pop()
                    if not self._oracle_update_one(session, record,
                                                   round_index, data[x]):
                        exhausted = True
                        break
                    leaf_overflows += record.leaf_overflow
                else:
                    record = self._oracle_new_one(session, round_index,
                                                  data[round_index])
                    if record is None:
                        exhausted = True
                        break
                    new_created.append(record)
                    leaf_overflows += record.leaf_overflow
            while not exhausted:
                record = self._oracle_new_one(session, round_index,
                                              data[round_index])
                if record is None:
                    break
                new_created.append(record)
                leaf_overflows += record.leaf_overflow
        self.records.extend(new_created)

        estimates, variances = self._combine(round_index, data)
        overrides = self._size_change_overrides(round_index, data)
        self._finalize_estimates(
            round_index, estimates, variances, size_change_overrides=overrides
        )
        updated_total = sum(
            d.count for x, d in data.items() if x != round_index
        )
        return RoundReport(
            round_index, estimates, variances,
            queries_used=session.queries_used,
            drilldowns_updated=updated_total,
            drilldowns_new=len(new_created),
            leaf_overflows=leaf_overflows,
            active_drilldowns=len(self.records),
        )

    def _oracle_update_one(self, session, record, round_index, group):
        try:
            outcome = self._oracle_update(session, record)
        except QueryBudgetExhausted:
            return False
        old = dict(record.contributions)
        self._apply_outcome(record, outcome, round_index)
        group.add(outcome.queries_spent, dict(record.contributions), old)
        return True

    def _oracle_new_one(self, session, round_index, group):
        signature = oracle_signature(self.tree, self.rng)
        try:
            outcome = oracle_drill_from_root(session, self.tree, signature)
        except QueryBudgetExhausted:
            return None
        record = self._record_from(outcome, round_index)
        group.add(outcome.queries_spent, dict(record.contributions))
        return record


ORACLES = {
    "RESTART": (RestartEstimator, OracleRestart),
    "REISSUE": (ReissueEstimator, OracleReissue),
    "RS": (RsEstimator, OracleRs),
}
