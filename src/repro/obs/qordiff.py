"""QoR diffing: per-metric regression policies and markdown dashboards.

Compares two :class:`~repro.obs.qor.RunRecord` snapshots cell by cell
((circuit, K, mapper) x metric) under explicit :class:`MetricPolicy`
rules:

* **hard** metrics (LUT count, depth) — the mapper is deterministic, so
  *any* worsening is a regression and any improvement counts;
* **soft** metrics (wall time) — noisy by nature, so a change only
  registers beyond a relative-plus-absolute tolerance band
  (``base * rel_tol + abs_tol``).

Each cell/metric pair is classified ``improved`` / ``unchanged`` /
``regressed``; LUT regressions are additionally attributed to the
individual source trees that got worse, using the per-tree provenance
profile carried in each report.  The result renders as a markdown
dashboard and drives the ``chortle qor diff``/``gate`` exit status.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.qor import CellKey, RunRecord

if TYPE_CHECKING:
    from repro.obs.explain import DecisionDelta, MappingExplanation

IMPROVED = "improved"
UNCHANGED = "unchanged"
REGRESSED = "regressed"


@dataclass(frozen=True)
class MetricPolicy:
    """How one report metric is compared and gated.

    ``hard`` policies treat any increase as a regression; soft policies
    tolerate noise up to ``base * rel_tol + abs_tol`` in either
    direction.  ``gate=False`` metrics are classified and shown on the
    dashboard but never fail the gate.
    """

    metric: str
    hard: bool = True
    rel_tol: float = 0.0
    abs_tol: float = 0.0
    gate: bool = True

    def tolerance(self, base: float) -> float:
        return abs(base) * self.rel_tol + self.abs_tol

    def classify(self, base: float, current: float) -> str:
        delta = current - base
        if self.hard:
            if delta > 0:
                return REGRESSED
            if delta < 0:
                return IMPROVED
            return UNCHANGED
        tol = self.tolerance(base)
        if delta > tol:
            return REGRESSED
        if delta < -tol:
            return IMPROVED
        return UNCHANGED


# LUT count and depth regress hard and gate.  Wall times are classified
# beyond 50% + 250ms of noise headroom and shown on the dashboard, but
# never gate: raw seconds recorded on another host measure the host, not
# the program (a 2-vCPU runner reads the committed baseline's des/pair
# cells at ~1.8x with every LUT unchanged).  Cross-commit timing is the
# repo benchmark's job, which runs parent and change on one host.
DEFAULT_POLICIES: Tuple[MetricPolicy, ...] = (
    MetricPolicy("luts", hard=True),
    MetricPolicy("depth", hard=True),
    # Mapper-only wall clock.
    MetricPolicy("seconds", hard=False, rel_tol=0.50, abs_tol=0.25,
                 gate=False),
    # Whole-cell wall clock (mapping + verify + report assembly).  Skipped
    # automatically against baselines recorded before the field existed.
    MetricPolicy("wall_seconds", hard=False, rel_tol=0.50, abs_tol=0.25,
                 gate=False),
)


@dataclass
class TreeDelta:
    """One source tree whose cost-counted LUTs changed between runs."""

    tree: str
    baseline: int
    current: int

    @property
    def delta(self) -> int:
        return self.current - self.baseline


@dataclass
class CellDiff:
    """One (circuit, K, mapper, metric) comparison."""

    circuit: str
    k: int
    mapper: str
    metric: str
    baseline: float
    current: float
    status: str
    gated: bool
    tree_deltas: List[TreeDelta] = field(default_factory=list)
    # Decision-level drill-down: the individual DP choices that changed
    # inside the worsened trees (filled by attach_decision_drilldown
    # when explanations are on hand).
    decision_deltas: List[DecisionDelta] = field(default_factory=list)

    @property
    def delta(self) -> float:
        return self.current - self.baseline

    def cell_name(self) -> str:
        return "(%s, K=%d, %s, %s)" % (self.circuit, self.k, self.mapper, self.metric)

    def describe(self) -> str:
        line = "%s: %s %g -> %g (%+g)" % (
            self.cell_name(),
            self.status,
            self.baseline,
            self.current,
            self.delta,
        )
        worse = [t for t in self.tree_deltas if t.delta > 0]
        if worse:
            line += " [worse trees: %s]" % ", ".join(
                "%s %d->%d" % (t.tree, t.baseline, t.current) for t in worse[:5]
            )
        return line


def _tree_deltas(
    base: Optional[Dict[str, int]], cur: Optional[Dict[str, int]]
) -> List[TreeDelta]:
    """Per-tree LUT changes, worst first (provenance-carrying runs only)."""
    if not base or not cur:
        return []
    deltas = []
    for tree in set(base) | set(cur):
        b, c = base.get(tree, 0), cur.get(tree, 0)
        if b != c:
            deltas.append(TreeDelta(tree=tree, baseline=b, current=c))
    deltas.sort(key=lambda t: (-t.delta, t.tree))
    return deltas


@dataclass
class QorDiff:
    """Every classified cell plus suite-membership changes."""

    cells: List[CellDiff]
    added: List[CellKey] = field(default_factory=list)
    removed: List[CellKey] = field(default_factory=list)
    baseline_summary: str = ""
    current_summary: str = ""

    @property
    def regressions(self) -> List[CellDiff]:
        return [c for c in self.cells if c.status == REGRESSED]

    @property
    def improvements(self) -> List[CellDiff]:
        return [c for c in self.cells if c.status == IMPROVED]

    @property
    def gate_failures(self) -> List[CellDiff]:
        return [c for c in self.cells if c.status == REGRESSED and c.gated]

    def passes_gate(self) -> bool:
        """True when nothing gated regressed and no baseline cell vanished."""
        return not self.gate_failures and not self.removed

    def to_markdown(self) -> str:
        """Render the diff as a markdown dashboard."""
        lines = ["# QoR diff"]
        if self.baseline_summary or self.current_summary:
            lines.append("")
            lines.append("- baseline: %s" % (self.baseline_summary or "?"))
            lines.append("- current:  %s" % (self.current_summary or "?"))
        n_reg = len(self.regressions)
        n_imp = len(self.improvements)
        n_unc = len(self.cells) - n_reg - n_imp
        lines.append("")
        lines.append(
            "**%d regressed / %d improved / %d unchanged** across %d "
            "cell-metric comparisons.  Gate: **%s**."
            % (
                n_reg,
                n_imp,
                n_unc,
                len(self.cells),
                "PASS" if self.passes_gate() else "FAIL",
            )
        )
        if self.removed:
            lines.append("")
            lines.append("## Cells missing from the current run")
            lines.append("")
            for circuit, k, mapper in self.removed:
                lines.append("- (%s, K=%d, %s)" % (circuit, k, mapper))
        if self.added:
            lines.append("")
            lines.append("## Cells new in the current run")
            lines.append("")
            for circuit, k, mapper in self.added:
                lines.append("- (%s, K=%d, %s)" % (circuit, k, mapper))

        def table(title: str, rows: Sequence[CellDiff]) -> None:
            lines.append("")
            lines.append("## %s" % title)
            lines.append("")
            if not rows:
                lines.append("(none)")
                return
            lines.append("| circuit | K | mapper | metric | baseline | current | delta |")
            lines.append("|---|---|---|---|---|---|---|")
            for cell in rows:
                lines.append(
                    "| %s | %d | %s | %s | %g | %g | %+g |"
                    % (
                        cell.circuit,
                        cell.k,
                        cell.mapper,
                        cell.metric,
                        cell.baseline,
                        cell.current,
                        cell.delta,
                    )
                )

        table("Regressions", self.regressions)
        culprits = [c for c in self.regressions if c.tree_deltas]
        if culprits:
            lines.append("")
            lines.append("### Worsened trees")
            lines.append("")
            for cell in culprits:
                worse = [t for t in cell.tree_deltas if t.delta > 0]
                for t in worse[:5]:
                    lines.append(
                        "- %s, K=%d, %s: tree `%s` %d -> %d LUTs (%+d)"
                        % (cell.circuit, cell.k, cell.mapper,
                           t.tree, t.baseline, t.current, t.delta)
                    )
        explained = [c for c in self.cells if c.decision_deltas]
        if explained:
            lines.append("")
            lines.append("### Changed decisions")
            lines.append("")
            for cell in explained:
                for delta in cell.decision_deltas[:10]:
                    lines.append(
                        "- %s, K=%d, %s: %s"
                        % (cell.circuit, cell.k, cell.mapper, delta.describe())
                    )
                hidden = len(cell.decision_deltas) - 10
                if hidden > 0:
                    lines.append(
                        "- %s, K=%d, %s: (%d more changed decisions)"
                        % (cell.circuit, cell.k, cell.mapper, hidden)
                    )
        table("Improvements", self.improvements)
        lines.append("")
        return "\n".join(lines)


def diff_records(
    baseline: RunRecord,
    current: RunRecord,
    policies: Sequence[MetricPolicy] = DEFAULT_POLICIES,
) -> QorDiff:
    """Classify every shared cell of two records under the policies."""
    base_cells = baseline.cells()
    cur_cells = current.cells()
    shared = sorted(set(base_cells) & set(cur_cells))
    diff = QorDiff(
        cells=[],
        added=sorted(set(cur_cells) - set(base_cells)),
        removed=sorted(set(base_cells) - set(cur_cells)),
        baseline_summary=baseline.describe(),
        current_summary=current.describe(),
    )
    for key in shared:
        circuit, k, mapper = key
        base_report = base_cells[key]
        cur_report = cur_cells[key]
        for policy in policies:
            base_value = getattr(base_report, policy.metric, None)
            cur_value = getattr(cur_report, policy.metric, None)
            if base_value is None or cur_value is None:
                continue
            status = policy.classify(base_value, cur_value)
            cell = CellDiff(
                circuit=circuit,
                k=k,
                mapper=mapper,
                metric=policy.metric,
                baseline=base_value,
                current=cur_value,
                status=status,
                gated=policy.gate,
            )
            if policy.metric == "luts" and status != UNCHANGED:
                cell.tree_deltas = _tree_deltas(
                    base_report.tree_luts, cur_report.tree_luts
                )
            diff.cells.append(cell)
    return diff


def attach_decision_drilldown(
    diff: QorDiff,
    baselines: Mapping[CellKey, "MappingExplanation"],
    currents: Mapping[CellKey, "MappingExplanation"],
) -> int:
    """Resolve worsened-tree attributions down to individual DP choices.

    ``baselines``/``currents`` map (circuit, K, mapper) cell keys to
    :class:`~repro.obs.explain.MappingExplanation` objects (from
    ``map --explain`` runs or saved explain JSON).  Every LUT cell that
    changed and has explanations on both sides gets its
    ``decision_deltas`` filled, restricted to the trees its
    ``tree_deltas`` already blamed (or every shared tree when the
    reports carried no per-tree provenance).  Returns the number of
    decision deltas attached.
    """
    from repro.obs.explain import decision_drilldown

    attached = 0
    for cell in diff.cells:
        if cell.metric != "luts" or cell.status == UNCHANGED:
            continue
        key = (cell.circuit, cell.k, cell.mapper)
        base_exp = baselines.get(key)
        cur_exp = currents.get(key)
        if base_exp is None or cur_exp is None:
            continue
        trees = [t.tree for t in cell.tree_deltas] or None
        cell.decision_deltas = decision_drilldown(base_exp, cur_exp, trees=trees)
        attached += len(cell.decision_deltas)
    return attached


def render_record(record: RunRecord) -> str:
    """Render one record as a markdown QoR table (``chortle qor report``)."""
    lines = ["# QoR record"]
    lines.append("")
    lines.append("- run: %s" % record.describe())
    for key in ("git_sha", "python", "platform"):
        value = record.environment.get(key)
        if value:
            lines.append("- %s: %s" % (key, value))
    lines.append("")
    lines.append("| circuit | K | mapper | LUTs | total | depth | seconds |")
    lines.append("|---|---|---|---|---|---|---|")
    for report in sorted(
        record.reports, key=lambda r: (r.circuit_name, r.k, r.mapper)
    ):
        lines.append(
            "| %s | %d | %s | %d | %d | %d | %s |"
            % (
                report.circuit_name,
                report.k,
                report.mapper,
                report.luts,
                report.luts_total,
                report.depth,
                "%.3f" % report.seconds if report.seconds is not None else "-",
            )
        )
    lines.append("")
    return "\n".join(lines)
