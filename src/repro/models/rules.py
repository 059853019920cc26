"""Rule extraction from decision trees.

The paper frames ID3/C5.0 as "rule-based methods" where "features are regarded
as rules and label information is utilized to do fine-tune".  This module
turns a fitted tree into an explicit IF/THEN rule set — the form a risk-policy
team would review — and can score transactions with it, which also provides a
readable audit trail for alerts raised by the tree-based detectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ModelError
from repro.models.tree.node import TreeNode


@dataclass(frozen=True)
class Condition:
    """One atomic condition ``feature <op> value``."""

    feature_index: int
    operator: str  # "<=", ">", "=="
    value: float

    def evaluate(self, row: np.ndarray) -> bool:
        feature_value = row[self.feature_index]
        if self.operator == "<=":
            return bool(feature_value <= self.value)
        if self.operator == ">":
            return bool(feature_value > self.value)
        if self.operator == "==":
            return bool(feature_value == self.value)
        raise ModelError(f"unknown operator {self.operator!r}")

    def describe(self, feature_names: Optional[Sequence[str]] = None) -> str:
        name = (
            feature_names[self.feature_index]
            if feature_names is not None
            else f"f{self.feature_index}"
        )
        return f"{name} {self.operator} {self.value:g}"


@dataclass
class Rule:
    """IF all conditions THEN fraud probability ``value``."""

    conditions: List[Condition]
    value: float
    num_samples: int = 0

    def matches(self, row: np.ndarray) -> bool:
        return all(condition.evaluate(row) for condition in self.conditions)

    def describe(self, feature_names: Optional[Sequence[str]] = None) -> str:
        if not self.conditions:
            return f"IF (always) THEN fraud_probability={self.value:.4f}"
        clauses = " AND ".join(c.describe(feature_names) for c in self.conditions)
        return f"IF {clauses} THEN fraud_probability={self.value:.4f} [n={self.num_samples}]"


@dataclass
class RuleSet:
    """An ordered collection of rules extracted from one tree."""

    rules: List[Rule] = field(default_factory=list)
    default_value: float = 0.0

    def __len__(self) -> int:
        return len(self.rules)

    def predict_row(self, row: np.ndarray) -> float:
        for rule in self.rules:
            if rule.matches(row):
                return rule.value
        return self.default_value

    def high_risk_rules(self, *, min_probability: float = 0.5) -> List[Rule]:
        """Rules whose consequent marks the transaction as likely fraud."""
        return [rule for rule in self.rules if rule.value >= min_probability]

    def describe(self, feature_names: Optional[Sequence[str]] = None) -> str:
        lines = [rule.describe(feature_names) for rule in self.rules]
        lines.append(f"ELSE fraud_probability={self.default_value:.4f}")
        return "\n".join(lines)


def extract_rules(root: TreeNode) -> RuleSet:
    """Extract one rule per leaf of ``root`` (leaf value becomes the consequent)."""
    rules: List[Rule] = []

    def _walk(node: TreeNode, conditions: List[Condition]) -> None:
        if node.is_leaf:
            rules.append(
                Rule(conditions=list(conditions), value=node.value, num_samples=node.num_samples)
            )
            return
        if node.threshold is not None:
            if node.left is not None:
                _walk(
                    node.left,
                    conditions + [Condition(node.feature_index or 0, "<=", node.threshold)],
                )
            if node.right is not None:
                _walk(
                    node.right,
                    conditions + [Condition(node.feature_index or 0, ">", node.threshold)],
                )
        else:
            for category, child in node.children.items():
                _walk(
                    child,
                    conditions + [Condition(node.feature_index or 0, "==", category)],
                )

    _walk(root, [])
    default = root.value if root.is_leaf else root.fallback_value
    return RuleSet(rules=rules, default_value=default)
