"""Detection methods TitAnt deploys.

The production model is Gradient Boosting Decision Trees on basic features ⊕
node embeddings; Logistic Regression with feature discretisation and L1
regularisation is the second trained model
(:mod:`repro.models.gbdt`, :mod:`repro.models.logistic_regression`).
:mod:`repro.models.rules` holds the IF/THEN rule sets the overload fallback
scores with, and extracts them from any fitted :class:`TreeNode` tree.

All models are implemented from scratch on NumPy and share the
:class:`~repro.models.base.BaseDetector` interface (``fit`` / ``predict_proba``
/ ``predict``).  The parameter-server training drivers used for Figure 10
live in :mod:`repro.models.distributed`.  Table 1's comparison baselines
(Isolation Forest, ID3, C5.0) are not deployed and live in
``benchmarks/paper``.
"""

from repro.models.base import BaseDetector
from repro.models.tree.cart import RegressionTree
from repro.models.logistic_regression import LogisticRegression
from repro.models.gbdt import GradientBoostingClassifier
from repro.models.rules import Rule, RuleSet, extract_rules

__all__ = [
    "BaseDetector",
    "RegressionTree",
    "LogisticRegression",
    "GradientBoostingClassifier",
    "Rule",
    "RuleSet",
    "extract_rules",
]
