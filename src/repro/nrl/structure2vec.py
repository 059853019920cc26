"""Structure2Vec: supervised node embeddings via mean-field aggregation.

The paper reimplements Structure2Vec (Dai et al., 2016) as the supervised
alternative to DeepWalk, feeding the fraud ground truth as edge labels.  We
implement the mean-field variant: each node's embedding is produced by a few
rounds of neighbour aggregation,

    mu_v^(t) = ReLU( W1 x_v + W2 * mean_{u in N(v)} mu_u^(t-1) ),

and the parameters (W1, W2, classification head w, b) are trained end to end
with a logistic loss on node-level fraud labels derived from the edge labels
(a node is positive if it received at least one fraudulent transfer in the
training window).  As in the paper, the loss is *not* re-weighted for class
imbalance — this is precisely why S2V embeddings can lose to unsupervised
DeepWalk despite having access to labels.

The learned embedding of node v is mu_v^(T).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.contracts import NON_NEGATIVE, POSITIVE, SEED, check_fields, checked, integer
from repro.exceptions import EmbeddingError
from repro.graph.network import TransactionNetwork
from repro.nrl.embeddings import EmbeddingSet
from repro.numerics import class_weights, sigmoid
from repro.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class Structure2VecConfig:
    """Hyperparameters of the mean-field Structure2Vec model."""

    dimension: int = checked(integer(1), 32)
    #: Number of mean-field propagation rounds (2 hops is what Figure 2 needs).
    propagation_rounds: int = checked(integer(1), 2)
    learning_rate: float = checked(POSITIVE, 0.05)
    epochs: int = checked(integer(1), 150)
    l2: float = checked(NON_NEGATIVE, 1e-4)
    #: When True, the logistic loss re-weights the minority class.  The paper's
    #: deployment uses the plain loss (False), which is what makes S2V suffer
    #: from label imbalance relative to DeepWalk.
    balance_classes: bool = False
    seed: Optional[int] = checked(SEED, None)

    def __post_init__(self) -> None:
        check_fields(self, EmbeddingError)


def node_structural_features(
    network: TransactionNetwork, nodes: Optional[Sequence[str]] = None
) -> Tuple[List[str], np.ndarray]:
    """Raw structural features x_v used as Structure2Vec inputs.

    Six per-node features derived purely from the network: log in/out degree,
    log total in/out weight, the ratio of in to total degree, and a constant
    bias term.  ``nodes`` restricts the computation to a subset (in the given
    order) — each row depends only on that node's own incident edges, so a
    subset is exactly the corresponding rows of the full matrix.
    """
    nodes = network.nodes() if nodes is None else list(nodes)
    features = np.zeros((len(nodes), 6), dtype=np.float64)
    for row, node in enumerate(nodes):
        in_neighbors = network.predecessors(node)
        out_neighbors = network.successors(node)
        in_degree = len(in_neighbors)
        out_degree = len(out_neighbors)
        in_weight = sum(in_neighbors.values())
        out_weight = sum(out_neighbors.values())
        total_degree = in_degree + out_degree
        features[row] = [
            np.log1p(in_degree),
            np.log1p(out_degree),
            np.log1p(in_weight),
            np.log1p(out_weight),
            in_degree / total_degree if total_degree else 0.0,
            1.0,
        ]
    return nodes, features


def node_labels_from_transactions(transactions) -> Dict[str, int]:
    """Derive node labels from edge (transaction) labels.

    A node is labelled positive if it was the payee of at least one fraudulent
    transaction — i.e. it behaved as a fraudster — and negative otherwise.
    """
    labels: Dict[str, int] = {}
    for txn in transactions:
        labels.setdefault(txn.payer_id, 0)
        labels.setdefault(txn.payee_id, 0)
        if txn.is_fraud:
            labels[txn.payee_id] = 1
    return labels


class Structure2Vec:
    """Supervised mean-field Structure2Vec with a logistic readout."""

    def __init__(self, config: Structure2VecConfig | None = None, *, rng: SeedLike = None):
        self.config = config or Structure2VecConfig()
        self._rng = ensure_rng(self.config.seed if rng is None else rng)
        self._embeddings: Optional[EmbeddingSet] = None
        self.loss_history: List[float] = []
        self._params: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------
    def fit(
        self,
        network: TransactionNetwork,
        *,
        node_labels: Optional[dict[str, int]] = None,
    ) -> "Structure2Vec":
        if network.num_nodes == 0:
            raise EmbeddingError("cannot fit Structure2Vec on an empty network")
        if node_labels is None:
            raise EmbeddingError("Structure2Vec is supervised and requires node_labels")

        nodes, features = node_structural_features(network)
        adjacency = self._normalized_adjacency(network, nodes)
        labels = np.array([float(node_labels.get(node, 0)) for node in nodes])
        weights = class_weights(labels, balanced=self.config.balance_classes)

        params = self._initialize(features.shape[1])
        for _ in range(self.config.epochs):
            loss = self._gradient_step(params, features, adjacency, labels, weights)
            self.loss_history.append(loss)

        final_embeddings, _ = self._forward(params, features, adjacency)
        self._embeddings = EmbeddingSet(nodes, final_embeddings[-1], name="structure2vec")
        self._params = params
        return self

    def embeddings(self) -> EmbeddingSet:
        if self._embeddings is None:
            raise EmbeddingError("Structure2Vec has not been fitted")
        return self._embeddings

    def embed_nodes(self, network: TransactionNetwork, targets: Sequence[str]) -> EmbeddingSet:
        """Exact restricted forward pass: mu^(T) for ``targets`` only.

        Used by the online embedding refresher to re-embed the accounts touched
        by new edges without running the forward pass over the whole network.
        With T = ``propagation_rounds``, a target's mu^(T) depends on mu^(T-k)
        of nodes at distance k — and nodes at distance T only ever contribute
        mu^(0) = 0.  So iterating T uniform rounds over the radius-T ball, with
        full aggregation rows for nodes at distance <= T-1 and no rows for the
        distance-T boundary, reproduces the full-network mu^(T) of every target
        exactly (up to floating-point summation order in the sparse product).

        The ball is expanded deterministically (sorted neighbour order) so the
        result is reproducible for a given network and target sequence.
        """
        if self._params is None:
            raise EmbeddingError("Structure2Vec has not been fitted")
        target_list = list(dict.fromkeys(targets))
        if not target_list:
            raise EmbeddingError("embed_nodes requires at least one target node")
        for node in target_list:
            if node not in network:
                raise EmbeddingError(f"target node {node!r} is not in the network")

        rounds = self.config.propagation_rounds
        distance: Dict[str, int] = {node: 0 for node in target_list}
        order: List[str] = list(target_list)
        frontier: List[str] = list(target_list)
        for depth in range(1, rounds + 1):
            next_frontier: List[str] = []
            for node in frontier:
                for neighbor in sorted(network.neighbors(node)):
                    if neighbor not in distance:
                        distance[neighbor] = depth
                        order.append(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier

        ball, features = node_structural_features(network, nodes=order)
        index = {node: i for i, node in enumerate(ball)}
        # Boundary nodes only contribute mu^(0) = 0 to the targets; their own
        # aggregation rows are never consumed.
        adjacency = self._normalized_adjacency(
            network, ball, [node for node in ball if distance[node] < rounds]
        )
        activations, _ = self._forward(self._params, features, adjacency)
        final = activations[-1]
        vectors = np.array([final[index[node]] for node in target_list])
        return EmbeddingSet(target_list, vectors, name="structure2vec")

    # ------------------------------------------------------------------
    def _initialize(self, num_features: int) -> Dict[str, np.ndarray]:
        dim = self.config.dimension
        scale = 1.0 / np.sqrt(max(num_features, dim))
        return {
            "W1": self._rng.normal(0.0, scale, size=(dim, num_features)),
            "W2": self._rng.normal(0.0, scale, size=(dim, dim)),
            "w": self._rng.normal(0.0, scale, size=dim),
            "b": np.zeros(1),
        }

    def _normalized_adjacency(
        self,
        network: TransactionNetwork,
        nodes: List[str],
        row_nodes: Optional[List[str]] = None,
    ) -> sparse.csr_matrix:
        """Row-normalised undirected adjacency (mean aggregation operator)
        over ``nodes``; only ``row_nodes`` (default: all) get a row."""
        index = {node: i for i, node in enumerate(nodes)}
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for node in nodes if row_nodes is None else row_nodes:
            neighbors = network.neighbors(node)
            if not neighbors:
                continue
            total = sum(neighbors.values())
            for neighbor, weight in neighbors.items():
                rows.append(index[node])
                cols.append(index[neighbor])
                vals.append(weight / total)
        return sparse.csr_matrix(
            (vals, (rows, cols)), shape=(len(nodes), len(nodes)), dtype=np.float64
        )

    def _forward(
        self,
        params: Dict[str, np.ndarray],
        features: np.ndarray,
        adjacency: sparse.csr_matrix,
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Run mean-field propagation; returns per-round (activations, pre-activations)."""
        num_nodes = features.shape[0]
        mu = np.zeros((num_nodes, self.config.dimension))
        activations: List[np.ndarray] = []
        pre_activations: List[np.ndarray] = []
        base = features @ params["W1"].T
        for _ in range(self.config.propagation_rounds):
            aggregated = adjacency @ mu
            z = base + aggregated @ params["W2"].T
            mu = np.maximum(z, 0.0)
            pre_activations.append(z)
            activations.append(mu)
        return activations, pre_activations

    def _gradient_step(
        self,
        params: Dict[str, np.ndarray],
        features: np.ndarray,
        adjacency: sparse.csr_matrix,
        labels: np.ndarray,
        weights: np.ndarray,
    ) -> float:
        cfg = self.config
        activations, pre_activations = self._forward(params, features, adjacency)
        final = activations[-1]
        scores = final @ params["w"] + params["b"][0]
        probabilities = sigmoid(scores)
        eps = 1e-10
        loss = -np.mean(
            weights
            * (labels * np.log(probabilities + eps) + (1 - labels) * np.log(1 - probabilities + eps))
        )

        num_nodes = features.shape[0]
        d_score = weights * (probabilities - labels) / num_nodes
        grad_w = final.T @ d_score + cfg.l2 * params["w"]
        grad_b = np.array([d_score.sum()])
        grad_mu = np.outer(d_score, params["w"])

        grad_w1 = cfg.l2 * params["W1"]
        grad_w2 = cfg.l2 * params["W2"]
        adjacency_t = adjacency.T.tocsr()
        for round_index in range(cfg.propagation_rounds - 1, -1, -1):
            d_z = grad_mu * (pre_activations[round_index] > 0.0)
            grad_w1 += d_z.T @ features
            previous = (
                activations[round_index - 1]
                if round_index > 0
                else np.zeros_like(activations[0])
            )
            aggregated_prev = adjacency @ previous
            grad_w2 += d_z.T @ aggregated_prev
            grad_mu = adjacency_t @ (d_z @ params["W2"])

        params["w"] -= cfg.learning_rate * grad_w
        params["b"] -= cfg.learning_rate * grad_b
        params["W1"] -= cfg.learning_rate * grad_w1
        params["W2"] -= cfg.learning_rate * grad_w2
        return float(loss)
