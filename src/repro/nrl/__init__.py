"""Network representation learning (NRL).

The paper learns low-dimensional user node embeddings from the transaction
network and concatenates them with the basic features.  Two methods are
evaluated:

* **DeepWalk** (unsupervised): truncated random walks + skip-gram with
  negative sampling (word2vec).  Selected by the paper for its efficiency,
  effectiveness and simplicity, and unaffected by label imbalance.
* **Structure2Vec** (supervised): mean-field style neighbourhood aggregation
  trained with the fraud ground truth, which benefits from labels but also
  suffers from their imbalance.

Both are reimplemented from scratch on NumPy; the distributed (parameter
server) training drivers live in :mod:`repro.nrl.distributed` and run on the
KunPeng simulation.
"""

from repro.nrl.embeddings import EmbeddingSet
from repro.nrl.word2vec import SkipGramConfig, SkipGramTrainer, Vocabulary, build_vocabulary
from repro.nrl.deepwalk import DeepWalk, DeepWalkConfig
from repro.nrl.structure2vec import Structure2Vec, Structure2VecConfig

__all__ = [
    "EmbeddingSet",
    "SkipGramConfig",
    "SkipGramTrainer",
    "Vocabulary",
    "build_vocabulary",
    "DeepWalk",
    "DeepWalkConfig",
    "Structure2Vec",
    "Structure2VecConfig",
]
