"""Table 1's comparison baselines (Isolation Forest in :mod:`.isolation_forest`,
ID3 and C4.5/C5.0 in :mod:`.id3` and :mod:`.c45`, their split criteria in
:mod:`.criteria`) and the Table 1 / Figure 9 drivers with the factory for all
five detectors (:mod:`.table1`).  TitAnt deploys GBDT and LR from ``src/``;
these exist only to be compared with them.  Import the submodules directly.
"""
