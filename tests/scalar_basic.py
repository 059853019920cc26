"""The scalar reference of the 52 basic features.

:func:`repro.features.basic.basic_rows` builds every basic row of a batch in
one pass, from tables built once.  :class:`ScalarBasicExtractor` spells the
same 52 cells one transaction at a time with a ufunc call per cell, as the
extractor did before the batched rows; the tests hold ``basic_rows`` and
every path built on it bytes-equal to it.  Nothing in ``src/`` calls it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.datagen.schema import Transaction, TransactionChannel, UserProfile
from repro.features.basic import (
    _HIGH_AMOUNT_THRESHOLD,
    DEFAULT_PROFILE,
    BasicFeatureExtractor,
    _city_bucket,
    _city_risk,
    profile_cells,
)


class ScalarBasicExtractor(BasicFeatureExtractor):
    """:class:`BasicFeatureExtractor` with the one-transaction reference
    :meth:`extract_one` beside its batched ``extract``."""

    def extract_one(self, transaction: Transaction) -> np.ndarray:
        """Feature vector (length 52) for a single transaction.

        The scalar reference: :func:`basic_rows` is tested bit-for-bit
        against it, nothing on a serving or training path calls it.
        """
        payer = self._profiles.get(transaction.payer_id, DEFAULT_PROFILE)
        payee = self._profiles.get(transaction.payee_id, DEFAULT_PROFILE)
        values = (
            list(profile_cells(vars(payer))[0])
            + list(profile_cells(vars(payee))[0])
            + self._environment_block(transaction, payer)
            + self._cross_block(transaction, payer, payee)
        )
        return np.array(values, dtype=np.float64)

    # ------------------------------------------------------------------
    def _environment_block(self, txn: Transaction, payer: UserProfile) -> List[float]:
        hour_angle = 2.0 * np.pi * txn.hour / 24.0
        return [
            float(txn.amount),
            float(np.log1p(txn.amount)),
            float(txn.hour),
            float(np.sin(hour_angle)),
            float(np.cos(hour_angle)),
            1.0 if (txn.hour >= 22 or txn.hour < 6) else 0.0,
            1.0 if 9 <= txn.hour <= 18 else 0.0,
            1.0 if txn.channel is TransactionChannel.APP else 0.0,
            1.0 if txn.channel is TransactionChannel.WEB else 0.0,
            1.0 if txn.channel is TransactionChannel.QR_CODE else 0.0,
            1.0 if txn.channel is TransactionChannel.BANK_CARD else 0.0,
            _city_risk(txn.trans_city),
            float(_city_bucket(txn.trans_city)),
            1.0 if txn.trans_city == payer.home_city else 0.0,
            1.0 if txn.is_new_device else 0.0,
            float(txn.ip_risk_score),
            float(txn.payer_recent_txn_count),
            float(txn.payer_recent_amount),
            float(np.log1p(txn.payer_recent_amount)),
            float(txn.payee_recent_inbound_count),
            float(np.log1p(txn.payee_recent_inbound_count)),
            float(txn.amount / (txn.payer_recent_amount + 1.0)),
        ]

    def _cross_block(
        self, txn: Transaction, payer: UserProfile, payee: UserProfile
    ) -> List[float]:
        return [
            float(abs(payer.age - payee.age)),
            1.0 if payer.home_city == payee.home_city else 0.0,
            float(abs(payer.kyc_level - payee.kyc_level)),
            1.0 if (payer.kyc_level == 1 and payee.kyc_level == 1) else 0.0,
            float(np.log1p(payer.account_age_days)),
            float(np.log1p(payee.account_age_days)),
            float(txn.amount / max(payer.device_count, 1)),
            1.0 if abs(txn.amount % 100.0) < 1e-9 else 0.0,
            1.0 if txn.amount >= _HIGH_AMOUNT_THRESHOLD else 0.0,
            float(txn.day % 7),
        ]
