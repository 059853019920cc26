"""T+1 dataset slicing (paper Figure 8).

The paper evaluates the system over a continuous week: for each test day, the
90 days of records before the training window build the transaction network,
the next 14 days of labelled records train the classifier, and the single test
day is scored.  Models are trained offline daily ("T+1" mode) and used for the
next day's real-time predictions.

:class:`DatasetBuilder` turns a :class:`~repro.datagen.transactions.TransactionWorld`
into :class:`DatasetSlice` objects implementing exactly that protocol, and
:class:`RollingDatasets` produces the seven consecutive slices of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.contracts import check_fields, checked, integer
from repro.datagen.schema import Transaction, label_as_of
from repro.datagen.transactions import TransactionWorld
from repro.exceptions import DataGenerationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datagen.stream import TransactionStream


@dataclass(frozen=True)
class SliceSpec:
    """Day boundaries of one T+1 dataset slice."""

    network_start: int = checked(integer(0))
    network_end: int = checked(integer(0))  # exclusive; == train_start
    train_start: int = checked(integer(0))
    train_end: int = checked(integer(0))  # exclusive; == test_day
    test_day: int = checked(integer(0))

    def __post_init__(self) -> None:
        check_fields(self, DataGenerationError)
        if not (
            self.network_start
            <= self.network_end
            == self.train_start
            <= self.train_end
            == self.test_day
        ):
            raise DataGenerationError(f"inconsistent slice boundaries: {self}")


@dataclass
class DatasetSlice:
    """One dataset of the paper's rolling evaluation.

    Attributes
    ----------
    network_transactions:
        Records used only to build the transaction network (no labels needed).
    train_transactions:
        Labelled records for classifier training.  Labels respect the
        reporting delay: a fraud whose report arrives after the test day's
        training cut-off is seen as non-fraud, as in production.
    test_transactions:
        The test day's records with ground-truth labels (offline evaluation).
    """

    spec: SliceSpec
    network_transactions: List[Transaction]
    train_transactions: List[Transaction]
    test_transactions: List[Transaction]


class DatasetBuilder:
    """Builds T+1 dataset slices from a generated world."""

    def __init__(
        self,
        world: TransactionWorld,
        *,
        network_days: int = 90,
        train_days: int = 14,
        respect_label_delay: bool = True,
    ) -> None:
        for name, days in (("network_days", network_days), ("train_days", train_days)):
            integer(1).require(name, days, DataGenerationError)
        self.world = world
        self.network_days = network_days
        self.train_days = train_days
        self.respect_label_delay = respect_label_delay

    # ------------------------------------------------------------------
    def spec_for_test_day(self, test_day: int) -> SliceSpec:
        train_start = test_day - self.train_days
        network_start = train_start - self.network_days
        if network_start < 0:
            raise DataGenerationError(
                f"test_day {test_day} requires {self.network_days + self.train_days} prior "
                f"days of history but only {test_day} are available"
            )
        return SliceSpec(
            network_start=network_start,
            network_end=train_start,
            train_start=train_start,
            train_end=test_day,
            test_day=test_day,
        )

    def build(self, test_day: int) -> DatasetSlice:
        """Build the slice whose test set is ``test_day``."""
        spec = self.spec_for_test_day(test_day)
        if test_day >= self.world.config.num_days:
            raise DataGenerationError(
                f"test_day {test_day} is outside the generated horizon "
                f"({self.world.config.num_days} days)"
            )
        network = self.world.transactions_in_days(spec.network_start, spec.network_end)
        as_of = spec.train_end - 1 if self.respect_label_delay else None
        train = self.world.labeled_transactions_in_days(
            spec.train_start, spec.train_end, as_of_day=as_of
        )
        test = self.world.transactions_in_days(spec.test_day, spec.test_day + 1)
        return DatasetSlice(
            spec=spec,
            network_transactions=network,
            train_transactions=train,
            test_transactions=test,
        )

    def earliest_test_day(self) -> int:
        """First day with enough history to form a full slice."""
        return self.network_days + self.train_days


@dataclass
class RollingDatasets:
    """The seven consecutive evaluation datasets of Table 1."""

    slices: List[DatasetSlice]

    def __iter__(self) -> Iterator[DatasetSlice]:
        return iter(self.slices)

    def __len__(self) -> int:
        return len(self.slices)

    def __getitem__(self, index: int) -> DatasetSlice:
        return self.slices[index]

    @classmethod
    def build(
        cls,
        world: TransactionWorld,
        *,
        num_datasets: int = 7,
        network_days: int = 90,
        train_days: int = 14,
        first_test_day: Optional[int] = None,
        respect_label_delay: bool = True,
    ) -> "RollingDatasets":
        """Build ``num_datasets`` consecutive T+1 slices.

        ``first_test_day`` defaults to the earliest day with a full history,
        mirroring the paper where the first test day is April 10 and each of
        the following days shifts every window forward by one day.
        """
        builder = DatasetBuilder(
            world,
            network_days=network_days,
            train_days=train_days,
            respect_label_delay=respect_label_delay,
        )
        start = builder.earliest_test_day() if first_test_day is None else first_test_day
        if start + num_datasets > world.config.num_days:
            raise DataGenerationError(
                f"world horizon of {world.config.num_days} days cannot host "
                f"{num_datasets} test days starting at day {start}"
            )
        slices = [builder.build(start + offset) for offset in range(num_datasets)]
        return cls(slices=slices)

    @classmethod
    def from_stream(
        cls,
        stream: "TransactionStream",
        *,
        num_datasets: int = 7,
        network_days: int = 90,
        train_days: int = 14,
        first_test_day: Optional[int] = None,
        respect_label_delay: bool = True,
    ) -> "RollingDatasets":
        """Assemble the rolling slices in one pass over a transaction stream.

        The streaming twin of :meth:`build`: instead of requiring a fully
        materialized :class:`TransactionWorld`, it consumes a
        :class:`~repro.datagen.stream.TransactionStream` (day-ordered by
        construction) and buckets only the day range the requested slices
        need — memory is bounded by the slice windows themselves, never by
        the stream's full horizon, and iteration stops as soon as the last
        needed day has passed.  For the same world configuration and seed the
        result is identical to ``build(generate_world(config), ...)``.
        """
        for name, days in (("network_days", network_days), ("train_days", train_days)):
            integer(1).require(name, days, DataGenerationError)
        earliest = network_days + train_days
        start = earliest if first_test_day is None else first_test_day
        if start < earliest:
            raise DataGenerationError(
                f"test_day {start} requires {earliest} prior days of history "
                f"but only {start} are available"
            )
        if start + num_datasets > stream.num_days:
            raise DataGenerationError(
                f"world horizon of {stream.num_days} days cannot host "
                f"{num_datasets} test days starting at day {start}"
            )
        first_needed = start - train_days - network_days
        last_needed = start + num_datasets - 1
        by_day: Dict[int, List[Transaction]] = {}
        for txn in stream:
            if txn.day > last_needed:
                break
            if txn.day >= first_needed:
                by_day.setdefault(txn.day, []).append(txn)

        def window(start_day: int, end_day: int) -> List[Transaction]:
            return [t for day in range(start_day, end_day) for t in by_day.get(day, [])]

        slices: List[DatasetSlice] = []
        for offset in range(num_datasets):
            test_day = start + offset
            spec = SliceSpec(
                network_start=test_day - train_days - network_days,
                network_end=test_day - train_days,
                train_start=test_day - train_days,
                train_end=test_day,
                test_day=test_day,
            )
            train = window(spec.train_start, spec.train_end)
            if respect_label_delay:
                as_of = spec.train_end - 1
                train = [label_as_of(t, as_of) for t in train]
            slices.append(
                DatasetSlice(
                    spec=spec,
                    network_transactions=window(spec.network_start, spec.network_end),
                    train_transactions=train,
                    test_transactions=list(by_day.get(test_day, [])),
                )
            )
        return cls(slices=slices)
