import functools
import itertools
import math
import re
import tempfile
from array import array
from bisect import bisect_left
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    cents,
    columns,
    csv_writer_line,
    month,
    monthly_records,
    quarterly_records,
    raw_monthly_asset,
    records_of,
    tagged,
)
from royaltyval import ingest
from royaltyval.ingest import (
    CASHFLOWS_HEADER,
    AnnualizeError,
    ParseError,
    RawAsset,
    RejectReason,
    annualize,
    assemble_raw_assets,
    build_dataset,
    filter_dollar_age,
    parse_assets,
    parse_cashflows,
    write_assets_csv,
    write_cashflows_csv,
)
from royaltyval.model import DEFAULT_AGE_TOLERANCE, DEFAULT_ZERO_FLOOR


def text_file(directory, name: str, text: str) -> Path:
    """The path of a new file `name` in `directory` holding `text` in UTF-8."""
    path = Path(directory) / name
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.fixture
def cashflows_csv(tmp_path):
    """Write a cashflows file of the given rows after the header, a new
    file per call, and return its path."""
    numbers = itertools.count()

    def write(*rows):
        text = "asset_id,period_start,period_months,amount\n" + "".join(r + "\n" for r in rows)
        return text_file(tmp_path, f"cashflows{next(numbers)}.csv", text)

    return write


def flat(parsed):
    """parse_cashflows' columns as (asset_id, month_index, period_months,
    cents) records, assets in first-seen order."""
    return [(asset_id, *rec) for asset_id, cols in parsed.items() for rec in zip(*cols)]


class TestParseCashflows:
    def test_header_only(self, cashflows_csv):
        assert parse_cashflows(cashflows_csv()) == {}

    def test_single_row(self, cashflows_csv):
        [rec] = flat(parse_cashflows(cashflows_csv("A1,2019-03,1,100.00")))
        assert rec == ("A1", month(2019, 3), 1, 10000)

    def test_negative_amount_is_parse_error_with_line(self, cashflows_csv):
        with pytest.raises(ParseError) as err:
            parse_cashflows(cashflows_csv("A1,2019-01,1,50.00", "A1,2019-02,1,-5"))
        assert "NEGATIVE_AMOUNT" in str(err.value)
        assert err.value.line == 3

    def test_unknown_frequency(self, cashflows_csv):
        with pytest.raises(ParseError, match="frequency"):
            parse_cashflows(cashflows_csv("A1,2019-01,2,10.00"))

    def test_duplicate_period(self, cashflows_csv):
        with pytest.raises(ParseError, match="duplicate"):
            parse_cashflows(cashflows_csv("A1,2019-01,1,10.00", "A1,2019-01,1,20.00"))

    def test_malformed_month(self, cashflows_csv):
        with pytest.raises(ParseError) as err:
            parse_cashflows(cashflows_csv("A1,201901,1,10.00"))
        assert err.value.line == 2

    def test_too_many_fraction_digits(self, cashflows_csv):
        with pytest.raises(ParseError, match="amount"):
            parse_cashflows(cashflows_csv("A1,2019-01,1,10.005"))

    def test_wrong_field_count(self, cashflows_csv):
        with pytest.raises(ParseError, match="fields"):
            parse_cashflows(cashflows_csv("A1,2019-01,1"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError) as err:
            parse_cashflows(text_file(tmp_path, "cashflows.csv", "a,b,c,d\n"))
        assert err.value.line == 1

    def test_crlf_accepted(self, tmp_path):
        text = "asset_id,period_start,period_months,amount\r\nA1,2019-01,1,10.00\r\n"
        assert len(parse_cashflows(text_file(tmp_path, "cashflows.csv", text))) == 1

    def test_order_preserved(self, cashflows_csv):
        records = flat(parse_cashflows(
            cashflows_csv("B,2020-01,1,1.00", "A,2019-01,1,2.00")
        ))
        assert [r[0] for r in records] == ["B", "A"]


# 10**18 - 1 cents: the largest amount a cashflows file may hold
LARGEST_AMOUNT = "9999999999999999.99"

# (rows after the header, exact error text, line); text and line are part of
# the interface, since the CLI prints them for the user to find the row.
PARSE_ERRORS = [
    (["A1,2019-13,1,10.00"], "line 2: month out of range: 13", 2),
    (["A1,2019-00,1,10.00"], "line 2: month out of range: 0", 2),
    (["A1,201901,1,10.00"], "line 2: period_start must be YYYY-MM, got '201901'", 2),
    (["A1,2019-01,1,10.00", " ,2019-02,1,10.00"], "line 3: empty asset_id", 3),
    (["A1,2019-01,1"], "line 2: expected 4 fields, got 3", 2),
    (["A1,2019-01,2,10.00"], "line 2: unknown frequency '2' (period_months must be 1 or 3)", 2),
    (["A1,2019-01,1,10.005"], "line 2: bad amount '10.005' (decimal with <= 2 fraction digits)", 2),
    (["A1,2019-01,1,1e3"], "line 2: bad amount '1e3' (decimal with <= 2 fraction digits)", 2),
    # non-ASCII digits are not read as their ASCII counterparts
    (["A1,٢٠١٩-٠١,1,10.00"], "line 2: period_start must be YYYY-MM, got '٢٠١٩-٠١'", 2),
    (["A1,2019-01,1,٣٣.٥"], "line 2: bad amount '٣٣.٥' (decimal with <= 2 fraction digits)", 2),
    (["A1,2019-01,1,-5"], "line 2: NEGATIVE_AMOUNT: amount '-5' is negative", 2),
    (
        ["A1,2019-01,1,10.00", "B1,2019-01,1,1.00", "A1,2019-01,3,5.00"],
        "line 4: duplicate record for A1 at 2019-01",
        4,
    ),
    # past int()'s 4,300-digit limit
    (
        ["A1,2019-01,1,10.00", "A1,2019-02,1," + "9" * 5000],
        "line 3: bad amount of 5000 characters (too many digits to read)",
        3,
    ),
    pytest.param(
        ['"A\nB",2019-01,1,10.00'], "line 2: asset_id must be printable, got 'A\\nB'", 2,
        id="line_break_in_id",
    ),
    # a long field is cut in the message: its first 40 characters and its length
    pytest.param(
        ["A1," + "2" * 5000 + ",1,10.00"],
        f"line 2: period_start must be YYYY-MM, got '{'2' * 40}…' (5000 characters)",
        2,
        id="5000_character_period_start",
    ),
    pytest.param(
        ["A1,2019-01," + "1" * 5000 + ",10.00"],
        f"line 2: unknown frequency '{'1' * 40}…' (5000 characters) (period_months must be 1 or 3)",
        2,
        id="5000_character_frequency",
    ),
    pytest.param(
        ["A1,2019-01,1," + "x" * 5000],
        f"line 2: bad amount '{'x' * 40}…' (5000 characters) (decimal with <= 2 fraction digits)",
        2,
        id="5000_character_amount",
    ),
    pytest.param(
        ["A1,2019-01,1,-" + "0" * 4999 + "1"],
        f"line 2: NEGATIVE_AMOUNT: amount '-{'0' * 39}…' (5001 characters) is negative",
        2,
        id="5001_character_negative_amount",
    ),
    # an id past 40 characters is cut the same way, without the quotes
    pytest.param(
        ["I" * 5000 + ",2019-01,1,10.00"] * 2,
        f"line 3: duplicate record for {'I' * 40}… (5000 characters) at 2019-01",
        3,
        id="5000_character_duplicate_id",
    ),
]


@pytest.mark.parametrize("zeros", ["", "00"], ids=["canonical", "row_by_row"])
def test_parse_cashflows_reads_amounts_below_10_to_the_16_dollars(cashflows_csv, zeros):
    parsed = parse_cashflows(cashflows_csv(f"A1,2019-01,1,{zeros}{LARGEST_AMOUNT}"))
    assert flat(parsed) == [("A1", month(2019, 1), 1, 10**18 - 1)]
    assert type(parsed["A1"][2]) is array
    path = cashflows_csv(f"A1,2019-01,1,{zeros}1{'0' * 16}.00")
    with pytest.raises(ParseError) as err:
        parse_cashflows(path)
    assert (str(err.value), err.value.line) == (
        f"{path}:line 2: bad amount of {len(zeros) + 20} characters (too many digits to read)", 2
    )


@pytest.mark.parametrize("rows,message,line", PARSE_ERRORS)
def test_parse_cashflows_error_text_and_line(cashflows_csv, rows, message, line):
    path = cashflows_csv(*rows)
    with pytest.raises(ParseError) as err:
        parse_cashflows(path)
    assert str(err.value) == f"{path}:{message}"
    assert err.value.line == line


def test_parse_cashflows_strips_padded_fields(cashflows_csv):
    padded = parse_cashflows(cashflows_csv(" A1 , 2019-01 , 3 , 10.00 "))
    assert padded == parse_cashflows(cashflows_csv("A1,2019-01,3,10.00"))


@pytest.mark.parametrize(
    "amount,expected",
    [("7", Decimal("7")), ("10.5", Decimal("10.50")), ("-0.00", Decimal(0)), ("-0", Decimal(0))],
)
def test_parse_cashflows_accepted_amounts_sum_exactly(cashflows_csv, amount, expected):
    rows = [f"A1,2019-01,1,{amount}"] + [f"A1,2019-{m:02d},1,1" for m in range(2, 13)]
    raw = assemble_raw_assets(parse_cashflows(cashflows_csv(*rows)), {"A1": 1.0})
    accepted, _ = build_dataset(raw)
    assert accepted[0].amounts == (expected + 11,)


class TestParseAssets:
    def test_basic(self, tmp_path):
        path = text_file(tmp_path, "assets.csv", "asset_id,dollar_age\nA1,2.5\n")
        assert parse_assets(path) == {"A1": 2.5}

    def test_rejects_non_positive_age(self, tmp_path):
        path = text_file(tmp_path, "assets.csv", "asset_id,dollar_age\nA1,0\n")
        with pytest.raises(ParseError):
            parse_assets(path)

    def test_rejects_duplicate(self, tmp_path):
        path = text_file(tmp_path, "assets.csv", "asset_id,dollar_age\nA1,2.5\nA1,3.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_assets(path)

    def test_duplicate_long_id_is_cut(self, tmp_path):
        long_id = "L" * 5000
        path = text_file(tmp_path, "assets.csv", f"asset_id,dollar_age\n{long_id},2\n{long_id},3\n")
        with pytest.raises(ParseError) as err:
            parse_assets(path)
        assert str(err.value) == f"{path}:line 3: duplicate asset {'L' * 40}… (5000 characters)"

    def test_rejects_empty_id(self, tmp_path):
        path = text_file(tmp_path, "assets.csv", "asset_id,dollar_age\nA1,2.5\n,3.0\n")
        with pytest.raises(ParseError) as err:
            parse_assets(path)
        assert str(err.value) == f"{path}:line 3: empty asset_id"

    def test_rejects_id_that_is_not_printable(self, tmp_path):
        path = text_file(tmp_path, "assets.csv", 'asset_id,dollar_age\nA1,2.5\n"A\nB",3.0\n')
        with pytest.raises(ParseError) as err:
            parse_assets(path)
        assert str(err.value) == f"{path}:line 3: asset_id must be printable, got 'A\\nB'"

    @pytest.mark.parametrize(
        "age,message",
        [
            ("1" * 4999 + "x", f"bad dollar_age '{'1' * 40}…' (5000 characters)"),
            (
                "0" * 5000,
                f"dollar_age must be a positive finite number, got '{'0' * 40}…' (5000 characters)",
            ),
        ],
        ids=["unreadable", "zero"],
    )
    def test_long_age_is_cut_in_its_message(self, tmp_path, age, message):
        path = text_file(tmp_path, "assets.csv", f"asset_id,dollar_age\nA1,{age}\n")
        with pytest.raises(ParseError) as err:
            parse_assets(path)
        assert str(err.value) == f"{path}:line 2: {message}"

    @pytest.mark.parametrize("age", ["٣", "1_0", "２.５"])
    def test_rejects_non_ascii_and_underscored_numbers(self, tmp_path, age):
        path = tmp_path / "assets.csv"
        path.write_text(f"asset_id,dollar_age\nA1,2.5\nA2,{age}\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_assets(path)
        assert str(err.value) == f"{path}:line 3: bad dollar_age {age!r}"


class TestAssembleRawAssets:
    def test_sorts_and_groups(self):
        records = tagged("B", monthly_records([1] * 12)) | tagged("A", monthly_records([2] * 12))
        assets = assemble_raw_assets(records, {"A": 1.0, "B": 1.0})
        assert [a.asset_id for a in assets] == ["A", "B"]

    def test_unknown_asset_in_cashflows(self):
        with pytest.raises(ParseError, match="unknown"):
            assemble_raw_assets(tagged("X", monthly_records([1] * 12)), {"A": 1.0})

    def test_asset_without_cashflows(self):
        with pytest.raises(ParseError, match="no cashflows"):
            assemble_raw_assets(tagged("A", monthly_records([1] * 12)), {"A": 1.0, "B": 2.0})

    def test_overlapping_records(self):
        overlap = tagged(
            "A",
            quarterly_records([10], start=month(2019, 1))
            + monthly_records([5], start=month(2019, 2)),
        )
        with pytest.raises(ParseError, match="overlap"):
            assemble_raw_assets(overlap, {"A": 1.0})

    def test_error_texts(self):
        overlap = tagged("A", quarterly_records([10]) + monthly_records([5], start=month(2019, 3)))
        with pytest.raises(ParseError) as err:
            assemble_raw_assets(overlap, {"A": 1.0})
        assert str(err.value) == "A: records overlap at 2019-03"
        with pytest.raises(ParseError) as err:
            assemble_raw_assets(tagged("X", monthly_records([1])), {"B": 1.0, "X": 1.0, "A": 1.0})
        assert str(err.value) == "assets have no cashflows: A, B"

    def test_id_lists_show_ten_ids_and_long_ids_are_cut(self):
        ids = [f"A{k:02d}" for k in range(12)]
        cashflows = {i: columns(monthly_records([1])) for i in ids}
        with pytest.raises(ParseError) as err:
            assemble_raw_assets(cashflows, {})
        assert str(err.value) == (
            f"cashflows reference unknown assets: {', '.join(ids[:10])}, … (12 in all)"
        )
        with pytest.raises(ParseError) as err:
            assemble_raw_assets({}, {i: 1.0 for i in ids[:10]})
        assert str(err.value) == f"assets have no cashflows: {', '.join(ids[:10])}"
        with pytest.raises(ParseError) as err:
            assemble_raw_assets({}, {"L" * 41: 1.0})
        assert str(err.value) == f"assets have no cashflows: {'L' * 40}… (41 characters)"


def reason_of(raw: RawAsset, **options):
    """build_dataset's outcome for the one asset `raw`."""
    _, report = build_dataset([raw], **options)
    return report.reasons[raw.asset_id]


class TestOldestCashflowAge:
    """The coverage span: months from the first period start to the end of
    the last period. annualize buckets it, and build_dataset's dollar-age
    check reads it in years; a tolerance of 0 accepts only an exact match."""

    def test_single_monthly_record(self):
        raw = raw_monthly_asset("A", [10])
        assert reason_of(raw) is RejectReason.INSUFFICIENT_HISTORY
        with pytest.raises(AnnualizeError, match="^A: only 1 months of coverage$"):
            annualize("A", raw.starts, raw.months, raw.cents)

    def test_two_years_monthly(self):
        raw = raw_monthly_asset("A", [1] * 24, dollar_age=2.0)
        assert reason_of(raw, dollar_age_tolerance=0.0) is None
        raw.dollar_age = math.nextafter(2.0, 0.0)
        assert reason_of(raw, dollar_age_tolerance=0.0) is RejectReason.DOLLAR_AGE_MISMATCH

    def test_two_years_quarterly(self):
        # count-months oracle: 8 quarters cover 24 months, so 2.0 years
        records = quarterly_records([1] * 8)
        covered = sum(months for _, months, _ in records)
        raw = RawAsset("Q", covered / 12, *columns(records))
        assert raw.dollar_age == 2.0
        assert reason_of(raw, dollar_age_tolerance=0.0) is None
        raw.dollar_age = math.nextafter(2.0, 3.0)
        assert reason_of(raw, dollar_age_tolerance=0.0) is RejectReason.DOLLAR_AGE_MISMATCH


class TestAnnualize:
    def test_twelve_months(self):
        series = annualize("A", *columns(monthly_records([10.0] * 12)))
        assert series == (Decimal("120.0"),)

    def test_partial_trailing_year_dropped(self):
        series = annualize("A", *columns(monthly_records([1.0] * 30)))
        assert series == (Decimal("12.0"), Decimal("12.0"))

    def test_quarterly_buckets(self):
        # hand-summed: 5+5+5+5 then 7+7+7+7
        series = annualize("A", *columns(quarterly_records([5, 5, 5, 5, 7, 7, 7, 7])))
        assert series == (Decimal(20), Decimal(28))

    def test_gap_detected(self):
        records = monthly_records([1] * 6) + monthly_records(
            [1] * 8, start=month(2019, 8)
        )
        with pytest.raises(AnnualizeError) as err:
            annualize("A", *columns(records))
        assert err.value.reason is RejectReason.GAP_IN_HISTORY
        assert str(err.value) == "A: coverage gap before 2019-08"

    def test_insufficient_history(self):
        with pytest.raises(AnnualizeError) as err:
            annualize("A", *columns(monthly_records([1] * 11)))
        assert err.value.reason is RejectReason.INSUFFICIENT_HISTORY

    def test_gap_wins_over_short_history(self):
        records = monthly_records([1]) + monthly_records([1], start=month(2019, 3))
        with pytest.raises(AnnualizeError) as err:
            annualize("A", *columns(records))
        assert err.value.reason is RejectReason.GAP_IN_HISTORY


class TestFilters:
    def test_zero_years_accepts_positive(self):
        raw = raw_monthly_asset("A", [10] * 12 + [6] * 12 + [3] * 12)
        assert reason_of(raw, zero_floor=0.0) is None

    def test_zero_years_rejects_zero(self):
        raw = raw_monthly_asset("A", [10] * 12 + [0] * 12 + [3] * 12)
        assert reason_of(raw, zero_floor=0.0) is RejectReason.ZERO_REVENUE_YEAR

    def test_zero_years_floor_semantics(self):
        # a year at the floor is rejected, one cent above it passes; 0.5 is
        # exact in binary, so only at-or-below tells its year from the floor
        cases = [
            (0.01, "0.01", RejectReason.ZERO_REVENUE_YEAR), (0.01, "0.02", None),
            (0.5, "0.50", RejectReason.ZERO_REVENUE_YEAR), (0.5, "0.51", None),
        ]
        for floor, year, reason in cases:
            raw = raw_monthly_asset("A", [10] * 12 + [year] + [0] * 11 + [3] * 12)
            assert reason_of(raw, zero_floor=floor) is reason

    def test_dollar_age_exact_match(self):
        assert filter_dollar_age(7.0, 7.0, 0.30)

    def test_dollar_age_boundary_accepts(self):
        # |9.1 - 7.0| equals 0.30 * 7.0 at this precision
        assert filter_dollar_age(9.1, 7.0, 0.30)

    def test_dollar_age_rejects_outside(self):
        assert not filter_dollar_age(10.0, 7.0, 0.30)


class TestBuildDataset:
    def test_empty_input(self):
        accepted, report = build_dataset([])
        assert accepted == [] and report.total == 0

    @pytest.mark.parametrize(
        "option,message",
        [("zero_floor", "zero_floor must be >= 0"), ("dollar_age_tolerance", "tolerance must be >= 0")],
    )
    @pytest.mark.parametrize("months", [6, 24])
    def test_negative_option_fails_whatever_the_data(self, option, message, months):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_dataset([raw_monthly_asset("S", [1] * months)], **{option: -1.0})

    def test_single_clean_asset(self):
        accepted, report = build_dataset([raw_monthly_asset("A", [10] * 24)])
        assert len(accepted) == 1
        assert report.reasons == {"A": None}
        assert accepted[0].amounts == (Decimal(120), Decimal(120))

    def test_each_reason_trips_once(self):
        neg = monthly_records([100] * 12)
        neg = neg[:5] + ((neg[5][0], 1, -500),) + neg[6:]
        fixtures = [
            RawAsset("NEG", 1.0, *columns(neg)),
            RawAsset(
                "GAP",
                1.0,
                *columns(
                    monthly_records([1] * 6)
                    + monthly_records([1] * 8, start=month(2019, 8))
                ),
            ),
            RawAsset("SHORT", 0.5, *columns(monthly_records([1] * 6))),
            RawAsset("ZERO", 2.0, *columns(monthly_records([100] * 12 + [0] * 12))),
            RawAsset("FAR", 3.0, *columns(monthly_records([50] * 24))),
        ]
        accepted, report = build_dataset(fixtures)
        assert accepted == []
        assert report.reason_counts() == {
            RejectReason.NEGATIVE_AMOUNT: 1,
            RejectReason.GAP_IN_HISTORY: 1,
            RejectReason.INSUFFICIENT_HISTORY: 1,
            RejectReason.ZERO_REVENUE_YEAR: 1,
            RejectReason.DOLLAR_AGE_MISMATCH: 1,
        }
        by_id = report.reasons
        assert by_id["NEG"] is RejectReason.NEGATIVE_AMOUNT
        assert by_id["FAR"] is RejectReason.DOLLAR_AGE_MISMATCH

    def test_duplicate_ids_rejected(self):
        a = raw_monthly_asset("A", [10] * 12)
        with pytest.raises(ValueError, match="duplicate"):
            build_dataset([a, a])

    @given(
        spans=st.lists(st.integers(min_value=1, max_value=40), min_size=0, max_size=8),
        permutation_seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_and_order_independence(self, spans, permutation_seed):
        import random as random_mod

        assets = [
            raw_monthly_asset(f"A{i:02d}", [1.0] * span, dollar_age=span / 12.0)
            for i, span in enumerate(spans)
        ]
        accepted, report = build_dataset(assets)
        assert len(accepted) + report.rejected_count == len(assets)

        shuffled = list(assets)
        random_mod.Random(permutation_seed).shuffle(shuffled)
        accepted2, report2 = build_dataset(shuffled)
        assert accepted2 == accepted
        assert report2 == report


class TestConservation:
    @given(
        freq=st.sampled_from([1, 3]),
        n_periods=st.integers(min_value=4, max_value=40),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_annualization_conserves_covered_revenue(self, freq, n_periods, seed):
        import random as random_mod

        rng = random_mod.Random(seed)
        if freq == 1:
            n_periods = max(n_periods, 12)
        amounts = [Decimal(rng.randint(0, 500000)).scaleb(-2) for _ in range(n_periods)]
        maker = monthly_records if freq == 1 else quarterly_records
        records = maker(amounts)

        series = annualize("A", *columns(records))
        origin = records[0][0]
        complete_months = 12 * len(series)
        # month-level oracle: a record counts iff all its months fall in
        # complete buckets (never split for single-frequency data)
        covered = Decimal(0)
        for start, months, amount_cents in records:
            months_in = [
                m - origin < complete_months
                for m in range(start, start + months)
            ]
            assert all(months_in) or not any(months_in)
            if all(months_in):
                covered += Decimal(amount_cents).scaleb(-2)
        assert sum(series) == covered


class TestIdempotence:
    def test_reaccepts_whole_year_dataset(self):
        from royaltyval.synth import GroupSpec, PopulationSpec, gen_population

        spec = PopulationSpec(
            (GroupSpec(3, -0.2, 0.1, 4, 20000.0), GroupSpec(3, 0.0, 0.0, 6, 5000.0)),
            seed=11,
        )
        accepted, report = build_dataset(gen_population(spec))
        assert report.rejected_count == 0

        reserialized = []
        for asset in accepted:
            records = []
            start = month(2015, 1)
            for annual in asset.amounts:
                total = cents(annual)
                for piece in [total // 12] * 11 + [total - 11 * (total // 12)]:
                    records.append((start, 1, piece))
                    start += 1
            reserialized.append(RawAsset(asset.asset_id, asset.dollar_age, *columns(records)))

        accepted2, report2 = build_dataset(reserialized)
        assert report2.rejected_count == 0
        assert [a.amounts for a in accepted2] == [a.amounts for a in accepted]


class TestCsvWriters:
    def test_cashflows_roundtrip(self, tmp_path):
        assets = [
            raw_monthly_asset("B", ["10.25"] * 12),
            RawAsset("A", 1.0, *columns(quarterly_records(["7.00", "8.50", "9.00", "11.75"]))),
        ]
        path = tmp_path / "cashflows.csv"
        write_cashflows_csv(path, assets)
        records = parse_cashflows(path)
        regrouped = assemble_raw_assets(records, {"A": 1.0, "B": 1.0})
        assert [records_of(a) for a in regrouped] == [records_of(assets[1]), records_of(assets[0])]

    def test_cashflows_negative_cents_keep_their_sign(self, tmp_path):
        records = monthly_records(["-5.50", "-0.05", "12.00"])
        path = tmp_path / "cashflows.csv"
        write_cashflows_csv(path, [RawAsset("A", 1.0, *columns(records))])
        amounts = [line.split(",")[3] for line in path.read_text().splitlines()[1:]]
        assert amounts == ["-5.50", "-0.05", "12.00"]

    def test_assets_roundtrip(self, tmp_path):
        assets = [raw_monthly_asset("A", [1] * 12, dollar_age=1.25)]
        path = tmp_path / "assets.csv"
        write_assets_csv(path, assets)
        assert parse_assets(path) == {"A": 1.25}


class TestCashflowsWriterQuoting:
    def test_bytes_equal_csv_writer(self, tmp_path):
        assets = [
            RawAsset("a,b", 1.0, *columns(monthly_records(["1.00", "-2.05", "0.00"]))),
            RawAsset('say "hi"', 1.0, *columns(quarterly_records(["-0.07", "3.10"]))),
            RawAsset("plain", 1.0, *columns(monthly_records(["-120.00", "7.25"]))),
            RawAsset("two\nlines", 1.0, *columns(monthly_records(["4.00"]))),
            RawAsset("x\ry", 1.0, *columns(monthly_records(["5.00"]))),
        ]
        write_cashflows_csv(tmp_path / "written.csv", assets)
        rows = [
            (a.asset_id, f"{s // 12:04d}-{s % 12 + 1:02d}", str(m), str(Decimal(c).scaleb(-2)))
            for a in sorted(assets, key=lambda a: a.asset_id)
            for s, m, c in zip(a.starts, a.months, a.cents)
        ]
        oracle = "".join(map(csv_writer_line, (CASHFLOWS_HEADER, *rows))).encode("utf-8")
        written = (tmp_path / "written.csv").read_bytes()
        assert written == oracle
        assert b'"a,b",2019-02,1,-2.05' in written and b'"say ""hi""",2019-04,3,3.10' in written
        assert b'\n"two\nlines",2019-01,1,4.00\n' in written
        assert b'\n"x\ry",2019-01,1,5.00\n' in written

    def test_carriage_return_id_is_read_back_and_refused(self, tmp_path):
        path = tmp_path / "cashflows.csv"
        write_cashflows_csv(path, [RawAsset("x\ry", 1.0, *columns(monthly_records(["5.00"])))])
        with pytest.raises(ParseError) as err:
            parse_cashflows(path)
        assert str(err.value) == f"{path}:line 2: asset_id must be printable, got 'x\\ry'"


def per_row_cashflows_text(raw_assets) -> str:
    """The cashflows file as write_cashflows_csv wrote it one f-string per
    record: the reference its joined texts must match byte for byte."""
    lines = [",".join(CASHFLOWS_HEADER) + "\n"]
    for asset in sorted(raw_assets, key=lambda a: a.asset_id):
        cell = csv_writer_line((asset.asset_id, ""))[:-2]
        for s, m, c in zip(asset.starts, asset.months, asset.cents):
            sign, whole, frac = "-" if c < 0 else "", abs(c) // 100, abs(c) % 100
            lines.append(f"{cell},{s // 12:04d}-{s % 12 + 1:02d},{m},{sign}{whole}.{frac:02d}\n")
    return "".join(lines)


JAN = month(2019, 1)
WRITER_CASES = [
    pytest.param(
        [RawAsset("a,b", 1.0, (JAN, JAN + 1), (1, 1), (100, 250)),
         RawAsset('a"b', 1.0, (JAN,), (3,), (999,))],
        id="ids_that_need_quoting",
    ),
    pytest.param(
        [RawAsset("A", 1.0, (JAN, JAN + 1, JAN + 2), (1, 1, 1), array("q", [-550, -5, 1200]))],
        id="negative_cents",
    ),
    pytest.param(
        [RawAsset("Q", 1.0, (JAN, JAN + 3, JAN + 6, JAN + 9), (3,) * 4, (700, 850, 700, 1175))],
        id="quarterly",
    ),
    pytest.param(
        [RawAsset("M", 1.0, (JAN, JAN + 1, JAN + 4, JAN + 5), (1, 3, 1, 3), (1, 2, 1, 4)),
         RawAsset("N", 1.0, (JAN, JAN + 3), (3, 1), (5, 5))],
        id="mixed_periods_at_shared_starts",
    ),
    pytest.param(
        [RawAsset("G", 1.0, (JAN, JAN + 5, JAN + 6), (1, 1, 1), (100, 100, 100))],
        id="gap_in_coverage",
    ),
    pytest.param(
        [RawAsset("Z", 1.0, tuple(range(JAN, JAN + 6)), (1,) * 6, (0, 1, 9, 10, 99, 100))],
        id="zero_and_under_a_dollar",
    ),
    pytest.param(
        [RawAsset("P", 1.0, (JAN, JAN + 1, JAN + 2), (1,) * 3, (2**63, 2**63 + 12_345, 5)),
         RawAsset("R", 1.0, (JAN,), (1,), (10 ** 20 - 1,))],
        id="cents_at_2_to_the_63_or_more",
    ),
    pytest.param(
        [RawAsset("L", 1.0, [JAN, JAN + 1, JAN + 4], [1, 3, 1], [5, -5, 5]),
         RawAsset("K", 1.0, [JAN + 1], [1], [700])],
        id="list_columns",
    ),
    pytest.param(
        [RawAsset(i, 1.0, (JAN, JAN + 1), (1, 1), (100, -205))
         for i in ("%", "%s", "%%", "%(x)s", "a%d,b", '"%s"')],
        id="ids_holding_percent_signs",
    ),
    pytest.param(
        [RawAsset("S1", 1.0, (JAN, JAN + 1), (1, 1), (1, 2)),
         RawAsset("S2", 1.0, (JAN, JAN + 1), (1, 1), (3, 4)),
         RawAsset("S3", 1.0, (JAN, JAN + 1), (1, 1), (5, 6)),
         RawAsset("S4", 1.0, (JAN, JAN + 3), (3, 3), (7, 8)),
         RawAsset("S5", 1.0, (JAN, JAN + 1), (1, 1), (9, 10)),
         RawAsset("S6", 1.0, (JAN + 1, JAN + 2), (1, 1), (11, 12))],
        id="one_layout_three_times_then_quarterly_then_the_first_again",
    ),
    pytest.param(
        [RawAsset("T1", 1.0, (JAN, JAN + 1), (1, 1), (1, 2)),
         RawAsset("T2", 1.0, [JAN, JAN + 1], [1, 1], [3, 4]),
         RawAsset("T3", 1.0, (JAN, JAN + 1), (1, 1), array("q", [5, 6]))],
        id="list_columns_in_a_tuple_neighbours_layout",
    ),
]


@pytest.mark.parametrize("assets", WRITER_CASES)
def test_cashflows_writer_gives_the_per_row_bytes(tmp_path, assets):
    path = tmp_path / "cashflows.csv"
    write_cashflows_csv(path, assets)
    assert path.read_bytes() == per_row_cashflows_text(assets).encode("utf-8")


@pytest.mark.parametrize(
    "starts,months,where",
    [
        pytest.param((JAN + 1, JAN), (1, 1), "2019-01", id="monthly_unsorted"),
        pytest.param((JAN, JAN), (1, 1), "2019-01", id="monthly_one_start_twice"),
        pytest.param((JAN, JAN + 2, JAN + 1), (1, 1, 1), "2019-02", id="monthly_late_step_back"),
        pytest.param((JAN, JAN + 2), (3, 1), "2019-03", id="mixed_inside_a_quarter"),
        pytest.param((JAN, JAN + 3, JAN + 3), (3, 3, 3), "2019-04", id="quarterly_repeat"),
    ],
)
def test_raw_asset_names_the_first_overlap(starts, months, where):
    with pytest.raises(ValueError, match=f"^A: records overlap at {where}$"):
        RawAsset("A", 1.0, starts, months, (1,) * len(starts))


def walked_years(starts, months, cents):
    """annualize's (reason, buckets) as it found them when it walked every
    record: a gap is a start that does not follow its predecessor's
    period, and bucket k holds the records that start in the k-th twelve
    months."""
    if any(b != a + m for a, m, b in zip(starts, months, starts[1:])):
        return RejectReason.GAP_IN_HISTORY, None
    span = starts[-1] + months[-1] - starts[0]
    if span < 12:
        return RejectReason.INSUFFICIENT_HISTORY, None
    return None, tuple(
        Decimal(sum(c for s, c in zip(starts, cents) if 12 * k <= s - starts[0] < 12 * (k + 1)))
        .scaleb(-2)
        for k in range(span // 12)
    )


def walked_outcome(raw: RawAsset):
    """build_dataset's (reason, amounts) for `raw`, at the default options,
    around walked_years."""
    if min(raw.cents) < 0:
        return RejectReason.NEGATIVE_AMOUNT, None
    reason, years = walked_years(raw.starts, raw.months, raw.cents)
    if reason is not None:
        return reason, None
    if not min(years) > DEFAULT_ZERO_FLOOR:
        return RejectReason.ZERO_REVENUE_YEAR, None
    oldest = (raw.starts[-1] + raw.months[-1] - raw.starts[0]) / 12
    if abs(raw.dollar_age - oldest) > DEFAULT_AGE_TOLERANCE * oldest:
        return RejectReason.DOLLAR_AGE_MISMATCH, None
    return None, years


@st.composite
def period_columns(draw, steps=st.sampled_from([0, 0, 0, 0, 1, 2])):
    """(starts, months, cents) of up to 40 records, monthly, quarterly or
    mixed, each start its predecessor's end plus a step drawn from `steps`,
    so with or without gaps; a few cents are zero or negative."""
    n = draw(st.integers(min_value=1, max_value=40))
    kind = draw(st.sampled_from(["monthly", "quarterly", "mixed"]))
    if kind == "mixed":
        months = draw(st.lists(st.sampled_from([1, 3]), min_size=n, max_size=n))
    else:
        months = [1 if kind == "monthly" else 3] * n
    gaps = draw(st.lists(steps, min_size=n, max_size=n)) if draw(st.booleans()) else [0] * n
    starts = [JAN]
    for m, gap in zip(months, gaps[1:]):
        starts.append(starts[-1] + m + gap)
    amounts = st.integers(min_value=0, max_value=10**7) | st.sampled_from([0, -1])
    cents = draw(st.lists(amounts, min_size=n, max_size=n))
    return tuple(starts), tuple(months), array("q", cents)


@given(st.lists(period_columns(), min_size=1, max_size=6), st.sampled_from([0, 0.5, 7.0]))
@settings(max_examples=150, deadline=None)
def test_build_dataset_matches_the_walked_filters(all_columns, age_shift):
    raws = []
    for k, (starts, months, amounts) in enumerate(all_columns):
        span = starts[-1] + months[-1] - starts[0]
        raws.append(RawAsset(f"A{k}", span / 12 + age_shift, starts, months, amounts))
    accepted, report = build_dataset(raws)
    expected = {raw.asset_id: walked_outcome(raw) for raw in raws}
    assert report.reasons == {i: reason for i, (reason, _) in expected.items()}
    assert {a.asset_id: a.amounts for a in accepted} == {
        i: years for i, (reason, years) in expected.items() if reason is None
    }


@given(period_columns(steps=st.sampled_from([-3, -1, 0, 0, 0, 1])))
@settings(max_examples=150, deadline=None)
def test_annualize_matches_the_walk_on_unsorted_and_overlapping_columns(columns_):
    reason, years = walked_years(*columns_)
    if reason is None:
        assert annualize("A", *columns_) == years
    else:
        with pytest.raises(AnnualizeError) as err:
            annualize("A", *columns_)
        assert err.value.reason is reason


@given(period_columns(steps=st.just(0)))
@settings(max_examples=150, deadline=None)
def test_annual_bounds_equal_the_bisect_bounds(columns_):
    """Gap-free columns of one period, monthly or quarterly, step 12 //
    period records a year; mixed ones bisect the starts. Both take the
    records that start in each twelve months, so the sums are the same."""
    starts, months, _ = columns_
    span = starts[-1] + months[-1] - starts[0]
    assume(span >= 12)
    cents = [1 << k for k in range(len(starts))]  # no two sets of records sum alike
    bounds = [bisect_left(starts, starts[0] + 12 * k) for k in range(span // 12 + 1)]
    expected = tuple(Decimal(sum(cents[lo:hi])).scaleb(-2) for lo, hi in zip(bounds, bounds[1:]))
    with mock.patch.object(ingest, "bisect_left", wraps=bisect_left) as bisect:
        assert ingest._annual_sums("A", starts, months, cents) == expected
    assert bisect.called == (len(set(months)) > 1)


@pytest.mark.parametrize(
    "starts,months,message",
    [
        ((0, 0, 2), (1, 1, 1), "A: coverage gap before 0000-01"),
        ((JAN, JAN + 2, JAN + 3), (3, 1, 1), "A: coverage gap before 2019-03"),
        ((JAN, JAN + 1, JAN + 1), (1, 1, 1), "A: coverage gap before 2019-02"),
    ],
)
def test_annualize_names_the_first_gap_in_overlapping_columns(starts, months, message):
    with pytest.raises(AnnualizeError, match=f"^{message}$") as err:
        annualize("A", starts, months, (1,) * len(starts))
    assert err.value.reason is RejectReason.GAP_IN_HISTORY


# ---------------------------------------------------------------------------
# The block read of canonical files against the row parser
# ---------------------------------------------------------------------------

HEADER_LINE = ",".join(CASHFLOWS_HEADER) + "\n"
# every character a canonical asset id may hold
ID_CHARS = [chr(c) for c in range(0x21, 0x7F) if chr(c) not in '",']


@st.composite
def canonical_rows(draw):
    """Rows as write_cashflows_csv writes them for up to four assets, one
    id possibly at the 256-character bound, each monthly or quarterly, in
    asset runs or fully interleaved."""
    ids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=6), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        ids[0] = (ids[0] * 256)[:256]
    rows = []
    for asset_id in ids:
        period = draw(st.sampled_from([1, 3]))
        first = draw(st.integers(0, 9990 * 12))
        for k in range(draw(st.integers(1, 30))):
            start = first + k * period
            cents = draw(st.integers(0, 10**18 - 1))
            rows.append(
                f"{asset_id},{start // 12:04d}-{start % 12 + 1:02d},{period},{cents // 100}.{cents % 100:02d}"
            )
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return rows


def outcome(read, path):
    """What a reader gives for a file: its mapping or its error text."""
    try:
        return read(path)
    except ParseError as exc:
        return f"ParseError: {exc}"


def mutate(rows, kind, k):
    """File bytes of `rows` with row k (or the whole file) changed by `kind`."""
    rows = list(rows)
    asset_id, start, period, amount = rows[k].split(",")
    if kind == "padding":
        rows[k] = f" {asset_id} ,{start} , {period},{amount} "
    elif kind == "quoted id":
        rows[k] = f'"{asset_id}",{start},{period},{amount}'
    elif kind == "one fraction digit":
        rows[k] = f"{asset_id},{start},{period},{amount[:-1]}"
    elif kind == "no fraction":
        rows[k] = f"{asset_id},{start},{period},{amount[:-3]}"
    elif kind == "-0.00":
        rows[k] = f"{asset_id},{start},{period},-0.00"
    elif kind == "duplicate":
        rows.append(rows[k])
    elif kind == "month 13":
        rows[k] = f"{asset_id},{start[:5]}13,{period},{amount}"
    elif kind == "arabic-indic digit":
        rows[k] = f"{asset_id},{start},{period},\u0663{amount[1:]}"
    elif kind == "257-character id":
        rows[k] = f"{(asset_id * 257)[:257]},{start},{period},{amount}"
    elif kind == "17-digit amount":
        rows[k] = f"{asset_id},{start},{period},1{'0' * 16}.00"
    elif kind == "5000-digit amount":
        rows[k] = f"{asset_id},{start},{period},{'9' * 4998}.00"
    text = HEADER_LINE + "".join(row + "\n" for row in rows)
    if kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind == "no final line end":
        text = text[:-1]
    data = text.encode("utf-8")
    if kind == "not utf-8":
        at = len((HEADER_LINE + "".join(row + "\n" for row in rows[: k + 1])).encode("utf-8")) - 1
        data = data[:at] + b"\xff" + data[at:]
    return data


MUTATIONS = [
    "crlf",
    "padding",
    "quoted id",
    "one fraction digit",
    "no fraction",
    "-0.00",
    "duplicate",
    "month 13",
    "arabic-indic digit",
    "257-character id",
    "17-digit amount",
    "5000-digit amount",
    "not utf-8",
    "no final line end",
]


class TestBlockRead:
    @given(rows=canonical_rows(), block_chars=st.integers(min_value=16, max_value=2048))
    @settings(max_examples=60, deadline=None)
    def test_canonical_files_give_the_row_parsers_mapping(self, rows, block_chars):
        text = HEADER_LINE + "".join(row + "\n" for row in rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = text_file(tmp, "cashflows.csv", text)
            # small blocks, so that files span several and asset runs cross them
            with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
                fast = ingest._read_canonical(path)
            assert fast is not None
            assert fast == ingest._parse_rows(path)

    @given(rows=canonical_rows(), kind=st.sampled_from(MUTATIONS), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_mutated_files_give_the_same_mapping_or_error(self, rows, kind, data):
        k = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cashflows.csv"
            path.write_bytes(mutate(rows, kind, k))
            fast = ingest._read_canonical(path)
            slow = outcome(ingest._parse_rows, path)
            assert fast is None or fast == slow
            assert outcome(parse_cashflows, path) == slow

    def test_file_without_its_final_line_end_gives_the_same_columns(self, tmp_path):
        assets = [raw_monthly_asset("A", ["1.00"] * 12), raw_monthly_asset("B", ["2.50"] * 6)]
        path = tmp_path / "cashflows.csv"
        write_cashflows_csv(path, assets)
        columns = parse_cashflows(path)
        path.write_bytes(path.read_bytes()[:-1])
        assert ingest._read_canonical(path) is None
        assert parse_cashflows(path) == columns

    def test_real_blocks_with_an_asset_across_a_boundary(self, tmp_path):
        assets = [
            raw_monthly_asset(f"A{i:03d}", [f"{i}.{k % 100:02d}" for k in range(120)]) for i in range(80)
        ]
        path = tmp_path / "cashflows.csv"
        write_cashflows_csv(path, assets)
        body = path.read_text().split("\n", 1)[1]
        cut = body.rfind("\n", 0, ingest._BLOCK_CHARS) + 1
        assert len(body) > 2 * ingest._BLOCK_CHARS
        assert body[:cut].splitlines()[-1].split(",")[0] == body[cut:].split(",", 1)[0]
        fast = ingest._read_canonical(path)
        assert fast is not None and fast == ingest._parse_rows(path)
        cents_as_tuples = {k: (s, m, tuple(c)) for k, (s, m, c) in fast.items()}
        assert cents_as_tuples == {a.asset_id: (a.starts, a.months, a.cents) for a in assets}

    def test_written_files_never_reach_the_row_parser(self, tmp_path):
        from royaltyval.synth import GroupSpec, PopulationSpec, gen_population

        assets = gen_population(PopulationSpec((GroupSpec(30, -0.2, 0.3, 5, 9000.0),), seed=3))
        assets.append(RawAsset("Q.4", 2.0, *columns(quarterly_records(["1.25"] * 8))))
        path = tmp_path / "cashflows.csv"
        write_cashflows_csv(path, assets)

        def refuse(source):
            raise AssertionError("the row parser read a file write_cashflows_csv wrote")

        with mock.patch.object(ingest, "_parse_rows", refuse):
            parsed = parse_cashflows(path)
        cents_as_tuples = {k: (s, m, tuple(c)) for k, (s, m, c) in parsed.items()}
        assert cents_as_tuples == {a.asset_id: (a.starts, a.months, tuple(a.cents)) for a in assets}


def edge_rows(amount: str, month_of_amount: int = 12) -> list[str]:
    """Rows of a year of asset A, one month of which is `amount` and the
    others 1.00, then a year of asset B at 2.50."""
    return [
        f"A,2019-{m:02d},1,{amount if m == month_of_amount else '1.00'}" for m in range(1, 13)
    ] + [f"B,2019-{m:02d},1,2.50" for m in range(1, 13)]


def edge_file(directory, amount: str, month_of_amount: int = 12, line_end: str = "\n") -> Path:
    """A file of edge_rows with the given line ends, named for them."""
    text = HEADER_LINE + "".join(row + "\n" for row in edge_rows(amount, month_of_amount))
    name = "lf.csv" if line_end == "\n" else "crlf.csv"
    return text_file(directory, name, text.replace("\n", line_end))


class TestAmountBound:
    """An amount of at most 16 digits fills an array('q') of cents in both
    readers; one of 17 digits or more is an error at its line."""

    def test_block_and_row_readers_give_equal_arrays(self, tmp_path):
        fast = ingest._read_canonical(edge_file(tmp_path, LARGEST_AMOUNT))
        crlf = edge_file(tmp_path, LARGEST_AMOUNT, line_end="\r\n")
        assert fast is not None
        assert ingest._read_canonical(crlf) is None
        slow = parse_cashflows(crlf)
        assert slow == fast
        assert {type(cents) for _, _, cents in [*fast.values(), *slow.values()]} == {array}
        assert tuple(fast["A"][2]) == (100,) * 11 + (10**18 - 1,)

    @pytest.mark.parametrize("month_of_amount", [1, 6, 12])
    @pytest.mark.parametrize("order", ["sorted", "reversed"])
    def test_largest_amount_in_any_block_is_an_array(self, tmp_path, month_of_amount, order):
        rows = edge_rows(LARGEST_AMOUNT, month_of_amount)
        if order == "reversed":
            rows.reverse()
        path = text_file(tmp_path, "cashflows.csv", HEADER_LINE + "".join(r + "\n" for r in rows))
        with mock.patch.object(ingest, "_BLOCK_CHARS", 64):
            fast = ingest._read_canonical(path)
        assert fast is not None and fast == ingest._parse_rows(path)
        assert (type(fast["A"][2]), type(fast["B"][2])) == (array, array)

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_sums_are_exact_and_the_writer_gives_lf_bytes(self, tmp_path, line_end):
        path = edge_file(tmp_path, LARGEST_AMOUNT, line_end=line_end)
        raw = assemble_raw_assets(parse_cashflows(path), {"A": 1.0, "B": 1.0})
        accepted, _ = build_dataset(raw)
        assert [a.amounts for a in accepted] == [(Decimal(LARGEST_AMOUNT) + 11,), (Decimal("30.00"),)]
        written = tmp_path / "written.csv"
        write_cashflows_csv(written, raw)
        assert written.read_bytes() == path.read_bytes().replace(b"\r\n", b"\n")

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize(
        "amount", ["10000000000000000.00", "92233720368547758.08"],
        ids=["10**16_dollars", "2**63_cents"],
    )
    def test_17_digits_fail_at_their_line(self, tmp_path, amount, line_end):
        path = edge_file(tmp_path, amount, 6, line_end)
        assert ingest._read_canonical(path) is None
        for reader in (parse_cashflows, ingest._parse_rows):
            with pytest.raises(ParseError) as err:
                reader(path)
            assert (str(err.value), err.value.line) == (
                f"{path}:line 7: bad amount of 20 characters (too many digits to read)", 7
            )


class TestCentsPastInt64:
    @pytest.mark.parametrize(
        "value", [2**63 - 1, 2**63], ids=["2**63-1_cents", "2**63_cents"]
    )
    def test_raw_asset_built_in_code(self, tmp_path, value):
        """A tuple of cents past what a file holds, even past an array('q'),
        annualizes exactly; the file written from it is refused at its line."""
        starts = tuple(range(month(2019, 1), month(2019, 13)))
        raw = RawAsset("A", 1.0, starts, (1,) * 12, (100,) * 11 + (value,))
        amount = Decimal(value + 1100).scaleb(-2)
        assert annualize("A", raw.starts, raw.months, raw.cents) == (amount,)
        assert [a.amounts for a in build_dataset([raw])[0]] == [(amount,)]
        path = tmp_path / "cashflows.csv"
        write_cashflows_csv(path, [raw])
        with pytest.raises(ParseError, match="line 13: bad amount of 20 characters"):
            parse_cashflows(path)


PARAMETER_GUARDS = [
    pytest.param(RawAsset, ("A", 1.0, (), (), ()), "A: no cashflow records", id="no_records"),
    pytest.param(
        RawAsset, ("A", 1.0, (0, 1), (1,), (1, 1)), "A: cashflow columns differ in length",
        id="unequal_columns",
    ),
    pytest.param(RawAsset, ("A", 0.0, (0,), (1,), (1,)), "A: dollar_age must be > 0", id="age_0"),
    pytest.param(
        RawAsset, ("A", 1.0, (0,), (2,), (1,)), "period_months must be 1 or 3, got 2", id="period_2"
    ),
    # the first period in record order that is not allowed, in both checks
    pytest.param(
        RawAsset, ("A", 1.0, (0, 5), (5, 2), (1, 1)), "period_months must be 1 or 3, got 5",
        id="period_5_then_2",
    ),
    pytest.param(annualize, ("A", (), (), ()), "no records", id="annualize_empty"),
    pytest.param(
        annualize, ("A", (0, 5, 10), (5, 5, 5), (1, 1, 1)), "period_months must be 1 or 3, got 5",
        id="annualize_period_5",
    ),
    pytest.param(
        annualize, ("A", (0, 5), (5, 2), (1, 1)), "period_months must be 1 or 3, got 5",
        id="annualize_period_5_then_2",
    ),
    pytest.param(
        functools.partial(build_dataset, zero_floor=-1), ([],), "zero_floor must be >= 0",
        id="floor_-1",
    ),
    pytest.param(filter_dollar_age, (1.0, 0), "oldest_age must be > 0", id="oldest_age_0"),
    pytest.param(filter_dollar_age, (1.0, 1.0, -1), "tolerance must be >= 0", id="tolerance_-1"),
]


@pytest.mark.parametrize("function,args,message", PARAMETER_GUARDS)
def test_parameter_guard_rejects_its_argument(function, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)
