"""Market files: column-wise loading, its error messages, and serialization."""

import csv
import io
import json

import numpy as np
import pytest

import productdesign as pd
from conftest import float_market
from productdesign import market as market_mod
from productdesign.cli import load_market

OK = '{"price": 9, "qualities": [1, 2]}'


def _json(*entries: str, dim: int = 2) -> str:
    return '{"dim": %d, "customers": [%s]}' % (dim, ", ".join(entries))


# (format, file text, the MarketFormatError message the per-customer parser
# gave for it); every entry is checked with and without --prune
MALFORMED = [
    ("json", _json(OK, '{"price": true, "qualities": [1, 2]}'),
     "customer 1: price: expected a number, got True"),
    ("json", _json(OK, '{"price": 9, "qualities": [1, false]}'),
     "customer 1: quality 2: expected a number, got False"),
    ("json", _json('{"price": "9", "qualities": [1, 2]}'),
     "customer 0: price: expected a number, got '9'"),
    ("json", _json(OK, '{"price": 9, "qualities": ["1", 2]}'),
     "customer 1: quality 1: expected a number, got '1'"),
    ("json", _json('{"qualities": [1, 2]}'),
     "customer 0: price: expected a number, got None"),
    ("json", _json(OK, '{"price": 9}'), "customer 1: 'qualities' must be a list"),
    ("json", _json(OK, '{"price": 9, "qualities": null}'),
     "customer 1: 'qualities' must be a list"),
    ("json", _json(OK, '{"price": 9, "qualities": {"q1": 1}}'),
     "customer 1: 'qualities' must be a list"),
    ("json", _json(OK, '{"price": null, "qualities": [1, 2]}'),
     "customer 1: price: expected a number, got None"),
    ("json", _json(OK, "[9, 1, 2]"), "customer 1: expected an object"),
    ("json", _json('"customer"'), "customer 0: expected an object"),
    ("json", _json(OK, "7"), "customer 1: expected an object"),
    ("json", _json(OK, '{"price": 9, "qualities": [1]}'),
     "customer 1: has 1 qualities, expected dim=2"),
    ("json", _json(OK, '{"price": 9, "qualities": [1, 2, 3]}'),
     "customer 1: has 3 qualities, expected dim=2"),
    ("json", _json(OK, '{"price": 9, "qualities": []}'),
     "customer 1: has 0 qualities, expected dim=2"),
    ("json", _json(OK, '{"price": NaN, "qualities": [1, 2]}'),
     "non-finite literal 'NaN' is not allowed"),
    ("json", _json(OK, '{"price": 9, "qualities": [Infinity, 2]}'),
     "non-finite literal 'Infinity' is not allowed"),
    ("json", _json(OK, '{"price": 9, "qualities": [1, -Infinity]}'),
     "non-finite literal '-Infinity' is not allowed"),
    ("json", _json(OK, '{"price": 1e400, "qualities": [1, 2]}'),
     "customer 1: price: non-finite value inf"),
    ("json", _json(OK, '{"price": 9, "qualities": [1, -1e999]}'),
     "customer 1: quality 2: non-finite value -inf"),
    ("json", _json('{"price": 9, "qualities": [[1], 2]}'),
     "customer 0: quality 1: expected a number, got [1]"),
    ("json", _json('{"price": [9], "qualities": [1, 2]}'),
     "customer 0: price: expected a number, got [9]"),
    ("json", _json(OK, '{"price": true, "qualities": [1, "x"]}',
                   '{"price": "y", "qualities": [1, 2]}'),
     "customer 1: price: expected a number, got True"),
    ("json", '{"dim": 2, "customers": []}', "'customers' must be a nonempty list"),
    ("json", '{"dim": 2}', "'customers' must be a nonempty list"),
    ("json", '{"dim": 2, "customers": {"price": 9}}',
     "'customers' must be a nonempty list"),
    ("json", '{"dim": true, "customers": [%s]}' % OK,
     "'dim' must be a positive integer, got True"),
    ("json", '{"dim": "2", "customers": [%s]}' % OK,
     "'dim' must be a positive integer, got '2'"),
    ("json", '{"dim": 0, "customers": [%s]}' % OK,
     "'dim' must be a positive integer, got 0"),
    ("json", '{"customers": [%s]}' % OK, "'dim' must be a positive integer, got None"),
    ("json", "[%s]" % OK, "top-level JSON value must be an object"),
    ("json", '{"dim": 2, "customers": [%s' % OK,
     "invalid JSON: Expecting ',' delimiter: line 1 column 59 (char 58)"),
    ("json", '{"dim": 2, "customers": [NaN]}', "non-finite literal 'NaN' is not allowed"),
    ("csv", "", "empty CSV file"),
    ("csv", "\n\n  \n", "empty CSV file"),
    ("csv", "cost,q1\n2,1\n",
     "line 1: header must be price,q1,...,qd, got ['cost', 'q1']"),
    ("csv", "price\n2\n", "line 1: header must be price,q1,...,qd, got ['price']"),
    ("csv", "price,q2\n2,1\n",
     "line 1: header must be price,q1,...,qd, got ['price', 'q2']"),
    ("csv", "price,q1,q3\n2,1,0\n",
     "line 1: header must be price,q1,...,qd, got ['price', 'q1', 'q3']"),
    ("csv", "q1,price\n1,2\n",
     "line 1: header must be price,q1,...,qd, got ['q1', 'price']"),
    ("csv", "\n\nprice;q1\n2;1\n",
     "line 3: header must be price,q1,...,qd, got ['price;q1']"),
    ("csv", "price,q1\n2,1\nx,1\n", "line 3: field price: not a number: 'x'"),
    ("csv", "price,q1\n2,1\n\n\n2,y\n", "line 5: field q1: not a number: 'y'"),
    ("csv", "price,q1\n2,1\n , \n3\n", "line 4: expected 2 fields, got 1"),
    ("csv", "price,q1,q2\n5,1,2\n6,1\n", "line 3: expected 3 fields, got 2"),
    ("csv", "price,q1,q2\n5,1,2\n6,1,2,3\n", "line 3: expected 3 fields, got 4"),
    ("csv", "price,q1\nnan,1\n", "line 2: field price: non-finite value 'nan'"),
    ("csv", "price,q1\n2,inf\n", "line 2: field q1: non-finite value 'inf'"),
    ("csv", "price,q1\n2,-Infinity\n",
     "line 2: field q1: non-finite value '-Infinity'"),
    ("csv", "price,q1\n2,1e400\n", "line 2: field q1: non-finite value '1e400'"),
    ("csv", "price,q1\n2,True\n", "line 2: field q1: not a number: 'True'"),
    ("csv", "price,q1\n2,\n", "line 2: field q1: not a number: ''"),
    ("csv", 'price,q1\n"2\n",1\n4,z\n', "line 3: field q1: not a number: 'z'"),
    ("csv", "price,q1\n2,0x10\n", "line 2: field q1: not a number: '0x10'"),
    # integers past the float range once escaped as OverflowError
    ("json", _json(OK, '{"price": 1%s, "qualities": [1, 2]}' % ("0" * 400)),
     "customer 1: price: integer too large for a float (401 digits)"),
    ("json", _json(OK, '{"price": 9, "qualities": [1, -%s]}' % ("9" * 320)),
     "customer 1: quality 2: integer too large for a float (320 digits)"),
    # past int()'s 4300-digit limit, json.loads itself once raised a plain
    # ValueError
    ("json", _json(OK, '{"price": 1%s, "qualities": [1, 2]}' % ("0" * 5000)),
     "customer 1: price: integer too large for a float (5001 digits)"),
    # past the decoder's depth limit json.loads once raised RecursionError;
    # 100,000 levels pass every supported interpreter's limit
    ("json", "[" * 100_000 + "]" * 100_000, "invalid JSON: nested too deeply"),
    ("json",
     _json('{"price": 9, "qualities": [%s1%s]}' % ("[" * 100_000, "]" * 100_000),
           dim=1),
     "invalid JSON: nested too deeply"),
    # past csv.field_size_limit() the reader once raised csv.Error
    ("csv", "price,q1\n" + "1" * 200_000 + ",1\n",
     "line 2: field larger than field limit (131072)"),
    # a syntax error after such an integer once escaped the second decode
    # as a plain JSONDecodeError
    ("json", '{"dim": 2, "customers": [{"price": 1%s, "qualities": [1, 2]}'
     % ("0" * 5000),
     "invalid JSON: Expecting ',' delimiter: line 1 column 5059 (char 5058)"),
]


def _write(tmp_path, fmt: str, text: str) -> str:
    path = tmp_path / f"market.{fmt}"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    ("fmt", "text", "message"),
    MALFORMED,
    ids=[f"{fmt}{k}" for k, (fmt, _, _) in enumerate(MALFORMED)],
)
def test_malformed_input_keeps_its_message(tmp_path, fmt, text, message):
    path = _write(tmp_path, fmt, text)
    for prune in (False, True):
        with pytest.raises(pd.MarketFormatError) as info:
            load_market(path, prune)
        assert str(info.value) == message
    parse = pd.parse_customers_json if fmt == "json" else market_mod._csv_arrays
    with pytest.raises(pd.MarketFormatError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["price,q1\n", "price,q1\n\n \n"])
def test_header_only_csv_is_an_empty_market(tmp_path, text):
    path = _write(tmp_path, "csv", text)
    with pytest.raises(pd.EmptyMarketError, match="^a market needs at least one"):
        load_market(path)
    with pytest.raises(pd.EmptyMarketError, match="^cannot prune an empty"):
        load_market(path, prune=True)
    prices, qualities = market_mod._csv_arrays(text)
    assert prices.shape == (0,) and qualities.shape == (0, 1)


@pytest.mark.parametrize(
    ("fmt", "text", "prices", "qualities"),
    [
        # blank and whitespace-only rows are skipped; fields go through float
        ("csv", 'price,q1\n\n 2 ,1_0\n , \n5,"40"\n', [2.0, 5.0], [[10.0], [40.0]]),
        ("csv", "price , q1 ,q2\n-0.0,0.1,1e3\n", [-0.0], [[0.1, 1000.0]]),
        # ints, floats, extra keys and integers beyond 2**63
        (
            "json",
            _json(
                '{"price": 10000000000000000000000, "qualities": [0, 2.5], "id": 1}',
                '{"price": -0.0, "qualities": [-1, 1e-300]}',
            ),
            [1e22, -0.0],
            [[0.0, 2.5], [-1.0, 1e-300]],
        ),
    ],
)
def test_valid_input_loads_value_for_value(tmp_path, fmt, text, prices, qualities):
    market, pruned = load_market(_write(tmp_path, fmt, text))
    assert pruned == 0
    want_p, want_q = np.array(prices), np.array(qualities)
    # tobytes also tells -0.0 from 0.0
    assert market.prices.tobytes() == want_p.tobytes()
    assert market.qualities.tobytes() == want_q.tobytes()
    if fmt == "json":
        assert pd.parse_customers_json(text) == [
            pd.Customer(p, tuple(q)) for p, q in zip(prices, qualities)
        ]
    else:
        got_p, got_q = market_mod._csv_arrays(text)
        assert got_p.tobytes() == want_p.tobytes()
        assert got_q.tobytes() == want_q.tobytes()


def _json_per_customer(market: pd.Market) -> str:
    payload = {
        "dim": market.dim,
        "customers": [
            {"price": c.price, "qualities": list(c.qualities)} for c in market
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _csv_per_customer(market: pd.Market) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["price"] + [f"q{k + 1}" for k in range(market.dim)])
    for c in market:
        writer.writerow([repr(c.price)] + [repr(v) for v in c.qualities])
    return out.getvalue()


def test_serializers_match_the_per_customer_form():
    rng = np.random.default_rng(12)
    markets = [pd.random_pareto_market(80, d, seed=d) for d in (1, 2, 3)]
    markets += [float_market(rng, 80, d) for d in (1, 2, 3)]
    markets.append(
        pd.Market.from_arrays(
            [0.1 + 0.2, -0.0, 1e300, 5e-324], [[1 / 3], [2.0**60], [-0.0], [1e-7]],
            validate=False,
        )
    )
    for market in markets:
        assert pd.market_to_json(market) == _json_per_customer(market)
        assert pd.market_to_csv(market) == _csv_per_customer(market)


@pytest.mark.parametrize(
    ("name", "serialize"),
    [
        ("market.csv", pd.market_to_csv),
        ("market.json", pd.market_to_json),
        ("market", pd.market_to_json),  # no suffix: JSON by its first "{"
    ],
)
def test_byte_order_mark_is_accepted(tmp_path, name, serialize):
    # Excel's "CSV UTF-8" and Windows PowerShell 5 start files with a BOM
    rng = np.random.default_rng(5)
    market = float_market(rng, 60, 2)
    text = serialize(market)
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.mkdir()
    marked.mkdir()
    (plain / name).write_bytes(text.encode("utf-8"))
    (marked / name).write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_market(str(plain / name))[0] == market
    for prune in (False, True):
        want, want_pruned = load_market(str(plain / name), prune)
        got, got_pruned = load_market(str(marked / name), prune)
        assert got_pruned == want_pruned
        assert got.prices.tobytes() == want.prices.tobytes()
        assert got.qualities.tobytes() == want.qualities.tobytes()
