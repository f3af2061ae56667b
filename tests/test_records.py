"""The value types: NamedTuples, and ``Frozen`` records where some state
must not count in equality.  Answers rely on their being immutable and on
hashing as the tuple of their fields, which fixes the iteration order of
every set and dict that holds them."""

import pytest

from thetalift.enumeration import verify_tables
from thetalift.exact import InfChar
from thetalift.ktypes import OKType, UKType
from thetalift.langlands import parse_expr, parse_o, parse_param_pattern, parse_sp
from thetalift.roots import OKind, SpKind
from thetalift.theta import TableSet, load_tables, parse_cond, theta_n

TRIVIAL22 = "pi_{1}(0,1,{},0,0,(1,1),(0,1))"


def _one_of_each() -> list:
    tables = load_tables()
    pi = parse_o("pi_{1}((3;1),1,{e1+f1,e1-f1},0,0,0,0) @ O(2,2)")
    lift_table = tables.theta(2)
    report = verify_tables("theta4", tables)
    oktype = OKType.of(2, 3, (1,), (0,), 1, -1)
    return [
        InfChar.of((1, 2)),
        SpKind(2),
        OKind(1, 2),
        pi.psi,
        parse_sp("pi((2,1),{e1+e2,e1-e2,2e1,2e2},0,0,0,0)"),
        pi,
        parse_expr("m+1"),
        parse_param_pattern("pi_{1}(0,1,{},0,0,(1,1),(c1,c2))"),
        lift_table.rows[0],
        tables.appendix_c[0],
        lift_table.rows[0].cond,
        lift_table,
        tables,
        theta_n(parse_o(TRIVIAL22), 2, tables),
        UKType.of((2, 0)),
        oktype.left,
        oktype,
        report.cases[0],
        report,
    ]


def test_value_types_are_immutable_and_hash_as_their_fields():
    values = _one_of_each()
    assert len({type(x) for x in values}) == 19
    for x in values:
        name = type(x).__name__
        for field in (*x._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, field, None)
        fields = tuple(getattr(x, f) for f in x._fields)
        if isinstance(x, TableSet):
            # Its lift tables sit in a dict, so neither hashes.
            with pytest.raises(TypeError):
                hash(x)
            with pytest.raises(TypeError):
                hash(fields)
        else:
            assert hash(x) == hash(fields), name
    assert parse_cond("m>=1 & b notin {0,1}") == parse_cond("m>=1 & b notin {0,1}")
    assert repr(OKind(1, 2)) == "OKind(left=1, right=2, odd=False)"
    assert repr(SpKind(rank=2)) == "SpKind(rank=2)"
