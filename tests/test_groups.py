import pytest

from orbipar.errors import ConfigurationError
from orbipar.groups import cyclic, dihedral, direct_product, from_table, group_from_config


def test_cyclic_basics():
    g = cyclic(6)
    assert g.order == 6
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4
    assert g.element_order(2) == 3
    assert g.generators() == [1]


def test_dihedral_nonabelian():
    d4 = dihedral(4)
    assert d4.order == 8
    r, f = 1, 4
    assert d4.mul(f, r) != d4.mul(r, f)
    # f r f^{-1} = r^{-1}
    assert d4.conj(f, r) == d4.inv(r)
    assert d4.element_order(r) == 4 and d4.element_order(f) == 2


def test_direct_product():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    a = 1          # (1, 0)
    b = 2          # (0, 1)
    assert g.mul(a, b) == 3
    assert g.element_order(g.mul(a, b)) == 6


def test_non_associative_rejected():
    # a "table" with 0 as identity but broken associativity
    table = [[0, 1, 2], [1, 2, 2], [2, 0, 1]]
    with pytest.raises(ConfigurationError):
        from_table(table)


def _cyclic_with_swap(n, a, b, c):
    """Z/n's table with the products a*b and a*c swapped: identity and
    inverses survive, associativity does not."""
    table = [[(x + y) % n for y in range(n)] for x in range(n)]
    table[a][b], table[a][c] = table[a][c], table[a][b]
    return table


@pytest.mark.parametrize("n, a, b, c, triple", [(7, 1, 2, 3, (6, 1, 2)),
                                                (256, 5, 10, 20, (4, 1, 10))])
def test_non_associative_with_inverses_rejected(n, a, b, c, triple):
    """Light's test on the generators finds the failure; the order-256 table
    passed the 2,000 sampled triples that once checked orders above 24."""
    table = _cyclic_with_swap(n, a, b, c)
    x, g, y = triple
    assert table[table[x][g]][y] != table[x][table[g][y]]
    with pytest.raises(ConfigurationError, match="not associative"):
        from_table(table)


def test_identity_must_be_zero():
    table = [[1, 0], [0, 1]]
    with pytest.raises(ConfigurationError):
        from_table(table)


def test_group_from_config():
    g = group_from_config({"kind": "product", "left": {"kind": "cyclic", "n": 2},
                           "right": {"kind": "cyclic", "n": 2}})
    assert g.order == 4
    with pytest.raises(ConfigurationError):
        group_from_config({"kind": "simple"})
