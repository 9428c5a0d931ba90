import re

import pytest

from homtwist import actions, homcore
from homtwist.scalars import ONE, Q, QLaurent, add_term, sparse_add
from homtwist.uea import UElem

import free_oracle
from free_oracle import pbw_word

X, Y, Z = {(1, 0, 0): ONE}, {(0, 1, 0): ONE}, {(0, 0, 1): ONE}
UNIT = {(0, 0, 0): ONE}


def apply(table, x: dict) -> dict:
    """The coordinate map of x's image under the linear map of table."""
    return homcore.unflatten(homcore.linear(table, homcore.flatten(x)).items())


def contract(table, x: dict, y: dict) -> dict:
    """The bilinear map of table on (x, y): a product, or x acting on y."""
    flat = homcore.bilinear(table, homcore.flatten(x), homcore.flatten(y))
    return homcore.unflatten(flat.items())


def mul(u: dict, v: dict) -> dict:
    """u v through the PBW product table actions.pbw_mul."""
    return contract(actions.pbw_mul, u, v)


def bracket_report(images):
    """The check of extend_lie_endo on the endomorphism with these generator
    images, without its refusal of a failing map.
    """
    return actions._check_bracket(actions.endo_map(images, actions.pbw_mul))


def comul(mono) -> dict:
    """Delta(X^a Y^b Z^c) from the comultiplication table of u_carrier."""
    C = actions.u_carrier(0)
    return homcore.unflatten(C.comul(homcore.REGISTRY.ids(mono)))


class TestPBWProduct:
    def test_yx(self):
        assert mul(Y, X) == sparse_add(mul(X, Y), {(0, 0, 1): QLaurent.of(-1)})

    def test_already_ordered(self):
        assert mul(X, X) == {(2, 0, 0): ONE}

    def test_zx(self):
        assert mul(Z, X) == sparse_add(mul(X, Z), {(1, 0, 0): QLaurent.of(2)})

    def test_zy(self):
        assert mul(Z, Y) == sparse_add(mul(Y, Z), {(0, 1, 0): QLaurent.of(-2)})

    def test_defining_brackets(self):
        bracket = homcore.commutator(actions.u_carrier(1)).mul
        ids = homcore.REGISTRY.ids
        X_, Y_, Z_ = (ids(gen) for gen in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert homcore.unflatten(bracket(X_, Y_)) == Z
        assert homcore.unflatten(bracket(X_, Z_)) == {(1, 0, 0): QLaurent.of(-2)}
        assert homcore.unflatten(bracket(Y_, Z_)) == {(0, 1, 0): QLaurent.of(2)}


class TestScalars:
    @pytest.mark.parametrize("n", [-1, -2, 1.0])
    def test_power_rejects_negative_or_non_int(self, n):
        # the text form takes only a non-negative int power of a generator
        with pytest.raises(ValueError):
            UElem.parse(f"X^{n}")


class TestComultiplication:
    def test_unit_is_grouplike(self):
        assert comul((0, 0, 0)) == {((0, 0, 0), (0, 0, 0)): ONE}

    def test_xy(self):
        expected = {
            ((1, 1, 0), (0, 0, 0)): ONE,
            ((0, 0, 0), (1, 1, 0)): ONE,
            ((1, 0, 0), (0, 1, 0)): ONE,
            ((0, 1, 0), (1, 0, 0)): ONE,
        }
        assert comul((1, 1, 0)) == expected

    def test_x_squared(self):
        expected = {
            ((2, 0, 0), (0, 0, 0)): ONE,
            ((1, 0, 0), (1, 0, 0)): QLaurent.of(2),
            ((0, 0, 0), (2, 0, 0)): ONE,
        }
        assert comul((2, 0, 0)) == expected

    def test_algebra_morphism(self):
        # Delta(uv) = Delta(u) Delta(v): the product on U x U runs through the
        # PBW product table actions.pbw_mul, independent of the closed-form
        # coproduct
        assert homcore.check_comul_morphism(actions.u_carrier(2)).passed

    def test_coassociativity(self):
        # (Delta x Id) Delta = (Id x Delta) Delta, flattened to triples
        for mono in UElem.basis_keys(3):
            t = comul(mono)
            left = {}
            right = {}
            for (m1, m2), c in t.items():
                for (a, b), c2 in comul(m1).items():
                    add_term(left, (a, b, m2), c * c2)
                for (a, b), c2 in comul(m2).items():
                    add_term(right, (m1, a, b), c * c2)
            assert left == right, mono


    def test_matches_the_shuffle_oracle(self):
        # every PBW monomial of degree <= 4 against Delta of its word by shuffles
        C = actions.u_carrier(4)
        for k in C.basis:
            mono = homcore.REGISTRY.keys[k]
            assert homcore.unflatten(C.comul(k)) == free_oracle.comul(pbw_word(mono)), mono


Q_EXAMPLE = tuple(map(UElem.parse, actions.SL2_Q["beta_H"]))


class TestEndomorphisms:
    def test_q_example_is_lie_endo(self):
        assert bracket_report(Q_EXAMPLE).passed

    def test_identity_is_lie_endo(self):
        assert bracket_report((X, Y, Z)).passed

    def test_swap_fails_on_xy_pair(self):
        report = bracket_report((Y, X, Z))
        assert report.checked == 9
        assert [ce.rendered_inputs for ce in report.counterexamples] == [
            ("X", "Y"), ("X", "Z"), ("Y", "X"), ("Y", "Z"), ("Z", "X"), ("Z", "Y"),
        ]
        first = report.counterexamples[0]
        assert (first.lhs, first.rhs) == ("Z", "-Z")

    def test_extend_rejects_non_lie_endo(self):
        message = "not a Lie algebra endomorphism; fails on pairs (X, Y), (X, Z), (Y, X)"
        with pytest.raises(ValueError, match=re.escape(message)):
            actions.extend_lie_endo((Y, X, Z))

    def test_extend_checks_the_table_it_returns(self, monkeypatch):
        built = []
        endo_map = actions.endo_map

        def counted(*args):
            built.append(endo_map(*args))
            return built[-1]

        monkeypatch.setattr(actions, "endo_map", counted)
        table = actions.extend_lie_endo(Q_EXAMPLE)
        assert built == [table]
        # the check filled the images of the three generators
        assert table.cache_info().currsize == 3

    def test_images_must_be_in_lie_span(self):
        with pytest.raises(ValueError, match=re.escape("image of X must lie in span{X, Y, Z}")):
            actions.extend_lie_endo((mul(X, X), Y, Z))

    def test_q_example_acts_by_weight(self):
        handle = actions.read_pair(actions.SL2_Q)[0]
        for mono in UElem.basis_keys(3):
            a, b, _ = mono
            assert apply(handle, {mono: ONE}) == {mono: QLaurent.q_power(a - b)}


class TestEnumeration:
    def test_bound_zero(self):
        assert UElem.basis_keys(0) == [(0, 0, 0)]

    def test_bound_one(self):
        assert UElem.basis_keys(1) == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]

    @pytest.mark.parametrize("bound,count", [(2, 10), (3, 20), (4, 35)])
    def test_counts(self, bound, count):
        assert len(UElem.basis_keys(bound)) == count


class TestTextForm:
    def test_render_mono(self):
        assert UElem.render_key((0, 0, 0)) == "1"
        assert UElem.render_key((2, 1, 0)) == "X^2 Y"

    @pytest.mark.parametrize(
        "text",
        ["0", "1", "X", "X^2 Y Z", "q^2*X Y + Z^2", "X - Y", "2*Z"],
    )
    def test_roundtrip(self, text):
        u = UElem.parse(text)
        assert UElem.parse(UElem.render(u)) == u

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("(q + 1)*X", {(1, 0, 0): Q + ONE}),
            ("(q^-1) Y Z", {(0, 1, 1): QLaurent.q_power(-1)}),
            ("2 (q) X", {(1, 0, 0): 2 * Q}),
            ("1 X + 3 (1)", {(1, 0, 0): ONE, (0, 0, 0): QLaurent.of(3)}),
        ],
    )
    def test_parenthesised_coefficients(self, text, expected):
        assert UElem.parse(text) == expected

    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError):
            UElem.parse("Y X")
