import importlib.util
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from reference import (
    joint_prob,
    make_cancer,
    reference_half_repeated,
    reference_lr_repeated,
    reference_lr_side,
    reference_product,
)

from bnmia import model
from bnmia.model import attribute_marginals, output_marginal_law, sample, validate
from bnmia.populations import (
    LEFT,
    RIGHT,
    TOY_PARAM_RANGE,
    is_toy,
    load_benchmark,
    make_half_repeated,
    make_lr_repeated,
    make_lr_side,
    make_product,
    midpoint,
    resolve_network,
)


class TestProduct:
    def test_single_fair_coin(self):
        bn = make_product((0.5,))
        assert validate(bn) == []
        np.testing.assert_allclose(attribute_marginals(output_marginal_law(bn)), [0.5])

    def test_joint_of_ones(self):
        bn = make_product((0.3, 0.7))
        assert joint_prob(bn, {"X1": 1, "X2": 1}) == pytest.approx(0.21)

    def test_marginals_equal_p_exactly(self):
        p = (0.2, 0.35, 0.5, 0.65, 0.8)
        np.testing.assert_allclose(
            attribute_marginals(output_marginal_law(make_product(p))), p, atol=1e-15
        )

    def test_ten_node_uniform(self):
        bn = make_product((0.5,) * 10)
        assert len(bn.nodes) == 10 and bn.d == 10

    def test_rejects_boundary_p(self):
        with pytest.raises(ValueError, match="inside"):
            make_product((0.5, 1.0))
        with pytest.raises(ValueError):
            make_product(())


class TestHalfRepeated:
    def test_structure_d5(self):
        bn = make_half_repeated(5, (0.4, 0.5, 0.6))
        assert validate(bn) == []
        x = sample(bn, 100, np.random.default_rng(0))
        assert (x[:, 3] == x[:, 2]).all() and (x[:, 4] == x[:, 2]).all()

    def test_support_and_marginals_d5(self):
        bn = make_half_repeated(5, (0.5, 0.5, 0.5))
        law = output_marginal_law(bn)
        assert len(law) == 8
        np.testing.assert_allclose(
            attribute_marginals(output_marginal_law(bn)), [0.5] * 5, atol=1e-15
        )

    def test_d25_dimension(self):
        bn = make_half_repeated(25, (0.5,) * 13)
        assert bn.d == 25

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="need 3"):
            make_half_repeated(5, (0.5, 0.5))


class TestLrRepeated:
    def test_structure_d4(self):
        bn = make_lr_repeated(4, (0.3, 0.5, 0.7), (0.4, 0.6, 0.2))
        assert validate(bn) == []
        assert "side" not in bn.output_nodes
        x = sample(bn, 300, np.random.default_rng(1))
        col = {name: i for i, name in enumerate(bn.node_names)}
        right = x[:, col["side"]] == 0
        assert (x[right, col["X4"]] == x[right, col["X3"]]).all()
        assert (x[~right, col["X1"]] == x[~right, col["X2"]]).all()

    def test_mixture_marginals(self):
        p_r, p_l = (0.3, 0.5, 0.7), (0.4, 0.6, 0.2)
        bn = make_lr_repeated(4, p_r, p_l)
        mu = attribute_marginals(output_marginal_law(bn))
        mu_r = attribute_marginals(output_marginal_law(make_lr_side(4, p_r, RIGHT)))
        mu_l = attribute_marginals(output_marginal_law(make_lr_side(4, p_l, LEFT)))
        np.testing.assert_allclose(mu, 0.5 * mu_r + 0.5 * mu_l, atol=1e-12)

    def test_side_nets_match_mixture_components(self):
        d = 6
        m = midpoint(d)
        right = make_lr_side(d, (0.3, 0.4, 0.5, 0.6), RIGHT)
        rng = np.random.default_rng(5)
        x = sample(right, 100, rng)
        col = {name: i for i, name in enumerate(right.node_names)}
        for j in range(m, d):
            assert (x[:, col[f"X{j + 1}"]] == x[:, col[f"X{m}"]]).all()
        left = make_lr_side(d, (0.3, 0.4, 0.5, 0.6), LEFT)
        x = sample(left, 100, rng)
        col = {name: i for i, name in enumerate(left.node_names)}
        for j in range(1, m - 1):
            assert (x[:, col[f"X{j + 1}"]] == x[:, col["X1"]]).all()

    def test_right_side_law_matches_half_repeated(self):
        # the fixed-right-side population is distributionally the
        # half-repeated population with the same parameters
        p = (0.3, 0.45, 0.6, 0.7)
        side = output_marginal_law(make_lr_side(6, p, RIGHT))
        half = output_marginal_law(make_half_repeated(6, p))
        np.testing.assert_array_equal(side.vectors, half.vectors)
        np.testing.assert_array_equal(side.probs, half.probs)

    def test_mixture_conditioned_on_right_matches_half_repeated(self):
        from bnmia.model import enumerate_full_records, encode

        p_r, p_l = (0.3, 0.45, 0.6, 0.7), (0.25, 0.5, 0.65, 0.8)
        mix = make_lr_repeated(6, p_r, p_l)
        cond = {}
        for rec, prob in enumerate_full_records(mix):
            if rec["side"] == 0:
                vec = tuple(encode(mix, [[rec[v] for v in mix.output_nodes]])[0].tolist())
                cond[vec] = cond.get(vec, 0.0) + prob
        total = sum(cond.values())
        half = output_marginal_law(make_half_repeated(6, p_r))
        for vec, prob in zip(map(tuple, half.vectors.tolist()), half.probs):
            assert cond[vec] / total == pytest.approx(prob, abs=1e-12)

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError, match="even"):
            make_lr_repeated(5, (0.5,) * 3, (0.5,) * 3)

    @pytest.mark.parametrize("d", (0, -2))
    def test_no_attributes_rejected(self, d):
        # Every parameter count matches at d = -2, so only the size check
        # stands between it and a network of the coin alone.
        with pytest.raises(ValueError, match="positive"):
            make_lr_repeated(d, (0.5,) * midpoint(d), (0.5,) * (d - midpoint(d) + 2))
        with pytest.raises(ValueError, match="positive"):
            make_lr_side(d, (0.5,) * midpoint(d), RIGHT)
        with pytest.raises(ValueError, match="positive"):
            make_half_repeated(d, (0.5,) * midpoint(d))
        with pytest.raises(ValueError, match="positive"):
            resolve_network(f"lr:{d}", np.random.default_rng(0))

    def test_parameter_counts(self):
        with pytest.raises(ValueError, match="right-side"):
            make_lr_repeated(4, (0.5,), (0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="left-side"):
            make_lr_repeated(4, (0.5, 0.5, 0.5), (0.5,))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: make_lr_side(5, (0.5,) * 3, RIGHT), "^d must be even$"),
            (lambda: make_lr_side(4, (0.5,) * 3, "up"), "^side must be 'left' or 'right'$"),
            (lambda: make_lr_side(4, (0.5,) * 2, LEFT), "^need 3 left-side parameters, got 2$"),
            (lambda: make_lr_side(4, (0.5, 1.0, 0.5), RIGHT), "strictly inside"),
            (lambda: make_lr_repeated(4, (0.5,) * 3, (0.0, 0.5, 0.5)), "strictly inside"),
            (lambda: make_half_repeated(4, (0.5, 0.5, -0.1)), "strictly inside"),
            (lambda: make_product((0.5, 0.5, 0.5, 1.5)), "strictly inside"),
        ],
        ids=["odd-d", "side", "count", "side-p", "lr-p", "half-p", "product-p"],
    )
    def test_each_constructor_checks_its_parameters(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestCopyLayout:
    """Every toy constructor builds the nodes the hand-written ones build,
    and the hidden-coin mixture is the two sides half and half."""

    @staticmethod
    def assert_same_network(got, expected):
        assert (got.output_nodes, got.encoding) == (expected.output_nodes, expected.encoding)
        assert got.nodes == expected.nodes
        for node, ref in zip(got.nodes, expected.nodes):
            assert list(node.cpt.items()) == list(ref.cpt.items())  # row order too

    @pytest.mark.parametrize("d", range(1, 13))
    def test_product_and_half_equal_the_reference(self, d):
        rng = np.random.default_rng(100 + d)
        p = tuple(rng.uniform(0.2, 0.8, size=d))
        self.assert_same_network(make_product(p), reference_product(p))
        p = tuple(rng.uniform(0.2, 0.8, size=midpoint(d)))
        self.assert_same_network(make_half_repeated(d, p), reference_half_repeated(d, p))

    @pytest.mark.parametrize("d", range(2, 13, 2))
    def test_lr_equal_the_reference(self, d):
        rng = np.random.default_rng(200 + d)
        p_r = tuple(rng.uniform(0.2, 0.8, size=midpoint(d)))
        p_l = tuple(rng.uniform(0.2, 0.8, size=d - midpoint(d) + 2))
        self.assert_same_network(make_lr_side(d, p_r, RIGHT), reference_lr_side(d, p_r, RIGHT))
        self.assert_same_network(make_lr_side(d, p_l, LEFT), reference_lr_side(d, p_l, LEFT))
        self.assert_same_network(
            make_lr_repeated(d, p_r, p_l), reference_lr_repeated(d, p_r, p_l)
        )

    @staticmethod
    def assert_resolver_draws(name, build, sizes):
        # The resolver draws from TOY_PARAM_RANGE with these sizes in this
        # order and nothing more: every seeded toy CSV and suite reads them.
        rng, expected = np.random.default_rng(7), np.random.default_rng(7)
        got = resolve_network(name, rng)
        drawn = [tuple(expected.uniform(*TOY_PARAM_RANGE, size=size)) for size in sizes]
        TestCopyLayout.assert_same_network(got, build(*drawn))
        assert rng.random() == expected.random()

    @pytest.mark.parametrize("d", range(1, 25))
    def test_resolver_draws_product_and_half(self, d):
        self.assert_resolver_draws(f"product:{d}", make_product, [d])
        self.assert_resolver_draws(
            f"half:{d}", lambda p: make_half_repeated(d, p), [midpoint(d)]
        )

    @pytest.mark.parametrize("d", range(2, 25, 2))
    def test_resolver_draws_lr_right_before_left(self, d):
        self.assert_resolver_draws(
            f"lr:{d}", lambda p_r, p_l: make_lr_repeated(d, p_r, p_l),
            [midpoint(d), d - midpoint(d) + 2],
        )

    @pytest.mark.parametrize("d", range(2, 13, 2))
    def test_lr_law_is_half_of_each_side(self, d):
        rng = np.random.default_rng(300 + d)
        p_r = tuple(rng.uniform(0.2, 0.8, size=midpoint(d)))
        p_l = tuple(rng.uniform(0.2, 0.8, size=d - midpoint(d) + 2))
        expected = {}
        for bn in (make_lr_side(d, p_r, RIGHT), make_lr_side(d, p_l, LEFT)):
            law = output_marginal_law(bn)
            for vec, prob in zip(map(tuple, law.vectors.tolist()), law.probs):
                expected[vec] = expected.get(vec, 0.0) + 0.5 * prob
        mix = output_marginal_law(make_lr_repeated(d, p_r, p_l))
        assert [tuple(v) for v in mix.vectors.tolist()] == sorted(expected)
        probs = [expected[v] for v in sorted(expected)]
        np.testing.assert_allclose(mix.probs, probs, rtol=0, atol=1e-15)


class TestCancer:
    def test_cpt_values(self):
        bn = make_cancer()
        cancer = bn.node("Cancer")
        assert cancer.cpt[(0, 0)][0] == 0.03  # low pollution, smoker
        xray = bn.node("Xray")
        assert xray.cpt[(1,)][0] == 0.2  # no cancer -> positive x-ray
        assert bn.d == 10

    def test_first_state_chain_product(self):
        bn = make_cancer()
        rec = {name: 0 for name in bn.node_names}
        expected = 0.9 * 0.3 * 0.03 * 0.9 * 0.65
        assert joint_prob(bn, rec) == pytest.approx(expected, abs=1e-15)

    def test_matches_bundled_files(self):
        import itertools

        bundled = load_benchmark("cancer")
        built = make_cancer()
        for bits in itertools.product(range(2), repeat=5):
            rec = dict(zip(built.node_names, bits))
            assert joint_prob(bundled, rec) == pytest.approx(
                joint_prob(built, rec), abs=1e-12
            )


class NoStream:
    """A population stream that no draw may read."""

    def uniform(self, *args, **kwargs):
        raise AssertionError("the population stream was read")


class TestBenchmarks:
    def test_sachs_variants(self):
        bn = load_benchmark("sachs:path-left")
        assert bn.output_nodes == ("PKC", "Raf", "Mek", "Erk", "Akt")
        assert bn.d == 15
        assert validate(bn) == []

    def test_only_toy_names_read_the_stream(self):
        assert [is_toy(name) for name in ("product:3", "half:5", "lr:6")] == [True] * 3
        assert not any(is_toy(name) for name in ("cancer", "sachs:leaves", "net.bif", "lr.sexp"))
        assert resolve_network("sachs:leaves", NoStream()).d == 12

    def test_sachs_standin_script_rebuilds_the_bundled_file(self):
        script = Path(__file__).parents[1] / "scripts" / "make_sachs_standin.py"
        spec = importlib.util.spec_from_file_location("make_sachs_standin", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        bundled = resources.files("bnmia.data").joinpath("sachs.bif").read_bytes()
        assert module.sachs_text().encode("utf-8") == bundled

    def test_unknown_names(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            load_benchmark("nonesuch")
        with pytest.raises(ValueError, match="unknown benchmark variant"):
            load_benchmark("asia:leaves")


class TestResolveNetwork:
    @pytest.mark.parametrize(
        "name, outputs, encoding, message",
        [
            ("asia", ("nope",), None, "output node nope is not declared"),
            ("product:3", ("X1", "X1"), None, "output node X1 listed twice"),
            ("sachs:leaves", None, model.RAW_BINARY,
             "raw-binary encoding requires binary nodes: Akt; "
             "raw-binary encoding requires binary nodes: Jnk; "
             "raw-binary encoding requires binary nodes: P38; "
             "raw-binary encoding requires binary nodes: PIP2"),
        ],
    )
    def test_invalid_network_raises_with_every_problem(self, name, outputs, encoding, message):
        with pytest.raises(model.InvalidNetworkError) as excinfo:
            resolve_network(name, np.random.default_rng(0), outputs, encoding)
        assert str(excinfo.value) == message
        assert isinstance(excinfo.value, ValueError)

    @pytest.mark.parametrize(
        "name", ["product:abc", "product:-1", "product:0", "product:2.5", "product: 3",
                 "half:0", "half:x", "lr:3", "lr:0", "lr:-2"],
    )
    def test_bad_toy_size_names_the_population_before_any_draw(self, name):
        size = "a positive even integer" if name.startswith("lr:") else "a positive integer"
        with pytest.raises(ValueError) as excinfo:
            resolve_network(name, NoStream())
        assert str(excinfo.value) == f"population {name!r}: the size must be {size}"

    def test_file_of_any_name_is_read(self, tmp_path):
        from importlib import resources

        path = tmp_path / "cancer.net"
        path.write_text(
            resources.files("bnmia.data").joinpath("cancer.sexp").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        bn = resolve_network(str(path), None)
        assert bn.nodes == make_cancer().nodes and bn.d == 10
