"""Mark functions, the threshold-excess family, and config descriptors."""

import numpy as np
import pytest

from mppstat import InputError, builtin, indicator_pair, make_mark_function, threshold_family
from mppstat.markfn import resolve


class TestBuiltins:
    def test_product(self):
        assert builtin("product")(3.0, 4.0) == 12.0

    def test_first(self):
        assert builtin("first")(3.0, 4.0) == 3.0

    def test_first_squared(self):
        assert builtin("first_squared")(3.0, 4.0) == 9.0

    def test_const_one(self):
        assert builtin("const_one")(7.0, -2.0) == 1.0

    def test_unknown_name(self):
        with pytest.raises(InputError, match="unknown"):
            builtin("nope")

    def test_vectorized(self):
        y1 = np.array([1.0, 2.0, 3.0])
        y2 = np.array([4.0, 5.0, 6.0])
        assert builtin("product")(y1, y2).tolist() == [4.0, 10.0, 18.0]
        assert builtin("first")(y1, y2).tolist() == [1.0, 2.0, 3.0]


class TestThresholdFamily:
    def test_excess_and_indicator(self):
        fam = threshold_family(builtin("first"), 2.0)
        assert fam.excess(5.0) == 3.0
        assert fam.indicator(5.0) == 1.0

    def test_boundary_is_strict(self):
        fam = threshold_family(builtin("first"), 2.0)
        assert fam.excess(2.0) == 0.0
        assert fam.indicator(2.0) == 0.0

    def test_squared_base(self):
        fam = threshold_family(builtin("first_squared"), 4.0)
        assert fam.excess(3.0) == 5.0

    def test_negative_u_rejected(self):
        with pytest.raises(InputError):
            threshold_family(builtin("first"), -0.5)

    def test_pair_function_base_rejected(self):
        with pytest.raises(InputError, match="first-only"):
            threshold_family(builtin("product"), 1.0)

    def test_identity_excess_plus_u_indicator(self):
        rng = np.random.default_rng(3)
        fam = threshold_family(builtin("first"), 1.25)
        y = rng.normal(1.0, 2.0, 500)
        lhs = fam.excess(y) + fam.u * fam.indicator(y)
        rhs = y * fam.indicator(y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_indicator_idempotent(self):
        rng = np.random.default_rng(4)
        fam = threshold_family(builtin("first"), 0.5)
        ind = fam.indicator(rng.normal(size=200))
        np.testing.assert_array_equal(ind * ind, ind)

    def test_pairwise_adapters_ignore_second_mark(self):
        fam = threshold_family(builtin("first"), 1.0)
        ex = fam.excess_fn()
        assert ex(3.0, -100.0) == 2.0
        assert ex.arity == "first-only"


class TestIndicatorPair:
    def test_inside(self):
        f = indicator_pair(0.0, 1.0, 0.0, 1.0)
        assert f(0.5, 0.5) == 1.0

    def test_outside(self):
        f = indicator_pair(0.0, 1.0, 0.0, 1.0)
        assert f(2.0, 0.5) == 0.0

    def test_vacuous_condition_is_const_one(self):
        f = indicator_pair(-np.inf, np.inf, -np.inf, np.inf)
        rng = np.random.default_rng(9)
        y1, y2 = rng.normal(size=50), rng.normal(size=50)
        np.testing.assert_array_equal(f(y1, y2), np.ones(50))

    def test_inverted_interval(self):
        with pytest.raises(InputError, match="inverted"):
            indicator_pair(1.0, 0.0, 0.0, 1.0)

    def test_int_and_float_endpoints_make_one_function(self):
        assert indicator_pair(0, 1, b_hi=2).name == indicator_pair(0.0, 1.0, b_hi=2.0).name

    def test_bool_endpoint_is_input_error(self):
        with pytest.raises(InputError, match="parameter 'a_lo' must not be a bool"):
            indicator_pair(a_lo=False)


class TestNumbersFromPython:
    def test_bool_threshold_is_input_error(self):
        with pytest.raises(InputError, match="parameter 'u' must not be a bool"):
            threshold_family(builtin("first"), True)

    def test_int_threshold_is_a_float(self):
        fam = threshold_family(builtin("first"), 1)
        assert type(fam.u) is float and fam.excess_fn().name == "excess[first,u=1.0]"


class TestArity:
    def test_probe_catches_false_first_only(self):
        with pytest.raises(InputError, match="uses y2"):
            make_mark_function(lambda y1, y2: y1 + y2, "fake", arity="first-only")

    @pytest.mark.parametrize("fn", [lambda y1, y2: y1 - y1.mean(),
                                    lambda y1, y2: np.roll(y1, 1),
                                    lambda y1, y2: np.full(2, 1.0) if np.ndim(y1) else 1.0],
                             ids=["centered", "roll", "wrong_shape"])
    def test_probe_catches_first_only_that_is_not_elementwise(self, fn):
        # a first-only function is evaluated once per point on a whole
        # block's marks, so a value that reads the other entries would
        # depend on how the realizations are laid out in blocks
        with pytest.raises(InputError, match="^mark function 'fake' declared first-only "
                                             "but is not elementwise$"):
            make_mark_function(fn, "fake", arity="first-only")

    @pytest.mark.parametrize("fn", [lambda y1, y2: 2.0, lambda y1, y2: np.abs(y1) + 1.0],
                             ids=["constant", "elementwise"])
    def test_probe_accepts_elementwise_first_only(self, fn):
        assert make_mark_function(fn, "ok", arity="first-only").arity == "first-only"


class TestRegistry:
    def test_resolve_builtin(self):
        assert resolve({"name": "first"}).name == "first"

    def test_resolve_indicator(self):
        f = resolve({"name": "indicator_pair", "a_lo": 0.0, "a_hi": 1.0})
        assert f(0.5, 99.0) == 1.0
        assert f(1.5, 99.0) == 0.0

    def test_resolve_threshold_excess(self):
        f = resolve({"name": "threshold_excess", "base": "first", "u": 2.0})
        assert f(5.0, 0.0) == 3.0

    def test_unknown(self):
        with pytest.raises(InputError, match="unknown mark function"):
            resolve({"name": "definitely-not-registered"})

    @pytest.mark.parametrize("name", [["first"], {}, 3, None])
    def test_non_string_name_is_input_error(self, name):
        with pytest.raises(InputError, match="name must be a string"):
            resolve({"name": name})

    def test_builtin_rejects_params(self):
        with pytest.raises(InputError):
            resolve({"name": "first", "u": 2.0})

    @pytest.mark.parametrize("descriptor,key", [
        ({"name": "indicator_pair", "a_low": 2.0}, "a_low"),
        ({"name": "threshold_excess", "base": "first", "uu": 2.0}, "uu"),
    ])
    def test_misspelt_parameter_names_the_key(self, descriptor, key):
        with pytest.raises(InputError, match=f"unexpected keyword argument '{key}'"):
            resolve(descriptor)

    @pytest.mark.parametrize("descriptor,key", [
        ({"name": "threshold_excess", "u": True}, "u"),
        ({"name": "indicator_pair", "a_lo": False}, "a_lo"),
        ({"name": "threshold_excess", "base": True}, "base"),
    ], ids=["threshold_excess", "indicator_pair", "base"])
    def test_bool_parameter_is_input_error(self, descriptor, key):
        # JSON's true and false are not the numbers 1 and 0
        with pytest.raises(InputError, match=f"parameter '{key}' must not be a bool"):
            resolve(descriptor)

    def test_mistyped_parameter_is_input_error(self):
        with pytest.raises(InputError, match="indicator_pair"):
            resolve({"name": "indicator_pair", "a_lo": "low"})

    @pytest.mark.parametrize("descriptor", [
        {"name": "indicator_pair", "a_lo": [1, 2]},
        {"name": "threshold_excess", "u": [1, 2]},
    ], ids=["indicator_pair", "threshold_excess"])
    def test_list_valued_parameter_is_input_error(self, descriptor):
        # numpy raises ValueError on the truth value of an array
        with pytest.raises(InputError, match=descriptor["name"]):
            resolve(descriptor)
