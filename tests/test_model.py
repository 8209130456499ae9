import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import sici

from shotdeconv import model
from shotdeconv.errors import InvalidParameterError, NumericalFailure
from shotdeconv.model import (
    Exponential,
    GaussianMixture,
    ModelParams,
    PointMass,
    SmoothnessConfig,
    cf_lower_bound,
    check_smoothness,
    mark_cf_tail_energy,
    mark_sobolev_norm,
    marks_from_json,
    marks_to_json,
    normalize,
    true_shot_cf,
)
from shotdeconv.serialize import dumps_json

# Frozen oracle values, computed by independent quadrature / closed forms
# before the tests were written.
MIX_CF_07 = -0.6037365314540383 + 0.47013014711222856j
MIX_ABS_MOMENT_1 = 11.60000428715506
MIX_ABS_MOMENT_52 = 2144334.3268758254
MIX_SOBOLEV_S1 = 1.152969869733523
EXP_TAIL_ENERGY = 0.3777553198814335  # sqrt(pi/8 - 1/4)
SHOT_CF_05 = -0.02242231084475723 + 0.07025360982882199j
SHOT_CF_20 = -0.004546376084268741 + 0.011184964888782276j


class TestModelParams:
    def test_valid(self):
        p = ModelParams(100.0, 80.0, 1.25)
        assert p.lambda_norm == 100.0
        assert p.alpha_norm == 80.0
        assert p.ratio == 1.25

    def test_zero_intensity_allowed(self):
        p = ModelParams(0.0, 1.0, 0.0)
        assert p.ratio == 0.0

    def test_negative_lambda(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(-1.0, 1.0, -1.0)

    def test_zero_alpha(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(1.0, 0.0, 1.0)

    def test_inconsistent_ratio(self):
        with pytest.raises(InvalidParameterError, match="inconsistent"):
            ModelParams(100.0, 80.0, 1.3)

    def test_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(float("nan"), 1.0, 1.0)

    def test_non_number(self):
        with pytest.raises(InvalidParameterError):
            ModelParams("100", 80.0, 1.25)


class TestNormalize:
    def test_physical_rates(self):
        p = normalize(1e9, 8e8, 1e-7)
        assert p.lambda_norm == pytest.approx(100.0, rel=1e-12)
        assert p.alpha_norm == pytest.approx(80.0, rel=1e-12)
        assert p.ratio == pytest.approx(1.25, rel=1e-12)

    def test_zero_intensity(self):
        p = normalize(0.0, 1.0, 1.0)
        assert p.lambda_norm == 0.0 and p.ratio == 0.0

    def test_bad_delta(self):
        with pytest.raises(InvalidParameterError):
            normalize(1.0, 1.0, 0.0)

    def test_bad_alpha(self):
        with pytest.raises(InvalidParameterError):
            normalize(1.0, -1.0, 1.0)


class TestGaussianMixture:
    def test_cf_frozen_value(self, ref_marks):
        assert ref_marks.cf(0.7) == pytest.approx(MIX_CF_07, rel=1e-10)

    def test_cf_at_zero(self, ref_marks):
        assert ref_marks.cf(0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_cf_array_shape(self, ref_marks):
        u = np.linspace(-2, 2, 7)
        out = ref_marks.cf(u)
        assert out.shape == (7,)
        assert out[3] == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_cf_conjugate_symmetry(self, ref_marks):
        u = np.linspace(0.1, 5, 20)
        assert np.allclose(ref_marks.cf(-u), np.conj(ref_marks.cf(u)), atol=1e-14)

    def test_pdf_normalizes(self, ref_marks):
        x = np.linspace(-10, 40, 200_001)
        total = np.trapezoid(ref_marks.pdf(x), x)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_abs_moments(self, ref_marks):
        assert ref_marks.abs_moment(1.0) == pytest.approx(MIX_ABS_MOMENT_1, rel=1e-8)
        assert ref_marks.abs_moment(5.2) == pytest.approx(MIX_ABS_MOMENT_52, rel=1e-7)

    def test_sample_moments(self, ref_marks):
        rng = np.random.default_rng(7)
        draws = ref_marks.sample(rng, 200_000)
        assert draws.mean() == pytest.approx(11.6, abs=0.1)
        assert draws.var() == pytest.approx(174.45 - 11.6**2, rel=0.05)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidParameterError, match="sum to 1"):
            GaussianMixture((0.5, 0.4), (0.0, 1.0), (1.0, 1.0))

    def test_negative_weight(self):
        with pytest.raises(InvalidParameterError):
            GaussianMixture((-0.5, 1.5), (0.0, 1.0), (1.0, 1.0))

    def test_nonpositive_sd(self):
        with pytest.raises(InvalidParameterError):
            GaussianMixture((1.0,), (0.0,), (0.0,))

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError, match="length"):
            GaussianMixture((0.5, 0.5), (0.0,), (1.0, 1.0))

    def test_empty(self):
        with pytest.raises(InvalidParameterError):
            GaussianMixture((), (), ())


class _ScriptedRng:
    """Stand-in generator that returns given draws and logs each call."""

    def __init__(self, u, z):
        self.u, self.z, self.calls = u, z, []

    def random(self, size):
        self.calls.append(("random", size))
        return self.u.copy()

    def standard_normal(self, size):
        self.calls.append(("standard_normal", size))
        return self.z.copy()


class TestMixtureComponentChoice:
    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 4), min_size=1, max_size=10).filter(lambda c: sum(c) > 0),
        extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
    )
    @example(counts=[1] * 10, extra=[])  # cumulative sum 0.9999999999999999
    @example(counts=[0, 1, 0, 0, 2, 0], extra=[])
    def test_matches_capped_searchsorted(self, counts, extra):
        weights = tuple(c / sum(counts) for c in counts)
        k = len(weights)
        mixture = GaussianMixture(weights, tuple(float(i) for i in range(k)), (1.0,) * k)
        cum = np.cumsum(weights)
        # every cumulative weight, its float neighbours, both ends of [0, 1)
        edges = np.concatenate([cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf)])
        u = np.concatenate([edges[(edges >= 0.0) & (edges < 1.0)], [0.0, np.nextafter(1.0, 0.0)], extra])
        rng = _ScriptedRng(u, np.zeros(u.size))
        # with z = 0 each mark is its component's mean, which is the index
        chosen = mixture.sample(rng, u.size)
        assert rng.calls == [("random", u.size), ("standard_normal", u.size)]
        assert np.array_equal(chosen, np.minimum(np.searchsorted(cum, u, side="right"), k - 1))


class TestExponential:
    def test_cf_closed_form(self):
        marks = Exponential(2.0)
        assert marks.cf(1.0) == pytest.approx(0.8 + 0.4j, rel=1e-14)

    def test_pdf(self):
        marks = Exponential(2.0)
        assert marks.pdf(-0.5) == 0.0
        assert marks.pdf(0.0) == pytest.approx(2.0)
        assert marks.pdf(1.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)

    def test_moments(self):
        marks = Exponential(2.0)
        assert marks.abs_moment(2.0) == pytest.approx(0.5, rel=1e-14)
        assert Exponential(1.0).abs_moment(5.0) == pytest.approx(120.0, rel=1e-14)

    def test_sample(self):
        rng = np.random.default_rng(3)
        draws = Exponential(4.0).sample(rng, 100_000)
        assert np.all(draws >= 0)
        assert draws.mean() == pytest.approx(0.25, abs=0.01)

    def test_bad_rate(self):
        with pytest.raises(InvalidParameterError):
            Exponential(0.0)


class TestPointMass:
    def test_cf_is_phase(self):
        marks = PointMass(3.0)
        u = np.linspace(-4, 4, 9)
        assert np.allclose(np.abs(marks.cf(u)), 1.0, atol=1e-15)
        assert marks.cf(2.0) == pytest.approx(np.exp(6j), rel=1e-14)

    def test_pdf_raises(self):
        with pytest.raises(InvalidParameterError):
            PointMass(1.0).pdf(1.0)

    def test_moments(self):
        assert PointMass(-2.0).abs_moment(2.0) == pytest.approx(4.0)

    def test_sample(self):
        rng = np.random.default_rng(0)
        assert np.all(PointMass(5.0).sample(rng, 10) == 5.0)


class TestSmoothnessConfig:
    def test_valid(self):
        cfg = SmoothnessConfig(1.0, 120.0, 0.38, 1.0)
        assert cfg.s == 1.0 and cfg.K == 120.0

    def test_s_too_small(self):
        with pytest.raises(InvalidParameterError):
            SmoothnessConfig(0.5, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["K", "L", "m"])
    def test_positive_bounds(self, field):
        kwargs = {"s": 1.0, "K": 1.0, "L": 1.0, "m": 1.0}
        kwargs[field] = 0.0
        with pytest.raises(InvalidParameterError):
            SmoothnessConfig(**kwargs)


class TestTrueShotCf:
    def test_unit_at_zero(self, ref_params, ref_marks):
        assert true_shot_cf(ref_params, ref_marks, 0.0) == 1.0 + 0.0j

    def test_frozen_values(self, ref_params, ref_marks):
        assert true_shot_cf(ref_params, ref_marks, 0.5) == pytest.approx(SHOT_CF_05, rel=1e-6)
        assert true_shot_cf(ref_params, ref_marks, 2.0) == pytest.approx(SHOT_CF_20, rel=1e-6)

    def test_gamma_closed_form(self, gamma_params, gamma_marks):
        u = np.linspace(-50.0, 50.0, 81)
        phi = true_shot_cf(gamma_params, gamma_marks, u)
        expected = (1.0 - 1j * u) ** -2.0
        assert np.max(np.abs(phi - expected) / np.abs(expected)) < 1e-6

    def test_gamma_closed_form_fine_grid(self, gamma_params, gamma_marks):
        u = np.linspace(-50.0, 50.0, 501)
        phi = true_shot_cf(gamma_params, gamma_marks, u)
        expected = (1.0 - 1j * u) ** -2.0
        assert np.max(np.abs(phi - expected) / np.abs(expected)) < 1e-12

    @pytest.mark.parametrize("value,u", [(200.0, 2.0), (50.0, 3.0), (10.0, 7.0)])
    def test_point_mass_si_ci_closed_form(self, value, u):
        # integral of (e^{ivz} - 1)/z over [0, u] is -Cin(vu) + i Si(vu),
        # with Cin(x) = gamma + ln x - Ci(x); the integrand oscillates fast
        params = ModelParams(1.0, 1.0, 1.0)
        si, ci = sici(value * u)
        cin = np.euler_gamma + math.log(value * u) - ci
        expected = np.exp(params.ratio * (-cin + 1j * si))
        assert true_shot_cf(params, PointMass(value), u) == pytest.approx(expected, rel=1e-9)

    def test_empty_u(self, ref_params, ref_marks):
        phi = true_shot_cf(ref_params, ref_marks, np.array([]))
        assert phi.shape == (0,) and phi.dtype == complex

    def test_array_matches_scalars(self, ref_params, ref_marks):
        u = np.array([-1.0, 0.0, 0.5, 2.0])
        phi = true_shot_cf(ref_params, ref_marks, u)
        for i, uu in enumerate(u):
            assert phi[i] == pytest.approx(true_shot_cf(ref_params, ref_marks, float(uu)), rel=1e-12)

    def test_conjugate_symmetry(self, ref_params, ref_marks):
        phi_pos = true_shot_cf(ref_params, ref_marks, 1.7)
        phi_neg = true_shot_cf(ref_params, ref_marks, -1.7)
        assert phi_neg == pytest.approx(np.conj(phi_pos), rel=1e-10)

    # SHA-256 of the complex128 bytes: values at u < 0, filled by
    # conjugation, equal integrating at u itself bit for bit
    LAWS = {
        "mixture": (ModelParams(100.0, 80.0, 1.25),
                    GaussianMixture((0.3, 0.5, 0.2), (4.0, 12.0, 22.0), (1.0, 1.0, 0.5))),
        "exponential": (ModelParams(2.0, 1.0, 2.0), Exponential(1.0)),
        "point_mass": (ModelParams(0.5, 1.0, 0.5), PointMass(3.0)),
    }
    GRIDS = {
        "symmetric": np.linspace(-4.0, 4.0, 161),
        "asymmetric": np.linspace(-3.0, 7.0, 201),
        "negative": np.linspace(-5.0, -0.1, 50),
        # the lower-bound audit's default grid
        "audit": np.arange(-800, 801) * 0.01,
    }

    @pytest.mark.parametrize(
        "law, grid, digest",
        [
            ("mixture", "symmetric", "0322f94708ed85233a715af36440f38574bdfc375662e161c1ad3355f8d466ce"),
            ("mixture", "asymmetric", "7de08ad78cd8929e5cd60fb83ddab4746f70c464422ad69474995a56c6173442"),
            ("mixture", "negative", "bc964e25b5c117d3c019f37062594582216632bd5ac631f2050ccc9af1d8bfbb"),
            ("mixture", "audit", "af2a298ff76af3893c1f1c0dddda9b7dac265ce3f57d1743a695444384e5a49a"),
            ("exponential", "symmetric", "950fa141df916578b6e90f316896307bcd8fa469e893ab449dac155555e600a7"),
            ("exponential", "asymmetric", "3e8f5ec65258ae904ef224f13a634accf2fb4cc186d834292e957720cb44f5fa"),
            ("exponential", "negative", "96b7097f2543123dd6a48fb43c079294aae272a15fde6a30de32e725cd9f20ee"),
            ("exponential", "audit", "363ff1bac5bf2297182d4ce333208beb939ae2248259c3ba76472e565bf66092"),
            ("point_mass", "symmetric", "03eef7e7706107bf463dbf894e94ca76c678c1a5ff31103a8b884c0dcf830153"),
            ("point_mass", "asymmetric", "7828350f7ecb66a37d3c0c9c5324976594561192cd14f9fc6daf5f09993854b8"),
            ("point_mass", "negative", "34eef7a601254709b1906a69cc8550c66274d3ea15e193d0d77aaae8a69a53d9"),
            ("point_mass", "audit", "ebe63ea1f3687b00e67764b1d0973fb29807c3e0253b919c189e2d2548cf0951"),
        ],
    )
    def test_digest(self, law, grid, digest):
        params, marks = self.LAWS[law]
        phi = true_shot_cf(params, marks, self.GRIDS[grid])
        assert hashlib.sha256(phi.tobytes()).hexdigest() == digest

    def test_negative_u_is_exact_conjugate(self, ref_params, ref_marks):
        u = np.array([[-2.5, 0.0], [2.5, -0.0]])
        phi = true_shot_cf(ref_params, ref_marks, u)
        assert phi.shape == (2, 2)
        assert phi[0, 0] == np.conj(phi[1, 0]) and phi[0, 1] == phi[1, 1] == 1.0

    def test_zero_intensity_gives_constant_one(self):
        params = ModelParams(0.0, 1.0, 0.0)
        phi = true_shot_cf(params, Exponential(1.0), np.array([0.0, 1.0, 3.0]))
        assert np.allclose(phi, 1.0, atol=1e-14)

    def test_nonfinite_u(self, ref_params, ref_marks):
        with pytest.raises(InvalidParameterError):
            true_shot_cf(ref_params, ref_marks, float("inf"))

    def test_depth_cap_raises_with_partial(self, monkeypatch):
        # a fast-oscillating mark CF cannot converge in three subdivision levels
        monkeypatch.setattr(model, "_MAX_DEPTH", 3)
        params = ModelParams(1.0, 1.0, 1.0)
        with pytest.raises(NumericalFailure) as exc_info:
            true_shot_cf(params, PointMass(200.0), 2.0)
        assert isinstance(exc_info.value.partial, complex)


class TestCfLowerBound:
    def test_frozen_value(self):
        cfg = SmoothnessConfig(1.0, 120.0, EXP_TAIL_ENERGY, 1.0)
        params = ModelParams(2.0, 1.0, 2.0)
        # exp(-2 (L + 120^(1/5))) * (1+3)^-2, evaluated independently
        assert cf_lower_bound(cfg, params, 3.0) == pytest.approx(1.6030352134098816e-4, rel=1e-10)

    def test_decreasing_and_symmetric(self):
        cfg = SmoothnessConfig(1.0, 10.0, 1.0, 1.0)
        params = ModelParams(1.0, 1.0, 1.0)
        u = np.linspace(0.0, 10.0, 50)
        vals = cf_lower_bound(cfg, params, u)
        assert np.all(np.diff(vals) < 0)
        assert cf_lower_bound(cfg, params, -4.0) == pytest.approx(
            cf_lower_bound(cfg, params, 4.0), rel=1e-14
        )

    @pytest.mark.parametrize("u", [math.nan, math.inf, [0.0, -math.inf]])
    def test_non_finite_u_rejected(self, u):
        cfg = SmoothnessConfig(1.0, 10.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError, match="u must be finite"):
            cf_lower_bound(cfg, ModelParams(1.0, 1.0, 1.0), u)

    def test_true_cf_respects_bound_for_gamma(self, gamma_params, gamma_marks):
        cfg = SmoothnessConfig(1.0, 121.0, 0.378, 1.0)
        u = np.linspace(-8.0, 8.0, 33)
        modulus = np.abs(true_shot_cf(gamma_params, gamma_marks, u))
        assert np.all(modulus >= cf_lower_bound(cfg, gamma_params, u))


class TestSmoothnessChecks:
    def test_mixture_sobolev_frozen(self, ref_marks):
        assert mark_sobolev_norm(ref_marks, 1.0) == pytest.approx(MIX_SOBOLEV_S1, rel=1e-7)

    def test_exponential_sobolev_diverges(self):
        with pytest.raises(InvalidParameterError, match="diverges"):
            mark_sobolev_norm(Exponential(1.0), 1.0)

    def test_exponential_sobolev_small_s(self):
        value = mark_sobolev_norm(Exponential(1.0), 0.3)
        assert math.isfinite(value) and value > 0

    def test_point_mass_sobolev_diverges(self):
        with pytest.raises(InvalidParameterError):
            mark_sobolev_norm(PointMass(1.0), 1.0)

    def test_exp_tail_energy_frozen(self):
        assert mark_cf_tail_energy(Exponential(1.0)) == pytest.approx(EXP_TAIL_ENERGY, rel=1e-9)

    def test_point_mass_tail_energy_diverges(self):
        with pytest.raises(InvalidParameterError):
            mark_cf_tail_energy(PointMass(1.0))

    def test_check_smoothness_mixture(self, ref_marks):
        cfg = SmoothnessConfig(1.0, MIX_ABS_MOMENT_52 * 1.01, MIX_SOBOLEV_S1 * 1.01, 1.2)
        report = check_smoothness(ref_marks, cfg)
        assert report["admissible"] is True
        assert report["norm_kind"] == "sobolev"
        assert report["moment_value"] == pytest.approx(MIX_ABS_MOMENT_52, rel=1e-7)

    def test_check_smoothness_exponential_uses_tail(self):
        cfg = SmoothnessConfig(1.0, 121.0, 0.378, 1.0)
        report = check_smoothness(Exponential(1.0), cfg)
        assert report["norm_kind"] == "cf_tail"
        assert report["admissible"] is True

    def test_check_smoothness_rejects_small_k(self):
        cfg = SmoothnessConfig(1.0, 100.0, 0.378, 1.0)
        report = check_smoothness(Exponential(1.0), cfg)
        assert report["moment_ok"] is False
        assert report["admissible"] is False


class TestJsonSerde:
    def test_mixture_round_trip(self, ref_marks):
        obj = marks_to_json(ref_marks)
        assert obj["type"] == "gaussian_mixture"
        assert marks_from_json(obj) == ref_marks

    def test_exponential_round_trip(self):
        marks = Exponential(2.5)
        assert marks_from_json(marks_to_json(marks)) == marks

    def test_point_mass_round_trip(self):
        marks = PointMass(7.0)
        assert marks_from_json(marks_to_json(marks)) == marks

    @pytest.mark.parametrize(
        "marks, text",
        [
            (
                GaussianMixture((0.25, 0.75), (1.0, -2.5), (0.5, 2.0)),
                '{\n'
                '  "type": "gaussian_mixture",\n'
                '  "weights": [\n'
                '    0.25,\n'
                '    0.75\n'
                '  ],\n'
                '  "means": [\n'
                '    1,\n'
                '    -2.5\n'
                '  ],\n'
                '  "sds": [\n'
                '    0.5,\n'
                '    2\n'
                '  ]\n'
                '}\n',
            ),
            (Exponential(2.5), '{\n  "type": "exponential",\n  "rate": 2.5\n}\n'),
            (PointMass(7.0), '{\n  "type": "point_mass",\n  "value": 7\n}\n'),
        ],
        ids=["gaussian_mixture", "exponential", "point_mass"],
    )
    def test_json_text_golden(self, marks, text):
        assert dumps_json(marks_to_json(marks)) == text

    def test_unsupported_law_rejected(self):
        # the type name is looked up by exact class, so a subclass has none
        class Scaled(Exponential):
            pass

        with pytest.raises(InvalidParameterError, match="unsupported mark distribution Scaled"):
            marks_to_json(Scaled(1.0))

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown marks type"):
            marks_from_json({"type": "lognormal", "mu": 0.0})

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown fields"):
            marks_from_json({"type": "exponential", "rate": 1.0, "scale": 2.0})

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidParameterError, match="missing"):
            marks_from_json({"type": "exponential"})

    def test_non_dict_rejected(self):
        with pytest.raises(InvalidParameterError):
            marks_from_json(["exponential", 1.0])

    def test_non_array_weights_rejected(self):
        obj = {"type": "gaussian_mixture", "weights": 1.0, "means": [4.0], "sds": [1.0]}
        with pytest.raises(InvalidParameterError, match="^marks.weights must be an array$"):
            marks_from_json(obj)
