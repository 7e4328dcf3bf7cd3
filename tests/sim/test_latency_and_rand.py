"""Unit tests for latency models and seeded randomness."""

import math

import pytest

from repro.sim import LatencyModel, LatencySpec, RandomSource, \
    lognormal_from_median
from repro.sim.latency import DEFAULT_SPECS


class TestLognormalCalibration:
    def test_median_recovered(self):
        mu, sigma = lognormal_from_median(10.0, 40.0)
        assert math.exp(mu) == pytest.approx(10.0)
        assert sigma > 0

    def test_degenerate_distribution(self):
        mu, sigma = lognormal_from_median(5.0, 5.0)
        assert sigma == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            lognormal_from_median(0.0, 1.0)
        with pytest.raises(ValueError):
            lognormal_from_median(10.0, 5.0)

    def test_sampled_median_close_to_spec(self):
        rand = RandomSource(1)
        model = LatencyModel(rand, specs={
            "x": LatencySpec(median=10.0, p99=40.0)})
        samples = sorted(model.sample("x") for _ in range(4001))
        assert samples[2000] == pytest.approx(10.0, rel=0.15)

    def test_p99_close_to_spec(self):
        rand = RandomSource(2)
        model = LatencyModel(rand, specs={
            "x": LatencySpec(median=10.0, p99=40.0)})
        samples = sorted(model.sample("x") for _ in range(20_000))
        p99 = samples[int(0.99 * len(samples))]
        assert p99 == pytest.approx(40.0, rel=0.25)


class TestLatencyModel:
    def test_zero_model_is_instant(self):
        model = LatencyModel.zero()
        assert model.sample("db.read") == 0.0

    def test_per_unit_cost_scales(self):
        rand = RandomSource(3)
        model = LatencyModel(rand, specs={
            "scan": LatencySpec(median=5.0, p99=5.0, per_unit=1.0)})
        assert model.sample("scan", units=10) == pytest.approx(15.0)

    def test_unknown_primitive_rejected(self):
        with pytest.raises(KeyError):
            LatencyModel.zero().sample("nope")

    def test_default_specs_cover_all_primitives(self):
        needed = {"db.read", "db.write", "db.cond_write", "db.scan",
                  "db.query", "db.txn", "db.delete", "lambda.dispatch",
                  "lambda.cold_start", "lambda.compute",
                  "lambda.async_ack"}
        assert needed <= set(DEFAULT_SPECS)

    def test_scale_multiplies(self):
        rand = RandomSource(4)
        half = LatencyModel(rand.child("a"), specs={
            "x": LatencySpec(median=10.0, p99=10.0)}, scale=0.5)
        assert half.sample("x") == pytest.approx(5.0)


class TestInlineDraw:
    """``LatencyModel.sample`` inlines ``random.lognormvariate``; it must
    draw the very stream the library call would, so a Python whose
    ``normalvariate`` changed fails here instead of moving every virtual
    number."""

    @staticmethod
    def reference(rng, spec: LatencySpec, units: float) -> float:
        """One draw the library's way, as the model drew before."""
        mu, sigma = spec.params()
        body = rng.lognormvariate(mu, sigma) if sigma else spec.median
        return body + spec.per_unit * units if units else body

    @pytest.mark.parametrize("units", [0.0, 3.0])
    def test_draws_equal_the_library_bit_for_bit(self, units):
        model_rand = RandomSource(5, "lat")
        model = LatencyModel(model_rand)
        reference = RandomSource(5, "lat").stream
        names = sorted(DEFAULT_SPECS)
        for i in range(10_000 + len(names)):
            name = names[i % len(names)]
            expected = self.reference(reference, DEFAULT_SPECS[name], units)
            assert model.sample(name, units) == expected, (i, name)
        assert model_rand.stream.getstate() == reference.getstate()


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = [RandomSource(7).random() for _ in range(5)]
        b = [RandomSource(7).random() for _ in range(5)]
        assert a == b

    def test_children_are_independent(self):
        root = RandomSource(7)
        child_a = root.child("a")
        child_b = root.child("b")
        assert [child_a.random() for _ in range(3)] != [
            child_b.random() for _ in range(3)]

    def test_child_streams_stable_under_sibling_use(self):
        root1 = RandomSource(7)
        _ = [root1.child("noise").random() for _ in range(10)]
        v1 = root1.child("target").random()
        root2 = RandomSource(7)
        v2 = root2.child("target").random()
        assert v1 == v2

    def test_uuid_unique_and_deterministic(self):
        src = RandomSource(9)
        ids = {src.uuid() for _ in range(1000)}
        assert len(ids) == 1000
        assert RandomSource(9).uuid() == RandomSource(9).uuid()

    def test_normal_index_in_bounds_and_central(self):
        src = RandomSource(11)
        draws = [src.normal_index(100) for _ in range(2000)]
        assert all(0 <= d < 100 for d in draws)
        mean = sum(draws) / len(draws)
        assert 40 <= mean <= 60  # centred mid-catalogue (§7.2)

    def test_normal_index_rejects_empty(self):
        with pytest.raises(ValueError):
            RandomSource(1).normal_index(0)

    def test_choices_respects_weights(self):
        src = RandomSource(13)
        picks = src.choices(["a", "b"], weights=[0.99, 0.01], k=500)
        assert picks.count("a") > 400
