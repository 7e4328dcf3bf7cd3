"""Integration tests for the three case-study applications."""

import pytest

from repro.apps import build_app
from repro.core import BaselineRuntime, BeldiConfig, BeldiRuntime
from repro.core.baseline import BaselineContext
from repro.core.context import BeldiContext
from repro.sim import RandomSource


def beldi_runtime(seed=1):
    return BeldiRuntime(seed=seed, config=BeldiConfig(
        ic_restart_delay=50.0, gc_t=1e12, lock_retry_backoff=5.0))


class TestTravelApp:
    @pytest.fixture
    def installed(self):
        runtime = beldi_runtime()
        app = build_app("travel", seed=2, n_hotels=10, n_flights=10,
                        rooms_per_hotel=5, seats_per_flight=5, n_users=5)
        app.install(runtime)
        yield runtime, app
        runtime.kernel.shutdown()

    def test_registers_ten_ssfs(self, installed):
        runtime, app = installed
        assert len(app.envs) == app.ssf_count == 10

    def test_search_returns_ranked_hotels(self, installed):
        runtime, app = installed
        result = runtime.run_workflow(
            "frontend", {"action": "search", "cell": 3})
        assert 1 <= len(result["hotels"]) <= 5
        assert all(h["cell"] == 3 for h in result["hotels"])

    def test_recommend_by_each_criterion(self, installed):
        runtime, app = installed
        for criterion in ("price", "distance", "rate"):
            result = runtime.run_workflow(
                "frontend", {"action": "recommend", "by": criterion})
            assert result["by"] == criterion
            assert len(result["recommended"]) == 5

    def test_login_success_and_failure(self, installed):
        runtime, app = installed
        good = runtime.run_workflow("frontend", {
            "action": "login", "username": "user-0001",
            "password": "pw-0001"})
        assert good["ok"] is True
        bad = runtime.run_workflow("frontend", {
            "action": "login", "username": "user-0001",
            "password": "wrong"})
        assert bad["ok"] is False

    def test_reserve_decrements_both_inventories(self, installed):
        runtime, app = installed
        result = runtime.run_workflow("frontend", {
            "action": "reserve", "user": "user-0000",
            "hotel": "hotel-0003", "flight": "flight-0004"})
        assert result["ok"] is True
        hotel = app.envs["reserve_hotel"].peek("inventory", "hotel-0003")
        flight = app.envs["reserve_flight"].peek("seats", "flight-0004")
        assert hotel == {"available": 4}
        assert flight == {"available": 4}

    def test_reserve_atomic_when_flight_sold_out(self, installed):
        runtime, app = installed
        # Exhaust flight-0000's 5 seats against distinct hotels.
        for i in range(5):
            result = runtime.run_workflow("frontend", {
                "action": "reserve", "user": "user-0000",
                "hotel": f"hotel-{i:04d}", "flight": "flight-0000"})
            assert result["ok"] is True
        result = runtime.run_workflow("frontend", {
            "action": "reserve", "user": "user-0000",
            "hotel": "hotel-0009", "flight": "flight-0000"})
        assert result["ok"] is False
        # The hotel must not have lost a room to the failed booking.
        hotel = app.envs["reserve_hotel"].peek("inventory", "hotel-0009")
        assert hotel == {"available": 5}

    def test_capacity_invariant_under_concurrent_reservations(self):
        runtime = beldi_runtime(seed=5)
        app = build_app("travel", seed=5, n_hotels=3, n_flights=3,
                        rooms_per_hotel=2, seats_per_flight=2)
        app.install(runtime)
        outcomes = []
        rand = RandomSource(8)
        for i in range(8):
            payload = {"action": "reserve", "user": "user-0000",
                       "hotel": f"hotel-{rand.randint(0, 2):04d}",
                       "flight": f"flight-{rand.randint(0, 2):04d}"}
            runtime.kernel.spawn(
                lambda p=payload: outcomes.append(
                    runtime.client_call("frontend", p)),
                delay=float(i) * 2.0)
        runtime.kernel.run()
        rooms, seats = app.capacity_remaining()
        committed = sum(1 for o in outcomes if o["ok"])
        assert rooms == 3 * 2 - committed
        assert seats == 3 * 2 - committed
        runtime.kernel.shutdown()

    def test_sample_requests_well_formed(self, installed):
        runtime, app = installed
        rand = RandomSource(3)
        actions = set()
        for _ in range(200):
            payload = app.sample_request(rand)
            actions.add(payload["action"])
        assert actions == {"search", "recommend", "login", "reserve"}

    def test_runs_on_baseline_runtime(self):
        runtime = BaselineRuntime(seed=2)
        app = build_app("travel", seed=2, n_hotels=5, n_flights=5)
        app.install(runtime)
        result = runtime.run_workflow(
            "frontend", {"action": "search", "cell": 1})
        assert "hotels" in result
        result = runtime.run_workflow("frontend", {
            "action": "reserve", "user": "user-0000",
            "hotel": "hotel-0001", "flight": "flight-0001"})
        assert result["ok"] is True
        runtime.kernel.shutdown()

    def test_nontransactional_configuration(self):
        runtime = beldi_runtime(seed=3)
        app = build_app("travel", seed=3, n_hotels=5, n_flights=5,
                        transactional=False)
        app.install(runtime)
        result = runtime.run_workflow("frontend", {
            "action": "reserve", "user": "user-0000",
            "hotel": "hotel-0001", "flight": "flight-0001"})
        assert result["ok"] is True
        assert app.envs["reserve_hotel"].peek(
            "inventory", "hotel-0001") == {"available": 999}
        runtime.kernel.shutdown()


class TestMovieApp:
    @pytest.fixture
    def installed(self):
        runtime = beldi_runtime(seed=7)
        app = build_app("movie", seed=7, n_movies=10, n_users=5)
        app.install(runtime)
        yield runtime, app
        runtime.kernel.shutdown()

    def test_registers_thirteen_ssfs(self, installed):
        runtime, app = installed
        assert len(app.envs) == app.ssf_count == 13

    def test_movie_page_has_all_sections(self, installed):
        runtime, app = installed
        result = runtime.run_workflow(
            "frontend", {"action": "page", "title": "Title 3"})
        assert result["ok"] is True
        page = result["page"]
        assert page["info"]["title"] == "Title 3"
        assert len(page["cast"]) == 3
        assert "Plot of Title 3" in page["plot"]
        assert page["reviews"] == []

    def test_compose_then_read_review(self, installed):
        runtime, app = installed
        composed = runtime.run_workflow("frontend", {
            "action": "compose", "username": "user-0002",
            "title": "Title 4", "text": "a   fine    movie",
            "rating": 9})
        assert composed["ok"] is True
        result = runtime.run_workflow(
            "frontend", {"action": "page", "title": "Title 4"})
        reviews = result["page"]["reviews"]
        assert len(reviews) == 1
        assert reviews[0]["rating"] == 9
        assert reviews[0]["text"] == "a fine movie"  # text SSF cleaned it

    def test_unknown_title_rejected(self, installed):
        runtime, app = installed
        result = runtime.run_workflow(
            "frontend", {"action": "page", "title": "No Such Movie"})
        assert result["ok"] is False

    def test_reviews_accumulate_per_movie(self, installed):
        runtime, app = installed
        for i in range(3):
            runtime.run_workflow("frontend", {
                "action": "compose", "username": f"user-000{i}",
                "title": "Title 1", "text": f"review {i}", "rating": i + 1})
        result = runtime.run_workflow(
            "frontend", {"action": "page", "title": "Title 1"})
        assert len(result["page"]["reviews"]) == 3

    def test_user_review_index_grows(self, installed):
        runtime, app = installed
        runtime.run_workflow("frontend", {
            "action": "compose", "username": "user-0001",
            "title": "Title 2", "text": "one", "rating": 5})
        runtime.run_workflow("frontend", {
            "action": "compose", "username": "user-0001",
            "title": "Title 3", "text": "two", "rating": 6})
        by_user = app.envs["user_review"].peek("by_user", "uid-0001")
        assert len(by_user) == 2

    def test_sample_requests_well_formed(self, installed):
        runtime, app = installed
        rand = RandomSource(4)
        actions = {app.sample_request(rand)["action"]
                   for _ in range(100)}
        assert actions == {"page", "compose", "login"}


class TestSocialApp:
    @pytest.fixture
    def installed(self):
        runtime = beldi_runtime(seed=8)
        app = build_app("social", seed=8, n_users=6,
                        followers_per_user=3)
        app.install(runtime)
        yield runtime, app
        runtime.kernel.shutdown()

    def test_registers_thirteen_ssfs(self, installed):
        runtime, app = installed
        assert len(app.envs) == app.ssf_count == 13

    def test_compose_post_processes_text(self, installed):
        runtime, app = installed
        result = runtime.run_workflow("frontend", {
            "action": "compose", "username": "user-0001",
            "text": "hi @user-0002 read https://x.io/a"})
        assert result["ok"] is True
        post = app.envs["post_storage"].peek("posts", result["post_id"])
        assert post["mentions"][0]["user_id"] == "uid-0002"
        assert len(post["urls"]) == 1
        assert post["urls"][0].startswith("http://sn.io/")
        assert "<url>" in post["text"]

    def test_post_lands_on_author_timeline(self, installed):
        runtime, app = installed
        result = runtime.run_workflow("frontend", {
            "action": "compose", "username": "user-0001",
            "text": "plain post"})
        timeline = runtime.run_workflow("frontend", {
            "action": "user", "user_id": "uid-0001"})
        assert [p["post_id"] for p in timeline] == [result["post_id"]]

    def test_fanout_reaches_followers(self, installed):
        runtime, app = installed
        result = runtime.run_workflow("frontend", {
            "action": "compose", "username": "user-0000",
            "text": "fan out!"})
        assert result["fanout"] == 3
        runtime.kernel.run()  # drain async home-timeline appends
        followers = app.envs["social_graph"].peek("followers", "uid-0000")
        for follower in followers:
            home = runtime.run_workflow("frontend", {
                "action": "home", "user_id": follower})
            assert result["post_id"] in [p["post_id"] for p in home]

    def test_follow_updates_graph(self, installed):
        runtime, app = installed
        before = app.envs["social_graph"].peek("followers", "uid-0003")
        runtime.run_workflow("frontend", {
            "action": "follow", "user_id": "uid-0001",
            "target": "uid-0003"})
        after = app.envs["social_graph"].peek("followers", "uid-0003")
        assert set(after) >= set(before)
        assert "uid-0001" in after

    def test_home_timeline_empty_for_unfollowed(self, installed):
        runtime, app = installed
        home = runtime.run_workflow("frontend", {
            "action": "home", "user_id": "uid-0005"})
        assert home == []

    def test_sample_requests_well_formed(self, installed):
        runtime, app = installed
        rand = RandomSource(5)
        actions = {app.sample_request(rand)["action"]
                   for _ in range(100)}
        assert actions == {"home", "user", "compose"}


class TestAppFactory:
    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            build_app("nope")

    def test_mixes_sum_to_one(self):
        for name in ("movie", "travel", "social"):
            app = build_app(name)
            assert sum(app.describe_mix().values()) == pytest.approx(1.0)


def _per_key_loop(ctx, table, keys):
    """What every ``read_many`` call site was before there was one."""
    return [ctx.read_eventual(table, key) for key in keys]


class TestReadMany:
    """``ctx.read_many`` answers exactly what the per-key loop it
    replaced answered, on every app and on both runtimes."""

    SCRIPTS = {
        "travel": [
            {"action": "search", "cell": 3},
            {"action": "recommend", "by": "price"},
            {"action": "search", "cell": 7},
        ],
        "movie": [
            {"action": "compose", "username": "user-0001",
             "title": "Title 1", "text": "first  review", "rating": 7},
            {"action": "compose", "username": "user-0002",
             "title": "Title 1", "text": "second review", "rating": 3},
            {"action": "page", "title": "Title 1"},
        ],
        "social": [
            {"action": "compose", "username": "user-0001",
             "text": "one @user-0002"},
            {"action": "compose", "username": "user-0001",
             "text": "two https://x.io/a"},
            {"action": "user", "user_id": "uid-0001"},
        ],
    }

    @staticmethod
    def _responses(app_name, runtime) -> bytes:
        import json
        app = build_app(app_name, seed=4)
        app.install(runtime)
        responses = [runtime.run_workflow("frontend", dict(payload))
                     for payload in TestReadMany.SCRIPTS[app_name]]
        runtime.kernel.shutdown()
        assert responses[-1], "the script's last request reads rows back"
        return json.dumps(responses, sort_keys=True).encode()

    @pytest.mark.parametrize("app_name", sorted(SCRIPTS))
    @pytest.mark.parametrize("context, build", [
        (BeldiContext, lambda: beldi_runtime(seed=6)),
        (BaselineContext, lambda: BaselineRuntime(seed=6))],
        ids=["beldi", "baseline"])
    def test_same_bytes_as_the_per_key_loop(self, app_name, context,
                                            build, monkeypatch):
        batched = self._responses(app_name, build())
        monkeypatch.setattr(context, "read_many", _per_key_loop)
        assert self._responses(app_name, build()) == batched
