"""Movie review service (§7.1, Fig. 23) — 13 SSFs.

Cf. IMDB/Rotten Tomatoes: users create accounts, read movie pages (plot,
cast, info, reviews), and write reviews. Ported from DeathStarBench's
media service.

Workflow (edges as in Fig. 23)::

    client -> frontend -> user, text, movie_id -> compose_review
              frontend -> page -> movie_info, cast_info, plot, movie_review
    compose_review -> unique_id, review_storage, user_review, movie_review
    movie_review/user_review resolve full reviews via review_storage

Operation mix (DeathStarBench media defaults): read a movie page 60%,
compose a review 30%, user login 10%.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.apps.base import AppBundle, pick_weighted
from repro.sim.randsrc import RandomSource

MIX = {"page": 0.60, "compose": 0.30, "login": 0.10}


class MovieReviewApp(AppBundle):
    name = "movie"
    entry = "frontend"
    ssf_count = 13

    def __init__(self, seed: int = 0, n_movies: int = 100,
                 n_users: int = 100) -> None:
        super().__init__(seed)
        self.n_movies = n_movies
        self.n_users = n_users
        self.envs: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def register(self, runtime: Any) -> None:
        # -- unique_id: logged non-determinism --------------------------
        def unique_id(ctx, payload):
            return ctx.fresh_id()

        # -- user: resolve/login ----------------------------------------
        def user(ctx, payload):
            username = payload["username"]
            record = ctx.read("users", username)
            if record is None:
                return {"ok": False}
            if "password" in payload:
                return {"ok": record["password"] == payload["password"],
                        "user_id": record["user_id"]}
            return {"ok": True, "user_id": record["user_id"]}

        # -- text: process review text (mentions, sanitize) --------------
        def text(ctx, payload):
            body = payload["text"]
            cleaned = " ".join(body.split())
            return {"text": cleaned, "length": len(cleaned)}

        # -- movie_id: title -> id ---------------------------------------
        def movie_id(ctx, payload):
            record = ctx.read("titles", payload["title"])
            if record is None:
                return {"ok": False}
            return {"ok": True, "movie_id": record}

        # -- review_storage: the reviews themselves -----------------------
        def review_storage(ctx, payload):
            if payload["op"] == "store":
                review = payload["review"]
                ctx.write("reviews", review["review_id"], review)
                return {"stored": review["review_id"]}
            if payload["op"] == "read_many":
                # Serving stored reviews tolerates bounded staleness —
                # the half-price follower read when replication is on.
                return [review for review in ctx.read_many(
                    "reviews", payload["ids"]) if review is not None]
            raise ValueError(f"bad op {payload['op']!r}")

        # -- user_review: per-user review index ---------------------------
        def user_review(ctx, payload):
            if payload["op"] == "append":
                ids = ctx.read("by_user", payload["user_id"]) or []
                ids = ids + [payload["review_id"]]
                ctx.write("by_user", payload["user_id"], ids)
                return {"count": len(ids)}
            ids = ctx.read_eventual("by_user", payload["user_id"]) or []
            return ids[-payload.get("limit", 10):]

        # -- movie_review: per-movie review index --------------------------
        def movie_review(ctx, payload):
            if payload["op"] == "append":
                ids = ctx.read("by_movie", payload["movie_id"]) or []
                ids = ids + [payload["review_id"]]
                ctx.write("by_movie", payload["movie_id"], ids)
                return {"count": len(ids)}
            ids = ctx.read_eventual("by_movie", payload["movie_id"]) or []
            recent = ids[-payload.get("limit", 5):]
            return ctx.sync_invoke("review_storage",
                                   {"op": "read_many", "ids": recent})

        # -- compose_review: gather parts, store, index --------------------
        def compose_review(ctx, payload):
            review_id = ctx.sync_invoke("unique_id", {})
            review = {
                "review_id": review_id,
                "user_id": payload["user_id"],
                "movie_id": payload["movie_id"],
                "text": payload["text"],
                "rating": payload["rating"],
            }
            ctx.sync_invoke("review_storage",
                            {"op": "store", "review": review})
            ctx.sync_invoke("user_review",
                            {"op": "append", "user_id": payload["user_id"],
                             "review_id": review_id})
            ctx.sync_invoke("movie_review",
                            {"op": "append",
                             "movie_id": payload["movie_id"],
                             "review_id": review_id})
            return {"ok": True, "review_id": review_id}

        # -- movie page components (read-only: eventual-tolerant) ----------
        def movie_info(ctx, payload):
            return ctx.read_eventual("info", payload["movie_id"])

        def cast_info(ctx, payload):
            return ctx.read_eventual("cast", payload["movie_id"])

        def plot(ctx, payload):
            return ctx.read_eventual("plots", payload["movie_id"])

        # -- page: assemble a movie page ------------------------------------
        def page(ctx, payload):
            movie = payload["movie_id"]
            return {
                "info": ctx.sync_invoke("movie_info", {"movie_id": movie}),
                "cast": ctx.sync_invoke("cast_info", {"movie_id": movie}),
                "plot": ctx.sync_invoke("plot", {"movie_id": movie}),
                "reviews": ctx.sync_invoke(
                    "movie_review", {"op": "read", "movie_id": movie}),
            }

        # -- frontend ---------------------------------------------------------
        def frontend(ctx, payload):
            action = payload["action"]
            if action == "page":
                resolved = ctx.sync_invoke("movie_id",
                                           {"title": payload["title"]})
                if not resolved["ok"]:
                    return {"ok": False, "error": "unknown title"}
                result = ctx.sync_invoke(
                    "page", {"movie_id": resolved["movie_id"]})
                return {"ok": True, "page": result}
            if action == "compose":
                auth = ctx.sync_invoke("user",
                                       {"username": payload["username"]})
                if not auth["ok"]:
                    return {"ok": False, "error": "unknown user"}
                processed = ctx.sync_invoke("text",
                                            {"text": payload["text"]})
                resolved = ctx.sync_invoke("movie_id",
                                           {"title": payload["title"]})
                if not resolved["ok"]:
                    return {"ok": False, "error": "unknown title"}
                return ctx.sync_invoke("compose_review", {
                    "user_id": auth["user_id"],
                    "movie_id": resolved["movie_id"],
                    "text": processed["text"],
                    "rating": payload["rating"],
                })
            if action == "login":
                return ctx.sync_invoke("user", {
                    "username": payload["username"],
                    "password": payload["password"]})
            raise ValueError(f"unknown action {action!r}")

        specs = [
            ("frontend", frontend, []),
            ("unique_id", unique_id, []),
            ("user", user, ["users"]),
            ("text", text, []),
            ("movie_id", movie_id, ["titles"]),
            ("compose_review", compose_review, []),
            ("review_storage", review_storage, ["reviews"]),
            ("user_review", user_review, ["by_user"]),
            ("movie_review", movie_review, ["by_movie"]),
            ("page", page, []),
            ("movie_info", movie_info, ["info"]),
            ("cast_info", cast_info, ["cast"]),
            ("plot", plot, ["plots"]),
        ]
        for name, handler, tables in specs:
            ssf = runtime.register_ssf(name, handler, tables=tables)
            self.envs[name] = ssf.env

    # ------------------------------------------------------------------
    def seed_data(self, runtime: Any) -> None:
        seeder = self.rand.child("seed")
        for i in range(self.n_movies):
            movie = f"movie-{i:04d}"
            title = f"Title {i}"
            self.envs["movie_id"].seed("titles", title, movie)
            self.envs["movie_info"].seed("info", movie, {
                "movie_id": movie, "title": title,
                "year": 1950 + (i % 70),
                "avg_rating": round(seeder.uniform(1.0, 10.0), 1),
            })
            self.envs["cast_info"].seed("cast", movie, [
                {"name": f"Actor {j}", "role": f"Role {j}"}
                for j in range(3)])
            self.envs["plot"].seed("plots", movie,
                                   f"Plot of {title}: " + "drama " * 10)
        for i in range(self.n_users):
            username = f"user-{i:04d}"
            self.envs["user"].seed("users", username, {
                "user_id": f"uid-{i:04d}",
                "password": f"pw-{i:04d}"})

    # ------------------------------------------------------------------
    def describe_mix(self) -> dict:
        return dict(MIX)

    def sample_request(self, rand: Optional[RandomSource] = None) -> dict:
        rand = rand or self.rand
        action = pick_weighted(rand, MIX)
        movie = rand.randint(0, self.n_movies - 1)
        user_idx = rand.randint(0, self.n_users - 1)
        if action == "page":
            return {"action": "page", "title": f"Title {movie}"}
        if action == "compose":
            return {"action": "compose",
                    "username": f"user-{user_idx:04d}",
                    "title": f"Title {movie}",
                    "text": f"review text {rand.randint(0, 9999)} "
                            "with some words in it",
                    "rating": rand.randint(1, 10)}
        return {"action": "login", "username": f"user-{user_idx:04d}",
                "password": f"pw-{user_idx:04d}"}
