"""Social media site (§7.1, Fig. 24) — 13 SSFs.

Cf. Twitter: users log in, follow each other, compose posts that mention
users / shorten URLs / attach media, and read home and user timelines.
Ported from DeathStarBench's social network.

Workflow (edges as in Fig. 24)::

    client -> frontend -> compose_post -> unique_id, text, media, user
              text -> url_shorten, user_mention
              compose_post -> post_storage, user_timeline,
                              social_graph -> home_timeline (fan-out,
                                              asynchronous)
              user_timeline/home_timeline -> timeline_storage
              read paths: frontend -> home_timeline/user_timeline
                          -> timeline_storage, post_storage

The home-timeline fan-out uses ``asyncInvoke`` — followers' timelines
update in the background, exercising Beldi's asynchronous invocation path
in a realistic workload.

Operation mix (DeathStarBench social defaults): read home timeline 60%,
read user timeline 30%, compose post 10%.
"""

from __future__ import annotations

import re
from typing import Any, Optional

from repro.apps.base import AppBundle, pick_weighted
from repro.sim.randsrc import RandomSource

MIX = {"home": 0.60, "user": 0.30, "compose": 0.10}

_URL_RE = re.compile(r"https?://\S+")
_MENTION_RE = re.compile(r"@([A-Za-z0-9_\-]+)")


class SocialMediaApp(AppBundle):
    name = "social"
    entry = "frontend"
    ssf_count = 13

    def __init__(self, seed: int = 0, n_users: int = 100,
                 followers_per_user: int = 8,
                 timeline_limit: int = 10) -> None:
        super().__init__(seed)
        self.n_users = n_users
        self.followers_per_user = followers_per_user
        self.timeline_limit = timeline_limit
        self.envs: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def register(self, runtime: Any) -> None:
        timeline_limit = self.timeline_limit

        def unique_id(ctx, payload):
            return ctx.fresh_id()

        def url_shorten(ctx, payload):
            shortened = []
            for url in payload["urls"]:
                short = f"http://sn.io/{ctx.fresh_id()[:8]}"
                ctx.write("urls", short, url)
                shortened.append(short)
            return shortened

        def user_mention(ctx, payload):
            mentions = []
            for username in payload["usernames"]:
                record = ctx.read("mention_cache", username)
                if record is not None:
                    mentions.append({"username": username,
                                     "user_id": record})
            return mentions

        def media(ctx, payload):
            media_ids = []
            for item in payload.get("media", []):
                media_id = ctx.fresh_id()
                ctx.write("media", media_id, item)
                media_ids.append(media_id)
            return media_ids

        def text(ctx, payload):
            body = payload["text"]
            urls = _URL_RE.findall(body)
            usernames = _MENTION_RE.findall(body)
            short_urls = (ctx.sync_invoke("url_shorten", {"urls": urls})
                          if urls else [])
            mentions = (ctx.sync_invoke("user_mention",
                                        {"usernames": usernames})
                        if usernames else [])
            rendered = _URL_RE.sub("<url>", body)
            return {"text": rendered, "urls": short_urls,
                    "mentions": mentions}

        def user(ctx, payload):
            record = ctx.read("users", payload["username"])
            if record is None:
                return {"ok": False}
            return {"ok": True, "user_id": record["user_id"]}

        def post_storage(ctx, payload):
            if payload["op"] == "store":
                post = payload["post"]
                ctx.write("posts", post["post_id"], post)
                return {"stored": post["post_id"]}
            if payload["op"] == "read_many":
                # Timeline rendering tolerates bounded staleness — the
                # half-price follower read when replication is on.
                return [post for post in ctx.read_many(
                    "posts", payload["ids"]) if post is not None]
            raise ValueError(f"bad op {payload['op']!r}")

        def timeline_storage(ctx, payload):
            if payload["op"] == "append":
                key = payload["timeline"]
                ids = ctx.read("timelines", key) or []
                ids = (ids + [payload["post_id"]])[-50:]
                ctx.write("timelines", key, ids)
                return {"count": len(ids)}
            ids = ctx.read_eventual("timelines", payload["timeline"]) or []
            return ids[-payload.get("limit", timeline_limit):]

        def user_timeline(ctx, payload):
            if payload["op"] == "append":
                return ctx.sync_invoke("timeline_storage", {
                    "op": "append",
                    "timeline": f"user:{payload['user_id']}",
                    "post_id": payload["post_id"]})
            ids = ctx.sync_invoke("timeline_storage", {
                "op": "read", "timeline": f"user:{payload['user_id']}"})
            return ctx.sync_invoke("post_storage",
                                   {"op": "read_many", "ids": ids})

        def home_timeline(ctx, payload):
            if payload["op"] == "append":
                return ctx.sync_invoke("timeline_storage", {
                    "op": "append",
                    "timeline": f"home:{payload['user_id']}",
                    "post_id": payload["post_id"]})
            ids = ctx.sync_invoke("timeline_storage", {
                "op": "read", "timeline": f"home:{payload['user_id']}"})
            return ctx.sync_invoke("post_storage",
                                   {"op": "read_many", "ids": ids})

        def social_graph(ctx, payload):
            if payload["op"] == "followers":
                return ctx.read("followers", payload["user_id"]) or []
            if payload["op"] == "follow":
                followers = ctx.read("followers", payload["target"]) or []
                if payload["user_id"] not in followers:
                    followers = followers + [payload["user_id"]]
                    ctx.write("followers", payload["target"], followers)
                return {"count": len(followers)}
            raise ValueError(f"bad op {payload['op']!r}")

        def compose_post(ctx, payload):
            auth = ctx.sync_invoke("user",
                                   {"username": payload["username"]})
            if not auth["ok"]:
                return {"ok": False, "error": "unknown user"}
            post_id = ctx.sync_invoke("unique_id", {})
            processed = ctx.sync_invoke("text", {"text": payload["text"]})
            media_ids = ctx.sync_invoke("media",
                                        {"media": payload.get("media",
                                                              [])})
            post = {
                "post_id": post_id,
                "author": auth["user_id"],
                "text": processed["text"],
                "urls": processed["urls"],
                "mentions": processed["mentions"],
                "media": media_ids,
            }
            ctx.sync_invoke("post_storage", {"op": "store", "post": post})
            ctx.sync_invoke("user_timeline", {
                "op": "append", "user_id": auth["user_id"],
                "post_id": post_id})
            followers = ctx.sync_invoke(
                "social_graph", {"op": "followers",
                                 "user_id": auth["user_id"]})
            # Fan the post out to follower home timelines asynchronously —
            # the paper's asyncInvoke in its natural habitat.
            for follower in followers:
                ctx.async_invoke("home_timeline", {
                    "op": "append", "user_id": follower,
                    "post_id": post_id})
            return {"ok": True, "post_id": post_id,
                    "fanout": len(followers)}

        def frontend(ctx, payload):
            action = payload["action"]
            if action == "compose":
                return ctx.sync_invoke("compose_post", payload)
            if action == "home":
                return ctx.sync_invoke("home_timeline", {
                    "op": "read", "user_id": payload["user_id"]})
            if action == "user":
                return ctx.sync_invoke("user_timeline", {
                    "op": "read", "user_id": payload["user_id"]})
            if action == "follow":
                return ctx.sync_invoke("social_graph", {
                    "op": "follow", "user_id": payload["user_id"],
                    "target": payload["target"]})
            raise ValueError(f"unknown action {action!r}")

        specs = [
            ("frontend", frontend, []),
            ("unique_id", unique_id, []),
            ("url_shorten", url_shorten, ["urls"]),
            ("media", media, ["media"]),
            ("text", text, []),
            ("user_mention", user_mention, ["mention_cache"]),
            ("user", user, ["users"]),
            ("compose_post", compose_post, []),
            ("post_storage", post_storage, ["posts"]),
            ("social_graph", social_graph, ["followers"]),
            ("user_timeline", user_timeline, []),
            ("home_timeline", home_timeline, []),
            ("timeline_storage", timeline_storage, ["timelines"]),
        ]
        for name, handler, tables in specs:
            ssf = runtime.register_ssf(name, handler, tables=tables)
            self.envs[name] = ssf.env

    # ------------------------------------------------------------------
    def seed_data(self, runtime: Any) -> None:
        seeder = self.rand.child("seed")
        for i in range(self.n_users):
            username = f"user-{i:04d}"
            user_id = f"uid-{i:04d}"
            self.envs["user"].seed("users", username,
                                   {"user_id": user_id})
            self.envs["user_mention"].seed("mention_cache", username,
                                           user_id)
            followers = set()
            while len(followers) < min(self.followers_per_user,
                                       self.n_users - 1):
                candidate = seeder.randint(0, self.n_users - 1)
                if candidate != i:
                    followers.add(f"uid-{candidate:04d}")
            self.envs["social_graph"].seed("followers", user_id,
                                           sorted(followers))

    # ------------------------------------------------------------------
    def describe_mix(self) -> dict:
        return dict(MIX)

    def sample_request(self, rand: Optional[RandomSource] = None) -> dict:
        rand = rand or self.rand
        action = pick_weighted(rand, MIX)
        user_idx = rand.randint(0, self.n_users - 1)
        if action == "home":
            return {"action": "home", "user_id": f"uid-{user_idx:04d}"}
        if action == "user":
            return {"action": "user", "user_id": f"uid-{user_idx:04d}"}
        mention = f"user-{rand.randint(0, self.n_users - 1):04d}"
        body = (f"post {rand.randint(0, 99999)} hello @{mention} "
                f"see https://example.com/{rand.randint(0, 999)}")
        return {"action": "compose",
                "username": f"user-{user_idx:04d}",
                "text": body}
