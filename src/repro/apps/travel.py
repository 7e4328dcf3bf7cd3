"""Travel reservation service (§7.1, Fig. 22) — 10 SSFs.

Users search hotels, sort by price/distance/rate, get recommendations,
log in, and reserve a hotel room **and** a flight; the paper extends the
original DeathStarBench hotel app with flight reservations so the reserve
path exercises a *cross-SSF transaction*: the reservation goes through
only if both the hotel and the flight have capacity.

Workflow (edges as in Fig. 22)::

    client -> frontend -> search -> geo, rate
                       -> recommend -> profile
                       -> user
                       -> reserve -> reserve_hotel, reserve_flight   (txn)
    search/recommend results hydrate through profile

Operation mix (adapted from DeathStarBench's hotel mix; the paper keeps
reservations rare but they are the headline feature, §7.4): search 60%,
recommend 29%, login 1%, reserve 10%. Reservations pick 1 of
``n_hotels``/``n_flights`` choices each from a normal distribution
centred mid-catalogue (§7.2) — which concentrates contention and makes
aborts possible under load.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.apps.base import AppBundle, pick_weighted
from repro.kvstore import Gt
from repro.kvstore.expressions import path
from repro.sim.randsrc import RandomSource

MIX = {"search": 0.60, "recommend": 0.29, "login": 0.01, "reserve": 0.10}


class TravelReservationApp(AppBundle):
    name = "travel"
    entry = "frontend"
    ssf_count = 10

    def __init__(self, seed: int = 0, n_hotels: int = 100,
                 n_flights: int = 100, rooms_per_hotel: int = 1000,
                 seats_per_flight: int = 1000, n_users: int = 100,
                 transactional: bool = True) -> None:
        super().__init__(seed)
        self.n_hotels = n_hotels
        self.n_flights = n_flights
        self.rooms_per_hotel = rooms_per_hotel
        self.seats_per_flight = seats_per_flight
        self.n_users = n_users
        #: §7.4 also measures "Beldi without transactions": same app, the
        #: reserve path simply skips begin/end (and therefore runs its
        #: two reservations non-atomically, like the baseline would).
        self.transactional = transactional
        self.envs: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Registration: 10 SSFs, each in its own sovereignty domain.
    # ------------------------------------------------------------------
    def register(self, runtime: Any) -> None:
        transactional = self.transactional

        # -- geo: nearby hotels for a location cell (read-only) ---------
        def geo(ctx, payload):
            cell = payload["cell"]
            return ctx.read_eventual("cells", f"cell-{cell}") or []

        # -- rate: room rates for a set of hotels -----------------------
        def rate(ctx, payload):
            hotels = payload["hotels"]
            return [{"hotel": hotel_id, "rate": entry}
                    for hotel_id, entry in zip(
                        hotels, ctx.read_many("rates", hotels))
                    if entry is not None]

        # -- profile: hotel profiles ------------------------------------
        def profile(ctx, payload):
            return [entry for entry in ctx.read_many(
                "profiles", payload["hotels"]) if entry is not None]

        # -- search: geo + rate, hydrated through profile ---------------
        def search(ctx, payload):
            nearby = ctx.sync_invoke("geo", {"cell": payload["cell"]})
            rates = ctx.sync_invoke("rate", {"hotels": nearby})
            ranked = sorted(rates, key=lambda r: r["rate"])[:5]
            profiles = ctx.sync_invoke(
                "profile", {"hotels": [r["hotel"] for r in ranked]})
            return {"hotels": profiles}

        # -- recommend: by price/distance/rate --------------------------
        def recommend(ctx, payload):
            criterion = payload.get("by", "price")
            board = ctx.read_eventual("boards", criterion) or []
            profiles = ctx.sync_invoke("profile", {"hotels": board[:5]})
            return {"recommended": profiles, "by": criterion}

        # -- user: login/registration -----------------------------------
        def user(ctx, payload):
            username = payload["username"]
            record = ctx.read("users", username)
            if record is None:
                return {"ok": False, "error": "no such user"}
            ok = record.get("password") == payload.get("password")
            return {"ok": ok, "user": username if ok else None}

        # -- reserve_hotel: decrement capacity inside the txn ------------
        def reserve_hotel(ctx, payload):
            hotel_id = payload["hotel"]
            ok = ctx.cond_write(
                "inventory", hotel_id,
                _decremented(ctx, "inventory", hotel_id),
                Gt(path("Value", "available"), 0))
            if not ok:
                if ctx.in_transaction():
                    ctx.abort_tx()
                return {"hotel": hotel_id, "reserved": False}
            return {"hotel": hotel_id, "reserved": True}

        # -- reserve_flight: same pattern over its own table -------------
        def reserve_flight(ctx, payload):
            flight_id = payload["flight"]
            ok = ctx.cond_write(
                "seats", flight_id,
                _decremented(ctx, "seats", flight_id),
                Gt(path("Value", "available"), 0))
            if not ok:
                if ctx.in_transaction():
                    ctx.abort_tx()
                return {"flight": flight_id, "reserved": False}
            return {"flight": flight_id, "reserved": True}

        def _decremented(ctx, table, key):
            current = ctx.read(table, key) or {"available": 0}
            return {"available": current["available"] - 1}

        # -- reserve: the cross-SSF transaction (§6.2) -------------------
        def reserve(ctx, payload):
            booking = {"user": payload["user"], "hotel": payload["hotel"],
                       "flight": payload["flight"]}
            if transactional:
                with ctx.transaction() as tx:
                    ctx.sync_invoke("reserve_hotel",
                                    {"hotel": payload["hotel"]})
                    ctx.sync_invoke("reserve_flight",
                                    {"flight": payload["flight"]})
                    booking_id = ctx.fresh_id()
                    ctx.write("bookings", booking_id, booking)
                committed = tx.committed
            else:
                ctx.sync_invoke("reserve_hotel",
                                {"hotel": payload["hotel"]})
                ctx.sync_invoke("reserve_flight",
                                {"flight": payload["flight"]})
                booking_id = ctx.fresh_id()
                ctx.write("bookings", booking_id, booking)
                committed = True
            return {"ok": committed}

        # -- frontend: the workflow root ---------------------------------
        def frontend(ctx, payload):
            action = payload["action"]
            if action == "search":
                return ctx.sync_invoke("search", payload)
            if action == "recommend":
                return ctx.sync_invoke("recommend", payload)
            if action == "login":
                return ctx.sync_invoke("user", payload)
            if action == "reserve":
                return ctx.sync_invoke("reserve", payload)
            raise ValueError(f"unknown action {action!r}")

        specs = [
            ("frontend", frontend, []),
            ("search", search, []),
            ("geo", geo, ["cells"]),
            ("rate", rate, ["rates"]),
            ("profile", profile, ["profiles"]),
            ("recommend", recommend, ["boards"]),
            ("user", user, ["users"]),
            ("reserve", reserve, ["bookings"]),
            ("reserve_hotel", reserve_hotel, ["inventory"]),
            ("reserve_flight", reserve_flight, ["seats"]),
        ]
        for name, handler, tables in specs:
            ssf = runtime.register_ssf(name, handler, tables=tables)
            self.envs[name] = ssf.env

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def seed_data(self, runtime: Any) -> None:
        seeder = self.rand.child("seed")
        cells: dict[int, list] = {}
        by_price, by_distance, by_rate = [], [], []
        for i in range(self.n_hotels):
            hotel_id = f"hotel-{i:04d}"
            cell = i % 10
            cells.setdefault(cell, []).append(hotel_id)
            self.envs["rate"].seed("rates", hotel_id,
                                   round(50 + seeder.random() * 250, 2))
            self.envs["profile"].seed("profiles", hotel_id, {
                "id": hotel_id,
                "name": f"Hotel {i}",
                "cell": cell,
                "stars": seeder.randint(1, 5),
            })
            self.envs["reserve_hotel"].seed(
                "inventory", hotel_id,
                {"available": self.rooms_per_hotel})
            by_price.append(hotel_id)
            by_distance.append(hotel_id)
            by_rate.append(hotel_id)
        for cell, hotels in cells.items():
            self.envs["geo"].seed("cells", f"cell-{cell}", hotels)
        seeder.shuffle(by_price)
        seeder.shuffle(by_distance)
        seeder.shuffle(by_rate)
        self.envs["recommend"].seed("boards", "price", by_price[:20])
        self.envs["recommend"].seed("boards", "distance", by_distance[:20])
        self.envs["recommend"].seed("boards", "rate", by_rate[:20])
        for i in range(self.n_flights):
            flight_id = f"flight-{i:04d}"
            self.envs["reserve_flight"].seed(
                "seats", flight_id, {"available": self.seats_per_flight})
        for i in range(self.n_users):
            username = f"user-{i:04d}"
            self.envs["user"].seed("users", username, {
                "password": f"pw-{i:04d}", "name": f"User {i}"})

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def describe_mix(self) -> dict:
        return dict(MIX)

    def sample_request(self, rand: Optional[RandomSource] = None) -> dict:
        rand = rand or self.rand
        action = pick_weighted(rand, MIX)
        if action == "search":
            return {"action": "search", "cell": rand.randint(0, 9)}
        if action == "recommend":
            return {"action": "recommend",
                    "by": rand.choice(["price", "distance", "rate"])}
        if action == "login":
            i = rand.randint(0, self.n_users - 1)
            return {"action": "login", "username": f"user-{i:04d}",
                    "password": f"pw-{i:04d}"}
        # The paper's §7.2: hotel and flight drawn from a normal
        # distribution over 100 choices each.
        hotel = rand.normal_index(self.n_hotels)
        flight = rand.normal_index(self.n_flights)
        return {"action": "reserve",
                "user": f"user-{rand.randint(0, self.n_users - 1):04d}",
                "hotel": f"hotel-{hotel:04d}",
                "flight": f"flight-{flight:04d}"}

    # -- invariants used by tests and benches ---------------------------------
    def capacity_remaining(self) -> tuple[int, int]:
        rooms = sum(
            self.envs["reserve_hotel"].peek("inventory",
                                            f"hotel-{i:04d}")["available"]
            for i in range(self.n_hotels))
        seats = sum(
            self.envs["reserve_flight"].peek("seats",
                                             f"flight-{i:04d}")["available"]
            for i in range(self.n_flights))
        return rooms, seats
