"""Workload generators: hedged-swap execution grids, a three-party swap and
a cross-chain auction at desk scale, the accompanying spec library, and a
seeded random-computation generator for property tests.

Two-party protocol timeline (six steps, per-step deadline delta):

    1  alice deposits premium 2 on the banana chain
    2  bob deposits premium 1 on the apricot chain
    3  alice escrows 100 on apricot        4  bob escrows 100 on banana
    5  alice redeems on banana (premium back)
    6  bob redeems on apricot (premium back)

Logs start with an anchor event at local time 0 on each chain (the agreed
start of the protocol), attempted steps land one time unit before their
deadline (timely) or one after (late), and each chain emits a settle event
after its last deadline resolving refunds for whatever was left behind.
Per-party transfer totals ride along as absolute running sums in the event
variables, per chain.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .computation import Computation, Event, build_computation
from .formula import Formula
from .parser import parse_spec
from .semantics import State

ASSET = 100
PREMIUM_APR = 1  # bob's premium on the apricot chain
PREMIUM_BAN = 2  # alice's premium on the banana chain


@dataclass(frozen=True)
class ProtocolParams:
    delta: int = 500
    epsilon: int = 1


@dataclass(frozen=True)
class ExecutionVector:
    """12 bits: even index = step attempted, odd index = attempted late."""

    bits: Tuple[int, ...]

    # chain step slots: banana executes steps 1, 4, 5; apricot 2, 3, 6
    BAN_STEPS = (1, 4, 5)
    APR_STEPS = (2, 3, 6)

    def __post_init__(self):
        if len(self.bits) != 12 or any(b not in (0, 1) for b in self.bits):
            raise ValueError("execution vector must be 12 bits")
        for chain in (self.BAN_STEPS, self.APR_STEPS):
            seen_skip = False
            for step in chain:
                if not self.attempted(step):
                    seen_skip = True
                elif seen_skip:
                    raise ValueError(
                        f"step {step} attempted after an earlier skip on its chain"
                    )

    def attempted(self, step: int) -> bool:
        return bool(self.bits[2 * (step - 1)])

    def late(self, step: int) -> bool:
        return bool(self.bits[2 * (step - 1) + 1])

    @classmethod
    def from_string(cls, text: str) -> "ExecutionVector":
        return cls(tuple(int(ch) for ch in text.strip()))

    def __str__(self):
        return "".join(str(b) for b in self.bits)


_CHAIN_PATTERNS = [(1, 1, 1), (1, 1, 0), (1, 0, 0), (0, 0, 0)]


def enumerate_two_party_executions() -> List[ExecutionVector]:
    """All 4 * 4 * 2^6 = 1024 execution vectors of the two-party swap.

    Chain step patterns respect the contracts' ordering (a step can only
    be attempted when the chain's earlier steps were); timeliness bits
    range over all six steps, so vectors differing only in the timeliness
    bit of a skipped step are distinct vectors that generate the same log.
    """
    out = []
    for ban_pat in _CHAIN_PATTERNS:
        for apr_pat in _CHAIN_PATTERNS:
            attempts = [0] * 6
            for pat, steps in ((ban_pat, ExecutionVector.BAN_STEPS),
                               (apr_pat, ExecutionVector.APR_STEPS)):
                for bit, step in zip(pat, steps):
                    attempts[step - 1] = bit
            for late in itertools.product((0, 1), repeat=6):
                bits = []
                for k in range(6):
                    bits.append(attempts[k])
                    bits.append(late[k])
                out.append(ExecutionVector(tuple(bits)))
    return out


class _Ledger:
    """Running transfer totals for one chain's event stream."""

    def __init__(self, proc: str):
        self.proc = proc
        self.totals: Dict[str, int] = {}
        self.events: List[Event] = []

    def emit(self, t: int, props: Iterable[str], **transfers: int):
        """Append one event at time t, which must follow the chain's last
        event, as `pipeline.ingest` requires; a delta too small for the
        protocol's steps breaks this."""
        if self.events and t <= self.events[-1].local_time:
            raise ValueError(
                f"delta too small: times on chain {self.proc!r} must be"
                f" strictly increasing ({t} after {self.events[-1].local_time})"
            )
        for key, amount in transfers.items():
            self.totals[key] = self.totals.get(key, 0) + amount
        self.events.append(
            Event(self.proc, t, State(frozenset(props), dict(self.totals)))
        )


def gen_two_party_log(
    vec: ExecutionVector, params: ProtocolParams = ProtocolParams()
) -> List[Event]:
    """Event log of one two-party swap execution across both chains."""
    d = params.delta
    ban = _Ledger("ban")
    apr = _Ledger("apr")

    ban.emit(0, ["ban.swap_started"])
    apr.emit(0, ["apr.swap_started"])

    def when(step: int) -> int:
        return step * d + (1 if vec.late(step) else -1)

    if vec.attempted(1):
        ban.emit(when(1), ["ban.premium_deposited_alice"], from_alice=PREMIUM_BAN)
    if vec.attempted(2):
        apr.emit(when(2), ["apr.premium_deposited_bob"], from_bob=PREMIUM_APR)
    if vec.attempted(3):
        apr.emit(when(3), ["apr.asset_escrowed_alice"], from_alice=ASSET)
    if vec.attempted(4):
        ban.emit(when(4), ["ban.asset_escrowed_bob"], from_bob=ASSET)
    if vec.attempted(5):
        ban.emit(
            when(5),
            ["ban.asset_redeemed_alice", "ban.premium_refunded_alice"],
            to_alice=ASSET + PREMIUM_BAN,
        )
    if vec.attempted(6):
        apr.emit(
            when(6),
            ["apr.asset_redeemed_bob", "apr.premium_refunded_bob"],
            to_bob=ASSET + PREMIUM_APR,
        )

    # timeout resolution: each chain settles whatever was not redeemed; a
    # refunded escrow carries the counterparty's premium as compensation
    ban_props = ["ban.all_asset_settled_any"]
    ban_moves: Dict[str, int] = {}
    if vec.attempted(4) and not vec.attempted(5):
        ban_props.append("ban.asset_refunded_any")
        ban_moves["to_bob"] = ASSET + PREMIUM_BAN
    elif vec.attempted(1) and not vec.attempted(4):
        ban_props.append("ban.premium_refunded_alice")
        ban_moves["to_alice"] = PREMIUM_BAN
    ban.emit(5 * d + 2, ban_props, **ban_moves)

    apr_props = ["apr.all_asset_settled_any"]
    apr_moves: Dict[str, int] = {}
    if vec.attempted(3) and not vec.attempted(6):
        apr_props.append("apr.asset_refunded_any")
        apr_moves["to_alice"] = ASSET + PREMIUM_APR
    elif vec.attempted(2) and not vec.attempted(3):
        apr_props.append("apr.premium_refunded_bob")
        apr_moves["to_bob"] = PREMIUM_APR
    apr.emit(6 * d + 2, apr_props, **apr_moves)

    return sorted(ban.events + apr.events, key=lambda e: (e.local_time, e.process))


# ---------------------------------------------------------------------------
# Three-party swap (apricot / banana / cherry)
# ---------------------------------------------------------------------------

_THREE_PARTY_STEPS = [
    # (chain, props, transfer key, amount)
    ("apr", ["apr.depositEscrowPr_alice"], "from_alice", 3),
    ("ban", ["ban.depositEscrowPr_bob"], "from_bob", 3),
    ("che", ["che.depositEscrowPr_carol"], "from_carol", 3),
    ("che", ["che.depositRedemptionPr_alice"], "from_alice", 3),
    ("ban", ["ban.depositRedemptionPr_carol"], "from_carol", 2),
    ("apr", ["apr.depositRedemptionPr_bob"], "from_bob", 1),
    ("apr", ["apr.assetEscrowed_alice"], "from_alice", ASSET),
    ("ban", ["ban.assetEscrowed_bob"], "from_bob", ASSET),
    ("che", ["che.assetEscrowed_carol"], "from_carol", ASSET),
    ("che", ["che.hashlockUnlocked_alice", "assetRedeemed_alice"], "to_alice", ASSET),
    ("ban", ["ban.hashlockUnlocked_carol", "assetRedeemed_carol"], "to_carol", ASSET),
    ("apr", ["apr.hashlockUnlocked_bob", "assetRedeemed_bob"], "to_bob", ASSET),
]

# settle refunds per chain: (escrow premium holder, amount), (redemption ...)
_THREE_PARTY_SETTLE = {
    "apr": [("EscrowPremiumRefunded_alice", "to_alice", 3),
            ("RedemptionPremiumRefunded_bob", "to_bob", 1)],
    "ban": [("EscrowPremiumRefunded_bob", "to_bob", 3),
            ("RedemptionPremiumRefunded_carol", "to_carol", 2)],
    "che": [("EscrowPremiumRefunded_carol", "to_carol", 3),
            ("RedemptionPremiumRefunded_alice", "to_alice", 3)],
}


def gen_three_party_log(
    attempts: Optional[Sequence[int]] = None,
    params: ProtocolParams = ProtocolParams(),
) -> List[Event]:
    """Log of one three-party swap execution; `attempts` is a 12-bit
    attempt mask (default all attempted) honoring each chain's ordering."""
    if attempts is None:
        attempts = [1] * 12
    if len(attempts) != 12:
        raise ValueError("three-party vector has 12 steps")
    last_on_chain: Dict[str, int] = {}
    for k, (chain, _p, _k, _a) in enumerate(_THREE_PARTY_STEPS):
        if attempts[k] and not last_on_chain.get(chain, True):
            raise ValueError(f"step {k + 1} attempted after a skip on {chain}")
        last_on_chain[chain] = bool(attempts[k])
    d = params.delta
    ledgers = {p: _Ledger(p) for p in ("apr", "ban", "che")}
    for p in ("apr", "ban", "che"):
        ledgers[p].emit(0, [f"{p}.swap_started"])
    done = [False] * 12
    for k, (chain, props, key, amount) in enumerate(_THREE_PARTY_STEPS):
        if attempts[k]:
            done[k] = True
            ledgers[chain].emit((k + 1) * d - 1, props, **{key: amount})
    conforming = all(done)
    for p in ("apr", "ban", "che"):
        props = [f"{p}.all_asset_settled_any"]
        moves: Dict[str, int] = {}
        if conforming:
            for prop, key, amount in _THREE_PARTY_SETTLE[p]:
                props.append(prop)
                moves[key] = moves.get(key, 0) + amount
        ledgers[p].emit(12 * d + 2, props, **moves)
    events = [e for led in ledgers.values() for e in led.events]
    return sorted(events, key=lambda e: (e.local_time, e.process))


# ---------------------------------------------------------------------------
# Auction (ticket chain / coin chain)
# ---------------------------------------------------------------------------

WINNER_BID = 100  # bob's bid on the coin chain
LOSER_BID = 90  # carol's bid on the coin chain


def gen_auction_log(
    steps: Optional[Sequence[int]] = None,
    params: ProtocolParams = ProtocolParams(),
) -> List[Event]:
    """Log of one auction run: `steps` = attempt bits for (bob bids,
    carol bids, alice declares). The zero vector yields the setup only."""
    if steps is None:
        steps = (1, 1, 1)
    if len(steps) != 3:
        raise ValueError("auction vector has 3 steps")
    d = params.delta
    tckt = _Ledger("tckt")
    coin = _Ledger("coin")
    tckt.emit(0, ["tckt.auction_started", "tckt.ticket_escrowed_alice"],
              from_alice=ASSET)
    coin.emit(0, ["coin.auction_started", "coin.premium_deposited_alice"],
              from_alice=2)
    if not any(steps):
        return sorted(tckt.events + coin.events, key=lambda e: (e.local_time, e.process))
    bob_bids, carol_bids, declares = (bool(b) for b in steps)
    if carol_bids:
        coin.emit(d - 2, ["coin.bid_carol"], from_carol=LOSER_BID)
    if bob_bids:
        coin.emit(d - 1, ["coin.bid_bob"], from_bob=WINNER_BID)
    if declares and bob_bids:
        coin.emit(2 * d - 1, ["coin.declaration_alice_sb"])
        tckt.emit(2 * d - 1, ["tckt.declaration_alice_sb"])

    coin_props = ["coin.all_asset_settled_any"]
    coin_moves: Dict[str, int] = {}
    tckt_props = ["tckt.all_asset_settled_any"]
    tckt_moves: Dict[str, int] = {}
    if declares and bob_bids:
        coin_props += ["coin.redeemBid_any", "coin.refundPremium_any"]
        coin_moves["to_alice"] = WINNER_BID + 2
        tckt_props.append("tckt.redeemTicket_any")
        tckt_moves["to_bob"] = ASSET
    else:
        if bob_bids:
            coin_moves["to_bob"] = WINNER_BID + 1  # bid back plus compensation
            coin_props.append("coin.redeemPremium_any")
        tckt_props.append("tckt.refundTicket_alice")
        tckt_moves["to_alice"] = ASSET
    if carol_bids:
        coin_props.append("coin.refundBid_any")
        coin_moves["to_carol"] = coin_moves.get("to_carol", 0) + LOSER_BID
    coin.emit(4 * d + 1, coin_props, **coin_moves)
    tckt.emit(4 * d + 1, tckt_props, **tckt_moves)
    return sorted(tckt.events + coin.events, key=lambda e: (e.local_time, e.process))


# ---------------------------------------------------------------------------
# Spec library
# ---------------------------------------------------------------------------


def spec_library(delta: int = 500) -> Dict[str, Formula]:
    """The shipped protocol specs, parameterized by the step deadline.
    Delta 0 would make the deadline windows `[0,0)` empty and is refused;
    a negative delta is refused by the parser."""
    if delta == 0:
        raise ValueError("delta too small: delta 0 makes the deadline window [0,0) empty")
    d = delta
    specs: Dict[str, str] = {}

    specs["liveness_2p"] = f"""
        F[0,{d}) ban.premium_deposited_alice
      & F[0,{2 * d}) apr.premium_deposited_bob
      & F[0,{3 * d}) apr.asset_escrowed_alice
      & F[0,{4 * d}) ban.asset_escrowed_bob
      & F[0,{5 * d}) ban.asset_redeemed_alice
      & F[0,{6 * d}) apr.asset_redeemed_bob
      & F[0,{5 * d}) ban.premium_refunded_alice
      & F[0,{6 * d}) apr.premium_refunded_bob
      & F[{6 * d},inf) apr.all_asset_settled_any
      & F[{5 * d},inf) ban.all_asset_settled_any
    """
    alice_conform = f"""(
        F[0,{d}) ban.premium_deposited_alice
      & (F[0,{2 * d}) apr.premium_deposited_bob -> F[0,{3 * d}) apr.asset_escrowed_alice)
      & (F[0,{4 * d}) ban.asset_escrowed_bob -> F[0,{5 * d}) ban.asset_redeemed_alice)
      & (!apr.asset_redeemed_bob U ban.asset_redeemed_alice)
    )"""
    specs["alice_conform_2p"] = alice_conform
    specs["alice_safety_2p"] = f"{alice_conform} -> sum(to:alice) >= sum(from:alice)"
    specs["alice_hedged_2p"] = f"""
        F ({alice_conform} & apr.asset_escrowed_alice & apr.asset_refunded_any)
        -> F (sum(to:alice) >= sum(from:alice) + {PREMIUM_APR})
    """

    step_props = [
        "apr.depositEscrowPr_alice", "ban.depositEscrowPr_bob",
        "che.depositEscrowPr_carol", "che.depositRedemptionPr_alice",
        "ban.depositRedemptionPr_carol", "apr.depositRedemptionPr_bob",
        "apr.assetEscrowed_alice", "ban.assetEscrowed_bob", "che.assetEscrowed_carol",
        "che.hashlockUnlocked_alice", "ban.hashlockUnlocked_carol",
        "apr.hashlockUnlocked_bob",
    ]
    lines = [f"F[0,{(k + 1) * d}) {p}" for k, p in enumerate(step_props)]
    lines += [f"F assetRedeemed_{who}" for who in ("alice", "bob", "carol")]
    lines += [f"F EscrowPremiumRefunded_{who}" for who in ("alice", "bob", "carol")]
    lines += [f"F RedemptionPremiumRefunded_{who}" for who in ("alice", "bob", "carol")]
    specs["liveness_3p"] = " & ".join(lines)

    alice_conform_3p = f"""(
        F[0,{d}) apr.depositEscrowPr_alice
      & (F[0,{3 * d}) che.depositEscrowPr_carol -> F[0,{4 * d}) che.depositRedemptionPr_alice)
      & (!che.depositRedemptionPr_alice U che.depositEscrowPr_carol)
      & (F[0,{6 * d}) apr.depositRedemptionPr_bob -> F[0,{7 * d}) apr.assetEscrowed_alice)
      & (!apr.assetEscrowed_alice U apr.depositRedemptionPr_bob)
      & (F[0,{9 * d}) che.assetEscrowed_carol -> F[0,{10 * d}) che.hashlockUnlocked_alice)
      & (!che.hashlockUnlocked_alice U che.assetEscrowed_carol)
      & (!ban.hashlockUnlocked_carol U che.hashlockUnlocked_alice)
      & (!apr.hashlockUnlocked_bob U che.hashlockUnlocked_alice)
    )"""
    specs["alice_conform_3p"] = alice_conform_3p
    specs["alice_safety_3p"] = f"{alice_conform_3p} -> sum(to:alice) >= sum(from:alice)"
    specs["alice_hedged_3p"] = f"""
        F ({alice_conform_3p} & apr.assetEscrowed_alice)
        -> F (sum(to:alice) >= sum(from:alice) + 1)
    """

    specs["liveness_auction"] = f"""
        F[0,{d}) coin.bid_bob
      & F[0,{2 * d}) coin.declaration_alice_sb
      & F[0,{2 * d}) tckt.declaration_alice_sb
      & F[{4 * d + 1},inf) coin.redeemBid_any
      & F[{4 * d + 1},inf) coin.refundPremium_any
      & (coin.bid_carol -> F[0,{d}) coin.refundBid_any)
      & F[{4 * d + 1},inf) tckt.redeemTicket_any
      & G !coin.challenge_any
      & G !tckt.challenge_any
    """
    bob_conform = f"""(
        F[0,{d}) coin.bid_bob
      & ((coin.declaration_alice_sc | coin.challenge_carol_sc)
         -> (tckt.declaration_alice_sc | tckt.challenge_carol_sc | tckt.challenge_bob_sc))
      & ((coin.declaration_alice_sb | coin.challenge_carol_sb)
         -> (tckt.declaration_alice_sb | tckt.challenge_carol_sb | tckt.challenge_bob_sb))
      & ((tckt.declaration_alice_sc | tckt.challenge_carol_sc)
         -> (coin.declaration_alice_sc | coin.challenge_carol_sc | coin.challenge_bob_sc))
      & ((tckt.declaration_alice_sb | tckt.challenge_carol_sb)
         -> (coin.declaration_alice_sb | coin.challenge_carol_sb | coin.challenge_bob_sb))
    )"""
    specs["bob_conform_auction"] = bob_conform
    specs["bob_safety_auction"] = f"""
        {bob_conform} -> F ((coin.refundBid_any & coin.redeemPremium_any)
                            | tckt.redeemTicket_any)
    """
    specs["bob_hedged_auction"] = f"""
        G ({bob_conform} & (tckt.refundTicket_alice | tckt.redeemTicket_carol))
        -> F (coin.refundBid_any & coin.redeemPremium_any)
    """
    return {name: parse_spec(text) for name, text in specs.items()}


# ---------------------------------------------------------------------------
# Random computations for property tests
# ---------------------------------------------------------------------------

ALPHABET = ("p", "q", "r")
PROP_RATE = 0.35  # chance that each proposition holds at an event


def gen_random_computation(
    seed: int,
    processes: int = 3,
    events: int = 8,
    epsilon: int = 2,
    message_rate: float = 0.0,
    max_gap: int = 4,
) -> Computation:
    """Seeded, reproducible random computation with per-process strictly
    increasing timestamps and optional message pairs."""
    if not 1 <= processes <= events:
        raise ValueError("need 1 <= processes <= events")
    rng = random.Random(seed)
    raw: List[Tuple[str, int, frozenset]] = []
    for pi in range(processes):
        t = rng.randrange(0, max(2, epsilon))
        count = events // processes + (1 if pi < events % processes else 0)
        for _ in range(count):
            props = frozenset(a for a in ALPHABET if rng.random() < PROP_RATE)
            raw.append((f"P{pi + 1}", t, props))
            t += rng.randrange(1, max_gap + 1)
    evs = [Event(p, t, State(props)) for p, t, props in raw]
    if message_rate > 0:
        evs = _pair_messages(rng, evs, message_rate)
    return build_computation(evs, epsilon)


def _pair_messages(rng: random.Random, evs: List[Event], rate: float) -> List[Event]:
    out = list(evs)
    n_pairs = max(0, int(len(evs) * rate / 2))
    candidates = list(range(len(out)))
    mid = 0
    for _ in range(n_pairs):
        rng.shuffle(candidates)
        for i in candidates:
            for j in candidates:
                a, b = out[i], out[j]
                if (
                    a.kind == "local"
                    and b.kind == "local"
                    and a.process != b.process
                    and a.local_time <= b.local_time
                ):
                    out[i] = Event(a.process, a.local_time, a.payload, "send", f"m{mid}")
                    out[j] = Event(b.process, b.local_time, b.payload, "recv", f"m{mid}")
                    mid += 1
                    break
            else:
                continue
            break
    return out
