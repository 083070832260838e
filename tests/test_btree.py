"""Behavior-tree semantics: hand-traced oracles and invariant properties."""

import pytest
from hypothesis import given, settings, strategies as st

from osc2c.btree import (
    FAILURE,
    NEVER,
    RUNNING,
    SUCCESS,
    ActionLeaf,
    ArbitrationFault,
    Blackboard,
    BtNode,
    Condition,
    EdgeCondition,
    EventEmit,
    EventWait,
    OneOf,
    Parallel,
    Sequence,
    TickContext,
    Timer,
    required_ticks,
)
from osc2c.runtime import ChangeSpeedLeaf, CompiledScenario, DriveLeaf
from osc2c.semantics import Modifiers, check
from osc2c.world import TOWN06, World


def run(root, ticks, dt=0.05, stop_on_terminal=False):
    """Tick `root` over consecutive tick indices, returning the statuses."""
    ctx = TickContext(dt=dt)
    statuses = []
    for now in range(ticks):
        ctx.now = now
        ctx.blackboard.begin_tick(now)
        statuses.append(root.tick(ctx))
        if stop_on_terminal and statuses[-1] is not RUNNING:
            break
    return statuses


def true_from(tick):
    return Condition(lambda ctx: ctx.now >= tick)


def always_running():
    return Condition(lambda ctx: False)


def succeed():
    return Condition(lambda ctx: True)


class FailingLeaf(BtNode):
    """Runs until tick `at`, then fails: no builtin node ever fails."""

    def __init__(self, at):
        super().__init__()
        self.at = at

    def _tick(self, ctx):
        return FAILURE if ctx.now >= self.at else RUNNING


class CountingLeaf(BtNode):
    """Runs forever, counting how often it actually executes."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def _tick(self, ctx):
        self.calls += 1
        return RUNNING


class TestRequiredTicks:
    def test_exact_divisions(self):
        assert required_ticks(0.5, 0.05) == 10
        assert required_ticks(5.0, 0.05) == 100
        assert required_ticks(1.0, 0.05) == 20
        assert required_ticks(0.05, 0.05) == 1

    def test_zero_duration(self):
        assert required_ticks(0.0, 0.05) == 0

    def test_partial_tick_rounds_up(self):
        assert required_ticks(0.049, 0.05) == 1
        assert required_ticks(0.051, 0.05) == 2


class TestHandTracedOracles:
    def test_sequence_all_success_first_tick(self):
        root = Sequence([succeed(), succeed()])
        assert run(root, 1) == [SUCCESS]

    def test_sequence_fails_on_child_failure(self):
        rest = succeed()
        root = Sequence([FailingLeaf(1), rest])
        assert run(root, 2) == [RUNNING, FAILURE]
        assert rest.status is None  # never ticked

    def test_one_of_success_trace(self):
        waiter = always_running()
        root = OneOf([waiter, true_from(2)])
        assert run(root, 3) == [RUNNING, RUNNING, SUCCESS]
        assert waiter.halted

    def test_parallel_success_at_max(self):
        root = Parallel([true_from(2), true_from(5)])
        assert run(root, 6) == [RUNNING] * 5 + [SUCCESS]

    def test_parallel_failure_propagates(self):
        sibling, done = always_running(), succeed()
        root = Parallel([sibling, FailingLeaf(2), done])
        assert run(root, 3) == [RUNNING, RUNNING, FAILURE]
        assert sibling.halted and not done.halted

    def test_one_of_failure_propagates(self):
        sibling = always_running()
        root = OneOf([sibling, FailingLeaf(2)])
        assert run(root, 3) == [RUNNING, RUNNING, FAILURE]
        assert sibling.halted

    def test_rise_samples(self):
        samples = [False, False, True]
        node = EdgeCondition("rise", lambda ctx: samples[ctx.now])
        assert run(node, 3) == [RUNNING, RUNNING, SUCCESS]

    def test_fall_samples(self):
        samples = [True, True, False]
        node = EdgeCondition("fall", lambda ctx: samples[ctx.now])
        assert run(node, 3) == [RUNNING, RUNNING, SUCCESS]

    def test_rise_constant_true_never_fires(self):
        node = EdgeCondition("rise", lambda ctx: True)
        assert run(node, 10) == [RUNNING] * 10

    def test_timer_half_second(self):
        node = Timer(0.5)
        assert run(node, 11) == [RUNNING] * 10 + [SUCCESS]

    def test_timer_zero(self):
        assert run(Timer(0.0), 1) == [SUCCESS]

    def test_timer_latches_start(self):
        # first tick at index 3: success must land at 3 + 10
        node = Timer(0.5)
        ctx = TickContext()
        for now in range(3, 14):
            ctx.now = now
            status = node.tick(ctx)
        assert node.start == 3
        assert status is SUCCESS
        ctx.now = 12
        assert node.tick(ctx) is SUCCESS  # latched


class TestEvents:
    def test_emit_then_wait_same_tick(self):
        root = Sequence([EventEmit("X"), EventWait("X")])
        assert run(root, 1) == [SUCCESS]

    def test_wait_before_emit_sees_it_next_tick(self):
        root = Parallel([EventWait("X"), EventEmit("X")])
        assert run(root, 2) == [RUNNING, SUCCESS]

    def test_wait_never_emitted(self):
        assert run(EventWait("X"), 50) == [RUNNING] * 50

    def test_emit_latches_first_tick(self):
        bb = Blackboard()
        ctx = TickContext(blackboard=bb)
        a, b = EventEmit("X"), EventEmit("X")
        ctx.now = 3
        a.tick(ctx)
        ctx.now = 7
        b.tick(ctx)
        assert bb.events["X"] == 3

    def test_emission_log_flags(self):
        bb = Blackboard()
        bb.begin_tick(0)
        bb.emit("X", 0)
        bb.emit("X", 0)
        assert bb.emissions == [("X", True), ("X", False)]
        bb.begin_tick(1)
        assert bb.emissions == []


class TestLatchingAndHalting:
    def test_terminal_latch_no_side_effects(self):
        calls = []

        def probe(ctx):
            calls.append(ctx.now)
            return True

        node = Condition(probe)
        run(node, 3)
        assert node.status is SUCCESS
        assert calls == [0]  # latched after the first success

    def test_one_of_halts_losers(self):
        loser = CountingLeaf()
        root = OneOf([loser, true_from(2)])
        run(root, 6)
        assert loser.calls == 3  # ticks 0..2 only, then halted

    def test_action_leaf_without_tick_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ActionLeaf().tick(TickContext())

    def test_halted_subtree_cannot_emit(self):
        emitter = Sequence([Timer(0.5), EventEmit("LATE")])
        root = OneOf([emitter, true_from(1)])
        ctx = TickContext()
        statuses = []
        for now in range(30):
            ctx.now = now
            statuses.append(root.tick(ctx))
        assert statuses[1] is SUCCESS
        assert not ctx.blackboard.has("LATE")


class TestArbitration:
    def test_two_claimants_same_tick(self):
        bb = Blackboard()
        a, b = object(), object()
        bb.claim_motion("npc", a, 5)
        with pytest.raises(ArbitrationFault):
            bb.claim_motion("npc", b, 5)

    def test_same_claimant_reclaims(self):
        bb = Blackboard()
        a = object()
        bb.claim_motion("npc", a, 5)
        bb.claim_motion("npc", a, 5)

    def test_held_claim_blocks_a_later_tick(self):
        bb = Blackboard()
        holder = object()
        bb.claim_motion("npc", holder, 5)
        with pytest.raises(ArbitrationFault,
                           match="commanded by two behaviors in tick 9"):
            bb.claim_motion("npc", object(), 9)
        bb.claim_motion("npc", holder, 9)  # still the holder's

    def test_released_claim_hands_over_in_the_same_tick(self):
        bb = Blackboard()
        holder, successor = object(), object()
        bb.claim_motion("npc", holder, 5)
        bb.release_motion("npc", successor)  # not the holder: no effect
        with pytest.raises(ArbitrationFault):
            bb.claim_motion("npc", successor, 6)
        bb.release_motion("npc", holder)
        bb.claim_motion("npc", successor, 6)

    def test_distinct_actors_independent(self):
        bb = Blackboard()
        bb.claim_motion("hero", object(), 5)
        bb.claim_motion("npc", object(), 5)


first_true = st.integers(min_value=0, max_value=30)


class TestProperties:
    @given(ticks=st.lists(first_true, min_size=1, max_size=4))
    def test_one_of_success_at_min(self, ticks):
        root = OneOf([true_from(t) for t in ticks])
        statuses = run(root, 31, stop_on_terminal=True)
        assert statuses[-1] is SUCCESS
        assert len(statuses) - 1 == min(ticks)

    @given(ticks=st.lists(first_true, min_size=1, max_size=4))
    def test_parallel_success_at_max(self, ticks):
        root = Parallel([true_from(t) for t in ticks])
        statuses = run(root, 31, stop_on_terminal=True)
        assert statuses[-1] is SUCCESS
        assert len(statuses) - 1 == max(ticks)

    @given(durations=st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        min_size=1, max_size=4))
    def test_sequence_of_timers_adds_ticks(self, durations):
        root = Sequence([Timer(d) for d in durations])
        expected = sum(required_ticks(d, 0.05) for d in durations)
        statuses = run(root, expected + 1)
        assert statuses[-1] is SUCCESS
        assert statuses.count(RUNNING) == expected

    @given(samples=st.lists(st.booleans(), min_size=1, max_size=25),
           kind=st.sampled_from(["rise", "fall"]))
    def test_edge_oracle(self, samples, kind):
        node = EdgeCondition(kind, lambda ctx: samples[ctx.now])
        statuses = run(node, len(samples))
        fire = None
        for i in range(1, len(samples)):
            prev, cur = samples[i - 1], samples[i]
            hit = (not prev and cur) if kind == "rise" else (prev and not cur)
            if hit:
                fire = i
                break
        if fire is None:
            assert all(s is RUNNING for s in statuses)
        else:
            assert statuses[fire] is SUCCESS
            assert all(s is RUNNING for s in statuses[:fire])

    @given(samples=st.lists(st.booleans(), min_size=1, max_size=25),
           kind=st.sampled_from(["rise", "fall"]))
    def test_edge_never_fires_on_arming_sample(self, samples, kind):
        node = EdgeCondition(kind, lambda ctx: samples[ctx.now])
        assert run(node, 1) == [RUNNING]

    @given(schedule=st.lists(st.tuples(st.sampled_from("ABC"), st.integers(0, 9)),
                             max_size=20))
    def test_events_monotone(self, schedule):
        bb = Blackboard()
        seen = set()
        for name, now in sorted(schedule, key=lambda p: p[1]):
            bb.begin_tick(now)
            bb.emit(name, now)
            seen.add(name)
            assert set(bb.events) == seen

    @given(seed=st.integers(0, 10_000))
    def test_replay_determinism(self, seed):
        import random

        def build():
            rng = random.Random(seed)
            leaves = [Timer(rng.uniform(0, 1)),
                      EdgeCondition("rise", lambda ctx: ctx.now % 3 == 2),
                      EventEmit("X"), EventWait("X")]
            rng.shuffle(leaves)
            return Sequence([OneOf(leaves[:2]), Parallel(leaves[2:])])

        def nodes(root):
            stack, found = [root], []
            while stack:
                node = stack.pop()
                found.append(node)
                stack.extend(node.children())
            return found

        a, b = build(), build()
        ctx_a, ctx_b = TickContext(), TickContext()
        for now in range(25):
            ctx_a.now = ctx_b.now = now
            ctx_a.blackboard.begin_tick(now)
            ctx_b.blackboard.begin_tick(now)
            assert a.tick(ctx_a) is b.tick(ctx_b)
            assert [(n.status, n.halted) for n in nodes(a)] == \
                [(n.status, n.halted) for n in nodes(b)]


def folded_speed(kph):
    """A constant speed evaluator, folded by the checker."""
    analysis = check("scenario s:\n  a: vehicle\n  do serial:\n"
                     f"    a.change_speed(target: {kph}kph)\n")
    (invocation,) = analysis.scenarios[0].invocations.values()
    return invocation.args["target"]


SPEEDS = {kph: folded_speed(kph) for kph in (0, 10)}
# read on every tick: 1 m/s above b's speed
SPEEDS["live"] = lambda world: world.actors["b"].speed + 1.0

leaf_specs = st.one_of(
    st.tuples(st.just("timer"), st.integers(0, 12)),
    st.tuples(st.just("condition"), st.integers(0, 30)),
    st.tuples(st.just("edge"), st.sampled_from(["rise", "fall"]),
              st.lists(st.booleans(), min_size=1, max_size=6)),
    st.tuples(st.just("wait"), st.sampled_from("XY")),
    st.tuples(st.just("emit"), st.sampled_from("XY")),
    st.tuples(st.just("fail"), st.integers(0, 30)),
    st.tuples(st.just("drive"), st.sampled_from("ab"),
              st.sampled_from([None, 0, 10, "live"])),
    st.tuples(st.just("change_speed"), st.sampled_from("ab"),
              st.sampled_from([0, 10, "live"])),
)
tree_specs = st.recursive(
    leaf_specs,
    lambda children: st.tuples(st.sampled_from([Sequence, Parallel, OneOf]),
                               st.lists(children, min_size=1, max_size=4)),
    max_leaves=12)


def build_tree(spec, world):
    kind, *rest = spec
    if kind in (Sequence, Parallel, OneOf):
        return kind([build_tree(child, world) for child in rest[0]])
    if kind == "timer":
        return Timer(rest[0] * 0.05)
    if kind == "condition":
        return true_from(rest[0])
    if kind == "edge":
        edge, samples = rest
        return EdgeCondition(edge, lambda ctx: samples[ctx.now % len(samples)])
    if kind == "wait":
        return EventWait(rest[0])
    if kind == "emit":
        return EventEmit(rest[0])
    if kind == "fail":
        return FailingLeaf(rest[0])
    actor, speed = rest
    if kind == "drive":
        modifiers = Modifiers()
        if speed is not None:
            modifiers["speed"] = {"speed": SPEEDS[speed]}
        return DriveLeaf(actor, {}, modifiers, world)
    return ChangeSpeedLeaf(actor, {"target": SPEEDS[speed]}, Modifiers(),
                           world)


def tick_tree(spec, reference, ticks=40):
    """Run a tree on a two-vehicle world as ``CompiledScenario`` does.

    The reference resets every node's ``due`` before each tick, so every
    node is ticked as if no node were ever quiescent.
    """
    world = World(TOWN06, 0.05)
    for lane, name in enumerate("ab", start=1):
        world.place_on_lane(world.add_vehicle(name), lane, 50.0)
    root = build_tree(spec, world)
    cs = CompiledScenario(None, root, world, Blackboard())
    history = []
    for now in range(ticks):
        if reference:
            stack = [root]
            while stack:
                node = stack.pop()
                node.due = 0
                stack.extend(node.children())
        try:
            status = cs.step_tick()
        except ArbitrationFault as fault:
            history.append((now, str(fault)))
            break
        history.append((now, status, list(cs.blackboard.emissions),
                        [(a.speed, a.target_speed) for a in
                         world.actors.values()]))
        if status is not RUNNING:
            break
    return history, dict(cs.blackboard.events)


class TestQuiescence:
    def test_timer_is_due_at_its_deadline(self):
        calls = []

        class CountingTimer(Timer):
            def _tick(self, ctx):
                calls.append(ctx.now)
                return super()._tick(ctx)

        timer = CountingTimer(0.5)
        root = Parallel([Sequence([timer]), always_running()])
        assert run(root, 12) == [RUNNING] * 12
        assert calls == [0, 10] and timer.status is SUCCESS

    def test_settled_children_make_a_quiescent_parent(self):
        root = OneOf([Timer(0.5), Sequence([Timer(0.2), Timer(1.0)])])
        run(root, 5)
        assert root.due == 10
        never = Parallel([DriveLeaf("a", {}, Modifiers(), None)])
        run(never, 1)
        assert never.due == NEVER

    @settings(max_examples=200, deadline=None)
    @given(spec=tree_specs)
    def test_skipping_matches_ticking_every_node(self, spec):
        assert tick_tree(spec, False) == tick_tree(spec, True)
