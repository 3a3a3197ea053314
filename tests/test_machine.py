import random
import tracemalloc
from math import factorial

import pytest
from hypothesis import assume, example, given, strategies as st

from blockdensity import machine
from blockdensity.machine import (
    DECJZ,
    HALT,
    INC,
    Halted,
    OutOfBudget,
    decode,
    identity_index,
    program_text,
    run_program,
    tail_behavior,
    TailDiverges,
    TailHalts,
)

from _oracles import encode, simulate

# Programs are tuples, as decode makes them: tail_behavior memoizes by program.
LOOP = ((INC, 0), (DECJZ, 1, 0))          # register 1 stays zero: jumps back forever
CONST0 = ((DECJZ, 0, 2), (DECJZ, 1, 0))   # drains register 0, then halts via clamp
SUCC = ((INC, 0),)
SPIN = ((DECJZ, 1, 0),)                   # jumps to itself: every state repeats
# Raises and clears register 1 each lap, so its state recurs after three steps.
LAP = ((INC, 1), (DECJZ, 1, 3), (DECJZ, 2, 0))
# Input 0 jumps past HALT to INC; every other input stops at HALT.
BOUNDARY = ((DECJZ, 0, 2), (HALT,), (INC, 0))
# Raises register 1 to 2, then counts it down one unit per lap into
# register 0: the output is the input plus 2.
COUNTDOWN = ((INC, 1), (INC, 1), (DECJZ, 1, 5), (INC, 0), (DECJZ, 2, 2), (HALT,))


def test_decode_zero_is_empty_program():
    assert decode(0) == ()


def test_decode_returns_one_immutable_program_per_index():
    for e in (0, 76, 4462):
        program = decode(e)
        assert program is decode(e)
        assert isinstance(program, tuple)
        assert all(isinstance(ins, tuple) for ins in program)


def test_identity_index_is_stable_and_identity():
    e = identity_index()
    assert e == identity_index() == 0
    for x in (0, 7, 41):
        outcome = run_program(decode(e), x, 100)
        assert isinstance(outcome, Halted)
        assert outcome.value == x
        assert outcome.steps <= 100


def test_every_index_decodes_and_targets_clamp():
    for e in range(2000):
        program = decode(e)
        for ins in program:
            if ins[0] == DECJZ:
                assert 0 <= ins[2] <= len(program)


def test_encode_decode_round_trip_behavioral():
    for e in range(1000):
        program = decode(e)
        twin = decode(encode(program))
        for x in range(0, 20, 3):
            assert run_program(program, x, 256) == run_program(twin, x, 256)


def test_loop_program_runs_out_of_budget():
    e = encode(LOOP)
    assert run_program(decode(e), 0, 1000) == OutOfBudget(1000)
    for x in range(0, 50, 7):
        assert isinstance(run_program(decode(e), x, 500), OutOfBudget)


def test_budget_monotonicity():
    rng = random.Random(11)
    for _ in range(300):
        e = rng.randint(0, 5000)
        x = rng.randint(0, 30)
        small = run_program(decode(e), x, 64)
        if isinstance(small, Halted):
            big = run_program(decode(e), x, 4096)
            assert big == Halted(small.value, small.steps)


def test_determinism():
    for e in (0, 1, 76, 4462):
        assert run_program(decode(e), 9, 300) == run_program(decode(e), 9, 300)


def test_reference_behaviors_on_small_inputs():
    ident = decode(identity_index())
    for x in range(50):
        assert run_program(ident, x, 10) == Halted(x, 0)
        out = run_program(SUCC, x, 10)
        assert isinstance(out, Halted) and out.value == x + 1
        out = run_program(CONST0, x, 200)
        assert isinstance(out, Halted) and out.value == 0
        assert isinstance(run_program(LOOP, x, 200), OutOfBudget)


def test_budget_precondition():
    with pytest.raises(ValueError, match="budget must be at least 1"):
        run_program(decode(0), 0, 0)
    with pytest.raises(ValueError, match="budget must be at least 1"):
        tail_behavior(decode(0), 0)
    with pytest.raises(ValueError, match="input must be a natural number"):
        run_program(decode(0), -1, 10)


def test_tail_behavior_matches_literal_simulation():
    budget = 60
    rng = random.Random(20260808)
    indices = list(range(400)) + [rng.randint(400, 300_000) for _ in range(200)]
    for e in indices:
        program = decode(e)
        tail = tail_behavior(program, budget)
        for x in (budget + 1, budget + 2, budget + 17, budget + 400):
            literal = run_program(program, x, budget)
            if isinstance(tail, TailHalts):
                assert literal == Halted(x + tail.offset, tail.steps)
            else:
                assert literal == OutOfBudget(budget)


@given(
    e=st.integers(0, 4999),
    budget=st.integers(1, 200),
    k=st.integers(1, 60),
    extra=st.integers(1, 10**6),
)
def test_tail_lemma_matches_literal_runs(e, budget, k, extra):
    """The lemma's prediction for an input above the budget, up to factorial
    scale, equals the literal run."""
    program = decode(e)
    x = budget + extra + factorial(k)
    tail = tail_behavior(program, budget)
    if isinstance(tail, TailHalts):
        want = Halted(x + tail.offset, tail.steps)
    else:
        want = OutOfBudget(budget)
    assert run_program(program, x, budget) == want


@given(e=st.integers(0, 4999), budget=st.integers(1, 200), data=st.data())
def test_halting_tail_covers_every_input_above_its_steps(e, budget, data):
    """A tail path that halts after `steps` steps predicts the literal run of
    every input above `steps`, not only of those above the budget."""
    program = decode(e)
    tail = tail_behavior(program, budget)
    assume(isinstance(tail, TailHalts))
    x = data.draw(st.integers(tail.steps + 1, budget + 50), label="x")
    assert run_program(program, x, budget) == Halted(x + tail.offset, tail.steps)


@given(
    e=st.integers(0, 4999),
    budget=st.integers(1, 200),
    x=st.integers(0, 60),
    k=st.integers(1, 60),
    extra=st.integers(1, 10**6),
)
# A register other than 0 decremented from 2.
@example(e=encode(COUNTDOWN), budget=50, x=3, k=5, extra=1)
def test_both_runners_match_the_reference_interpreter(e, budget, x, k, extra):
    """run_program on a small input, and tail_behavior's prediction on an
    input above the budget up to factorial scale, equal a plain simulator
    with no cycle rule and no tail: the two runners share one loop, so this
    checks its dispatch from outside it."""
    program = decode(e)
    want = simulate(program, x, budget)
    assert run_program(program, x, budget) == (
        OutOfBudget(budget) if want is None else Halted(*want))
    big = budget + extra + factorial(k)
    tail = tail_behavior(program, budget)
    if isinstance(tail, TailHalts):
        assert simulate(program, big, budget) == (big + tail.offset, tail.steps)
    else:
        assert simulate(program, big, budget) is None


def test_halting_tail_does_not_cover_an_input_tested_at_zero():
    # The tail path decrements register 0 and halts after two steps; input 0
    # is tested at zero, jumps to INC and so leaves the tail's path.
    tail = tail_behavior(BOUNDARY, 100)
    assert tail == TailHalts(-1, 2)
    assert run_program(BOUNDARY, 0, 100) == Halted(1, 2)
    for x in range(tail.steps + 1, 40):
        assert run_program(BOUNDARY, x, 100) == Halted(x + tail.offset, tail.steps)


def test_cycle_shortcut_agrees_with_full_budget_run():
    # Register 0 grows every lap of LOOP, so no state repeats and the cycle
    # rule never fires: the run spends its whole budget.
    assert run_program(LOOP, 5, 100_000) == OutOfBudget(100_000)


@pytest.mark.parametrize("program", [SPIN, LAP], ids=["spin", "lap"])
def test_cycle_rule_agrees_with_run_without_it(program, monkeypatch):
    """A repeated state ends the run early with the answer the full budget
    gives; a budget no run could spend shows that it does end early."""
    early = {budget: run_program(program, 7, budget) for budget in (65, 66, 200, 5000)}
    assert run_program(program, 7, 10**15) == OutOfBudget(10**15)
    monkeypatch.setattr(machine, "_CYCLE_CHECK_AFTER", 10**6)
    for budget, outcome in early.items():
        assert outcome == run_program(program, 7, budget) == OutOfBudget(budget)


def test_repeat_check_keeps_one_state_on_a_long_countdown():
    """Program 3157, (DECJZ 0 0, DECJZ 1 0), counts a 66 000-bit register 0
    down and spends its whole budget with no repeat. The repeat check holds
    one saved state, so the run's allocations peak under 20 MB; a set of
    every state met held the budget times the input's size, 445 MB."""
    tracemalloc.start()
    try:
        outcome = run_program(decode(3157), (1 << 66000) - 12345, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == OutOfBudget(10**5)
    assert peak < 20 * 10**6


@pytest.mark.parametrize("program", [LOOP, CONST0], ids=["loop", "const0"])
def test_tail_cycle_rule_leaves_register_0_out(program):
    """Both loops change register 0 on every lap, so their tails end at once
    under a budget no run could spend only if register 0 stays out of the
    tail's state key."""
    assert tail_behavior(program, 10**15) == TailDiverges()


def test_program_text():
    assert program_text([(INC, 2), (DECJZ, 0, 1), (HALT,)]) == "INC 2\nDECJZ 0 1\nHALT"
