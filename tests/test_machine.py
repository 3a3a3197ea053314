import random

import pytest

from blockdensity.machine import (
    DECJZ,
    HALT,
    INC,
    Halted,
    OutOfBudget,
    _simulate,
    decode,
    encode,
    identity_index,
    program_text,
    run,
    run_program,
    tail_behavior,
    TailHalts,
)

LOOP = [(INC, 0), (DECJZ, 1, 0)]          # register 1 stays zero: jumps back forever
CONST0 = [(DECJZ, 0, 2), (DECJZ, 1, 0)]   # drains register 0, then halts via clamp
SUCC = [(INC, 0)]


def test_decode_zero_is_empty_program():
    assert decode(0) == []


def test_identity_index_is_stable_and_identity():
    e = identity_index()
    assert e == identity_index() == 0
    for x in (0, 7, 41):
        outcome = run(e, x, 100)
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
    assert run(e, 0, 1000) == OutOfBudget(1000)
    for x in range(0, 50, 7):
        assert isinstance(run(e, x, 500), OutOfBudget)


def test_budget_monotonicity():
    rng = random.Random(11)
    for _ in range(300):
        e = rng.randint(0, 5000)
        x = rng.randint(0, 30)
        small = run(e, x, 64)
        if isinstance(small, Halted):
            big = run(e, x, 4096)
            assert big == Halted(small.value, small.steps)


def test_determinism():
    for e in (0, 1, 76, 4462):
        assert run(e, 9, 300) == run(e, 9, 300)


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
    with pytest.raises(ValueError):
        run(0, 0, 0)


def test_tail_behavior_matches_literal_simulation():
    budget = 60
    rng = random.Random(20260808)
    indices = list(range(400)) + [rng.randint(400, 300_000) for _ in range(200)]
    for e in indices:
        program = decode(e)
        tail = tail_behavior(program, budget)
        for x in (budget + 1, budget + 2, budget + 17, budget + 400):
            literal = _simulate(program, x, budget)
            if isinstance(tail, TailHalts):
                assert literal == Halted(x + tail.offset, tail.steps)
            else:
                assert literal == OutOfBudget(budget)


def test_run_program_uses_tail_for_large_inputs_consistently():
    budget = 50
    for e in range(300):
        program = decode(e)
        for x in (budget + 1, budget + 9):
            assert run_program(program, x, budget) == _simulate(program, x, budget)


def test_cycle_shortcut_agrees_with_full_budget_run():
    # LOOP recurs after two steps; the literal run must still report the budget.
    assert _simulate(LOOP, 5, 100_000) == OutOfBudget(100_000)


def test_program_text():
    assert program_text([(INC, 2), (DECJZ, 0, 1), (HALT,)]) == "INC 2\nDECJZ 0 1\nHALT"
