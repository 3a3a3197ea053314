"""A minimal counter machine standing in for a fixed program enumeration.

Instructions are INC r (increment a register), DECJZ r t (decrement register r,
or jump to t when it is zero) and HALT. Every natural number decodes to a
program through iterated Cantor unpairing, jump targets clamping to the program
end, so the enumeration is total. A program is an immutable tuple of
instruction tuples, so decode memoizes it per index. Input goes into register 0
and the output is register 0 at the halt; runs are step-bounded and exceeding
the budget is reported explicitly, never silently.

One interpreter loop, _run, serves both runners. run_program runs it from the
input. tail_behavior runs it from budget + 1, which decides at once every
input above the budget, and, when its path halts after S steps, every input
above S; memoized like decode, it runs once per (program, budget) however
many stages schedule the program. Only the construction uses it: the
certificates rerun each witness literally with run_program, which memoizes
nothing; a StageChecks pass keeps its own memo (verify's module docstring).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Union

from .numerics import cantor_unpair

INC = "INC"
DECJZ = "DECJZ"
HALT = "HALT"

Instruction = tuple
# Immutable, so decode can hand one cached program to every caller.
Program = tuple

# Steps the interpreter loop runs before it starts comparing states.
_CYCLE_CHECK_AFTER = 64


# Outcomes are NamedTuples, so they compare as tuples: Halted(1, 2) equals
# TailHalts(1, 2) and TailDiverges() is falsy. Dispatch on them by isinstance.
class Halted(NamedTuple):
    value: int
    steps: int


class OutOfBudget(NamedTuple):
    budget: int


Outcome = Union[Halted, OutOfBudget]


class TailHalts(NamedTuple):
    """Every input above `steps` halts after `steps` steps with value
    input + offset; steps never exceeds the budget."""

    offset: int
    steps: int


class TailDiverges(NamedTuple):
    """Every input above the budget exhausts the budget."""


@lru_cache(maxsize=4096)
def decode(e: int) -> Program:
    """Total decoding of a natural number into a program, once per index."""
    if e < 0:
        raise ValueError("program index must be a natural number")
    count, body = cantor_unpair(e)
    codes = []
    for _ in range(count):
        code, body = cantor_unpair(body)
        codes.append(code)
    program = []
    for code in codes:
        tag, operand = cantor_unpair(code)
        if tag == 0:
            program.append((INC, operand))
        elif tag == 1:
            r, target = cantor_unpair(operand)
            program.append((DECJZ, r, min(target, count)))
        else:
            program.append((HALT,))
    return tuple(program)


def identity_index() -> int:
    """The least index decoding to the empty program (immediate halt)."""
    e = 0
    while decode(e):
        e += 1
    return e


def program_text(program: Program) -> str:
    """One instruction per line, operands space-separated."""
    lines = []
    for ins in program:
        lines.append(" ".join(str(part) for part in ins))
    return "\n".join(lines)


def _run(program: Program, r0: int, budget: int, literal: bool) -> Outcome:
    """The one interpreter loop, from register 0 = r0 and the others zero.

    From _CYCLE_CHECK_AFTER steps on it compares each state, (pc, r0, other
    registers) when literal and (pc, other registers) otherwise, with the one
    saved at the last power of two steps (Brent's cycle detection). A repeat
    proves the path never halts, so it ends the run as OutOfBudget at once.
    """
    n = len(program)
    regs: dict[int, int] = {}
    pc = 0
    steps = 0
    check_after = save_at = _CYCLE_CHECK_AFTER
    saved = None
    while True:
        if pc >= n:
            return Halted(r0, steps)
        if steps >= budget:
            return OutOfBudget(budget)
        ins = program[pc]
        op = ins[0]
        if op == INC:
            r = ins[1]
            if r:
                regs[r] = regs.get(r, 0) + 1
            else:
                r0 += 1
            pc += 1
        elif op == DECJZ:
            r = ins[1]
            v = regs.get(r, 0) if r else r0
            if v:
                if not r:
                    r0 = v - 1
                elif v == 1:
                    del regs[r]
                else:
                    regs[r] = v - 1
                pc += 1
            else:
                pc = ins[2]
        else:
            return Halted(r0, steps + 1)
        steps += 1
        if steps >= check_after:
            others = tuple(sorted(regs.items()))
            state = (pc, r0, others) if literal else (pc, others)
            if state == saved:
                return OutOfBudget(budget)
            if steps >= save_at:
                saved, save_at = state, 2 * steps


@lru_cache(maxsize=4096)
def tail_behavior(program: Program, budget: int) -> TailHalts | TailDiverges:
    """Joint outcome of the program on every input strictly above the budget.

    This is the literal run from register 0 = budget + 1. Register 0 loses at
    most one unit per step, so at each step t < budget it is at least
    budget + 1 - t >= 2 and no DECJZ 0 sees zero: every input above the budget
    follows this run's control path, and its output is the input plus the
    run's offset. The path never reads register 0, so a repeat of (pc, other
    registers) proves divergence.

    When the path halts after `steps` steps, the same holds for every input
    x > steps: at each step t < steps register 0 is at least x - t > 0, so
    no test on it sees zero and the run is Halted(x + offset, steps). Inputs
    x <= steps may reach zero and must be run literally.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    outcome = _run(program, budget + 1, budget, False)
    if isinstance(outcome, Halted):
        return TailHalts(outcome.value - budget - 1, outcome.steps)
    return TailDiverges()


def run_program(program: Program, x: int, budget: int) -> Outcome:
    """Literal step-by-step run of a decoded program; input in register 0.
    A repeated state (pc, registers) ends it as OutOfBudget (see _run)."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if x < 0:
        raise ValueError("input must be a natural number")
    return _run(program, x, budget, True)
