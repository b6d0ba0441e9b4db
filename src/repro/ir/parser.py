"""Text assembly front-end for the PTX-like IR.

The syntax is a compact PTX flavour, convenient for tests and examples::

    .kernel saxpy
    .livein R0 R1 R2
    entry:
        ldg R3, [R0]
        ffma R4, R3, R1, R2
        setp P0, R4, 0
        @P0 bra done
        stg [R0], R4
    done:
        exit

Rules
-----
* ``.kernel NAME`` starts a kernel; ``.livein`` lists pre-populated
  registers (thread id, parameters).
* ``label:`` starts a basic block.
* Instructions are ``opcode dst, src1, src2, ...``; opcodes without a
  destination (``stg``, ``sts``, ``bra``, ``exit``) list only sources.
* ``@P0`` / ``@!P0`` prefixes guard an instruction on a predicate.
* Square brackets around operands (memory style) are decorative and are
  stripped.
* ``#`` and ``;`` start comments.

Cost
----
The allocation service parses every IR-text request twice, once to
fingerprint it and once in the pool worker, so the parser keeps its
per-operand work small: each token is stripped once, only a token that
starts with ``R``/``r``/``P``/``p`` is tried as a register (an
immediate never raises on the way to its number), and register tokens
already seen come from a bounded table of :data:`REGISTER_TOKENS`
parsed :class:`~repro.ir.registers.Register` values, which are frozen
and so safe to share between kernels.  Errors carry the same messages
whichever path a token takes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from ..obs.tracer import TRACER
from .builder import KernelBuilder
from .instructions import Immediate, Opcode, Operand
from .kernel import Kernel
from .registers import Register, parse_register


class AsmSyntaxError(ValueError):
    """Raised on malformed assembly text.

    ``line_number`` is ``None`` for document-level diagnostics (e.g.
    the wrong number of kernels) that have no single offending line.
    """

    def __init__(
        self, line_number: Optional[int], line: str, message: str
    ) -> None:
        if line_number is None:
            super().__init__(message)
        else:
            super().__init__(
                f"line {line_number}: {message}: {line.strip()!r}"
            )
        self.line_number = line_number


_OPCODES = {op.value: op for op in Opcode}

#: Distinct register tokens whose parsed value the parser keeps (each
#: spelling is its own entry: ``R3`` and ``r3``).
REGISTER_TOKENS = 512

#: First characters of a token that may name a register.
_REGISTER_INITIALS = frozenset("RrPp")


@lru_cache(maxsize=REGISTER_TOKENS)
def _register(token: str) -> Register:
    """:func:`~repro.ir.registers.parse_register`, memoized by token (a
    malformed token raises every time)."""
    return parse_register(token)


def parse_kernel(text: str) -> Kernel:
    """Parse one kernel from assembly text."""
    kernels = parse_kernels(text)
    if len(kernels) != 1:
        raise AsmSyntaxError(
            None, "", f"expected exactly 1 kernel, found {len(kernels)}"
        )
    return kernels[0]


def parse_kernels(text: str) -> List[Kernel]:
    """Parse all kernels from assembly text."""
    with TRACER.span("ir.parse", bytes=len(text)):
        return _parse_kernels(text)


def _parse_kernels(text: str) -> List[Kernel]:
    kernels: List[Kernel] = []
    builder: Optional[KernelBuilder] = None
    live_in: List[Register] = []

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        if line.startswith(".kernel"):
            if builder is not None:
                kernels.append(builder.build())
            name = line[len(".kernel"):].strip()
            if not name:
                raise AsmSyntaxError(line_number, raw_line, "missing name")
            builder = KernelBuilder(name)
            live_in = []
            continue
        if builder is None:
            raise AsmSyntaxError(
                line_number, raw_line, "text before .kernel directive"
            )
        if line.startswith(".livein"):
            for token in line[len(".livein"):].replace(",", " ").split():
                live_in.append(_register(token))
            builder.live_in = tuple(live_in)
            continue
        if line.endswith(":") and " " not in line:
            builder.block(line[:-1])
            continue
        _parse_instruction(builder, line, line_number, raw_line)

    if builder is not None:
        kernels.append(builder.build())
    return kernels


def _strip_comment(line: str) -> str:
    for marker in ("#", ";"):
        position = line.find(marker)
        if position >= 0:
            line = line[:position]
    return line


def _parse_instruction(
    builder: KernelBuilder, line: str, line_number: int, raw_line: str
) -> None:
    guard, guard_sense, line = _parse_guard(line, line_number, raw_line)
    parts = line.split(None, 1)
    mnemonic = parts[0].lower()
    opcode = _OPCODES.get(mnemonic)
    if opcode is None:
        raise AsmSyntaxError(
            line_number, raw_line, f"unknown opcode {mnemonic!r}"
        )
    operand_text = parts[1] if len(parts) > 1 else ""
    tokens = [
        token for token in map(str.strip, operand_text.split(",")) if token
    ]

    target: Optional[str] = None
    if opcode is Opcode.BRA:
        if len(tokens) != 1:
            raise AsmSyntaxError(
                line_number, raw_line, "bra takes exactly one label"
            )
        target = tokens[0]
        tokens = []

    dst: Optional[Register] = None
    if opcode.info.has_dest:
        if not tokens:
            raise AsmSyntaxError(
                line_number, raw_line, "missing destination operand"
            )
        dst_operand = _parse_operand(tokens.pop(0), line_number, raw_line)
        if not isinstance(dst_operand, Register):
            raise AsmSyntaxError(
                line_number, raw_line, "destination must be a register"
            )
        dst = dst_operand

    srcs = tuple(
        _parse_operand(token, line_number, raw_line) for token in tokens
    )
    try:
        builder.op(
            opcode, dst, *srcs,
            guard=guard, guard_sense=guard_sense, target=target,
        )
    except ValueError as error:
        raise AsmSyntaxError(line_number, raw_line, str(error)) from error


def _parse_guard(
    line: str, line_number: int, raw_line: str
) -> Tuple[Optional[Register], bool, str]:
    if not line.startswith("@"):
        return None, True, line
    parts = line.split(None, 1)
    if len(parts) != 2:
        raise AsmSyntaxError(line_number, raw_line, "guard without opcode")
    guard_text = parts[0][1:]
    guard_sense = True
    if guard_text.startswith("!"):
        guard_sense = False
        guard_text = guard_text[1:]
    try:
        guard = _register(guard_text)
    except ValueError as error:
        raise AsmSyntaxError(line_number, raw_line, str(error)) from error
    if not guard.is_pred:
        raise AsmSyntaxError(
            line_number, raw_line, "guard must be a predicate register"
        )
    return guard, guard_sense, parts[1]


def _parse_operand(
    token: str, line_number: int, raw_line: str
) -> Operand:
    """One stripped, non-empty operand token: a register or an immediate."""
    if token[0] == "[" and token[-1] == "]":
        token = token[1:-1].strip()
    try:
        # No number starts with a register's letter, so a token that
        # does is a register or nothing.
        if token[:1] in _REGISTER_INITIALS:
            return _register(token)
        if any(ch in token for ch in ".eE") and not token.isdigit():
            return Immediate(float(token))
        return Immediate(int(token, 0))
    except ValueError:
        raise AsmSyntaxError(
            line_number, raw_line, f"cannot parse operand {token!r}"
        ) from None
