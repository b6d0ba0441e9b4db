"""Unit tests for the assembly parser and pretty printer."""

import pytest

from repro.ir import (
    AsmSyntaxError,
    Immediate,
    Opcode,
    format_kernel,
    parse_kernel,
    parse_kernels,
)
from repro.ir import parser as parser_module
from repro.ir.registers import gpr, pred
from repro.workloads.generators import generate_workload
from repro.workloads.suites import all_workloads


def _operand(token):
    """The one source operand of ``mov R3, <token>`` (on line 4)."""
    kernel = parse_kernel(
        f".kernel k\n.livein R0\nentry:\n    mov R3, {token}\n    exit\n"
    )
    return kernel.blocks[0].instructions[0].srcs[0]


class TestParsing:
    def test_basic_kernel(self, straight_kernel):
        assert straight_kernel.name == "straight"
        assert straight_kernel.live_in == (gpr(0), gpr(1), gpr(2))
        assert straight_kernel.num_instructions == 8

    def test_guard_parsing(self):
        kernel = parse_kernel(
            """
            .kernel g
            entry:
                setp P1, R0, 4
                @!P1 bra entry
            done:
                exit
            """
        )
        bra = kernel.blocks[0].instructions[1]
        assert bra.guard == pred(1)
        assert bra.guard_sense is False

    def test_brackets_are_decorative(self):
        kernel = parse_kernel(
            ".kernel k\nentry:\n ldg R1, [R0]\n stg [R1], R1\n exit\n"
        )
        ldg = kernel.blocks[0].instructions[0]
        assert ldg.srcs == (gpr(0),)

    def test_comments_stripped(self):
        kernel = parse_kernel(
            ".kernel k  ; trailing\nentry:\n"
            "  mov R1, 4   # comment\n  exit ; done\n"
        )
        assert kernel.blocks[0].instructions[0].srcs == (Immediate(4),)

    def test_immediate_formats(self):
        kernel = parse_kernel(
            ".kernel k\nentry:\n mov R1, 0x10\n fmul R2, R1, 2.5\n exit\n"
        )
        assert kernel.blocks[0].instructions[0].srcs[0] == Immediate(16)
        assert kernel.blocks[0].instructions[1].srcs[1] == Immediate(2.5)

    def test_negative_immediate(self):
        kernel = parse_kernel(".kernel k\nentry:\n mov R1, -3\n exit\n")
        assert kernel.blocks[0].instructions[0].srcs[0] == Immediate(-3)

    def test_multiple_kernels(self):
        kernels = parse_kernels(
            ".kernel a\nentry:\n exit\n.kernel b\nentry:\n exit\n"
        )
        assert [k.name for k in kernels] == ["a", "b"]

    def test_livein_comma_separated(self):
        kernel = parse_kernel(
            ".kernel k\n.livein R0, R1\nentry:\n exit\n"
        )
        assert kernel.live_in == (gpr(0), gpr(1))

    def test_wide_register(self):
        kernel = parse_kernel(
            ".kernel k\n.livein RD0\nentry:\n mov RD2, RD0\n exit\n"
        )
        mov = kernel.blocks[0].instructions[0]
        assert mov.dst == gpr(2, 64)


class TestOperands:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("R5", gpr(5)),
            ("r5", gpr(5)),
            ("RD2", gpr(2, 64)),
            ("rd2", gpr(2, 64)),
            ("Rd2", gpr(2, 64)),
            ("RQ1", gpr(1, 128)),
            ("rq1", gpr(1, 128)),
            ("P1", pred(1)),
            ("p1", pred(1)),
            ("[R0]", gpr(0)),
            ("[ r0 ]", gpr(0)),
        ],
    )
    def test_registers(self, token, expected):
        assert _operand(token) == expected

    @pytest.mark.parametrize(
        "token,value",
        [
            ("7", 7),
            ("+4", 4),
            ("-3", -3),
            ("0x1F", 31),
            ("0X1f", 31),
            ("0b101", 5),
            ("[0x10]", 16),
            ("2.5", 2.5),
            ("-0.5", -0.5),
            ("1e3", 1000.0),
            ("1E3", 1000.0),
        ],
    )
    def test_immediates(self, token, value):
        operand = _operand(token)
        assert isinstance(operand, Immediate)
        assert type(operand.value) is type(value)
        assert operand.value == value

    def test_register_table_is_bounded(self):
        bound = parser_module.REGISTER_TOKENS
        assert parser_module._register.cache_info().maxsize == bound
        names = " ".join(f"R{index}" for index in range(bound + 40))
        parse_kernel(f".kernel k\n.livein {names}\nentry:\n exit\n")
        assert parser_module._register.cache_info().currsize == bound


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "entry:\n exit\n",                      # before .kernel
            ".kernel\nentry:\n exit\n",             # missing name
            ".kernel k\nentry:\n frob R1, R2\n",    # unknown opcode
            ".kernel k\nentry:\n iadd R1\n exit\n",  # arity
            ".kernel k\nentry:\n iadd 4, R1, R2\n",  # dst immediate
            ".kernel k\nentry:\n bra a, b\n",        # bra arity
            ".kernel k\nentry:\n @P0\n exit\n",      # guard alone
            ".kernel k\nentry:\n @R0 bra entry\n",   # non-pred guard
            ".kernel k\nentry:\n mov R1, ???\n",     # bad operand
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(AsmSyntaxError):
            parse_kernels(text)

    @pytest.mark.parametrize(
        "token,operand",
        [
            ("[ ]", "''"),
            ("R", "'R'"),
            ("Rx", "'Rx'"),
            ("E5", "'E5'"),
            ("1.2.3", "'1.2.3'"),
            ("R1x", "'R1x'"),
            ("???", "'???'"),
            ("p", "'p'"),
            ("[R1", "'[R1'"),
            ("inf", "'inf'"),
        ],
    )
    def test_bad_operand_messages(self, token, operand):
        with pytest.raises(AsmSyntaxError) as excinfo:
            _operand(token)
        assert str(excinfo.value) == (
            f"line 4: cannot parse operand {operand}: 'mov R3, {token}'"
        )
        assert excinfo.value.line_number == 4

    def test_bad_register_messages(self):
        with pytest.raises(AsmSyntaxError) as excinfo:
            parse_kernel(".kernel k\nentry:\n @Px bra entry\n exit\n")
        assert str(excinfo.value) == (
            "line 3: not a register name: 'Px': '@Px bra entry'"
        )
        with pytest.raises(ValueError) as excinfo:
            parse_kernel(".kernel k\n.livein 9R1\nentry:\n exit\n")
        assert str(excinfo.value) == "not a register name: '9R1'"

    def test_parse_kernel_rejects_multiple(self):
        # AsmSyntaxError (a ValueError) so every caller reports parse
        # problems through one exception type, traceback-free.
        with pytest.raises(AsmSyntaxError) as excinfo:
            parse_kernel(
                ".kernel a\nentry:\n exit\n.kernel b\nentry:\n exit\n"
            )
        assert "expected exactly 1 kernel" in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)


class TestRoundTrip:
    def test_format_reparse(self, loop_kernel, hammock_kernel):
        for kernel in (loop_kernel, hammock_kernel):
            text = format_kernel(kernel)
            reparsed = parse_kernel(text)
            assert reparsed.name == kernel.name
            assert reparsed.num_instructions == kernel.num_instructions
            for (_, a), (_, b) in zip(
                kernel.instructions(), reparsed.instructions()
            ):
                assert a.opcode is b.opcode
                assert a.dst == b.dst
                assert a.srcs == b.srcs
                assert a.target == b.target
                assert a.guard == b.guard


    def test_reparse_keeps_the_content_fingerprint(self):
        kernels = [spec.kernel for spec in all_workloads(1.0)]
        kernels += [
            generate_workload(seed, num_warps=1).kernel
            for seed in range(200)
        ]
        for kernel in kernels:
            reparsed = parse_kernel(format_kernel(kernel))
            assert (
                reparsed.content_fingerprint()
                == kernel.content_fingerprint()
            ), kernel.name


class TestAnnotatedPrinting:
    def test_annotations_shown(self, loop_kernel):
        from repro.alloc import AllocationConfig, allocate_kernel
        from repro.ir import format_allocated_kernel

        allocate_kernel(loop_kernel, AllocationConfig.best_paper_config())
        text = format_allocated_kernel(loop_kernel)
        assert "end-strand" in text
        assert "ORF[" in text or "LRF[" in text
