"""Unit tests for semantic elaboration and its checks."""

import importlib

import pytest

from repro.diagnostics import ErrorCategory, compile_source
from repro.verilog import ast
from repro.verilog.elaborate import _MAX_UNROLL, Elaborator, const_eval

elaborate_mod = importlib.import_module("repro.verilog.elaborate")


def cats(code: str) -> list[ErrorCategory]:
    return [d.category for d in compile_source(code).errors]


def compile_ok(code: str):
    result = compile_source(code)
    assert result.ok, result.log
    return result


class TestSymbolResolution:
    def test_clean_module_has_no_errors(self):
        compile_ok(
            "module top_module(input [7:0] in, output [7:0] out);\n"
            "assign out = in;\nendmodule"
        )

    def test_undeclared_in_rhs(self):
        assert cats(
            "module m(output y);\nassign y = nothere;\nendmodule"
        ) == [ErrorCategory.UNDECLARED_ID]

    def test_undeclared_lvalue(self):
        assert ErrorCategory.UNDECLARED_ID in cats(
            "module m(input a);\nassign ghost = a;\nendmodule"
        )

    def test_undeclared_clk_in_sensitivity(self):
        # Fig. 5 of the paper: posedge of an undeclared clock.
        result = compile_source(
            "module top_module(input [99:0] in, output reg [99:0] out);\n"
            "always @(posedge clk) out <= in;\nendmodule"
        )
        assert not result.ok
        assert result.errors[0].category is ErrorCategory.UNDECLARED_ID
        assert result.errors[0].args["name"] == "clk"

    def test_parameter_usable_in_range(self):
        compile_ok(
            "module m #(parameter W = 8)(input [W-1:0] d, output [W-1:0] q);\n"
            "assign q = d;\nendmodule"
        )

    def test_localparam_in_expression(self):
        compile_ok(
            "module m(output [7:0] y);\nlocalparam V = 42;\n"
            "assign y = V;\nendmodule"
        )

    def test_function_locals_scoped(self):
        compile_ok(
            "module m(input [7:0] a, output [7:0] y);\n"
            "function [7:0] inc(input [7:0] x);\n"
            "  integer t;\n"
            "  begin t = x; inc = t + 1; end\n"
            "endfunction\n"
            "assign y = inc(a);\nendmodule"
        )

    def test_genvar_loop_expansion(self):
        compile_ok(
            "module m(input [3:0] a, output [3:0] y);\n"
            "genvar g;\n"
            "generate for (g = 0; g < 4; g = g + 1) begin : blk\n"
            "  assign y[g] = ~a[g];\n"
            "end endgenerate\nendmodule"
        )

    def test_generate_index_out_of_range_caught(self):
        assert ErrorCategory.INDEX_RANGE in cats(
            "module m(input [3:0] a, output [3:0] y);\n"
            "genvar g;\n"
            "generate for (g = 0; g < 5; g = g + 1) begin : blk\n"
            "  assign y[g] = ~a[g];\n"
            "end endgenerate\nendmodule"
        )


class TestIndexRange:
    def test_constant_index_out_of_range(self):
        # Fig. 2a of the paper: out[8] on an 8-bit vector.
        result = compile_source(
            "module top_module(input [7:0] in, output [7:0] out);\n"
            "assign {out[0],out[1],out[2],out[3],out[4],out[5],out[6],out[8]} = in;\n"
            "endmodule"
        )
        assert [d.category for d in result.errors] == [ErrorCategory.INDEX_RANGE]
        assert result.errors[0].args["index"] == 8

    def test_part_select_out_of_range(self):
        assert ErrorCategory.INDEX_RANGE in cats(
            "module m(input [7:0] a, output [7:0] y);\nassign y = a[9:2];\nendmodule"
        )

    def test_in_range_constant_ok(self):
        compile_ok(
            "module m(input [7:0] a, output y);\nassign y = a[7];\nendmodule"
        )

    def test_dynamic_index_not_flagged(self):
        compile_ok(
            "module m(input [7:0] a, input [2:0] s, output y);\n"
            "assign y = a[s];\nendmodule"
        )

    def test_unrolled_for_loop_negative_index(self):
        # Fig. 6 of the paper: the loop's first iteration indexes q[-17].
        result = compile_source(
            "module m(input [255:0] q, output reg [255:0] next);\n"
            "integer i, j;\n"
            "always @(*) begin\n"
            "  for (i = 0; i < 16; i = i + 1)\n"
            "    for (j = 0; j < 16; j = j + 1)\n"
            "      next[i*16 + j] = q[(i-1)*16 + (j-1)];\n"
            "end\nendmodule"
        )
        assert any(
            d.category is ErrorCategory.INDEX_RANGE and d.args["index"] == -17
            for d in result.errors
        )

    def test_unrolled_for_loop_in_range_ok(self):
        compile_ok(
            "module m(input [7:0] a, output reg [7:0] y);\n"
            "integer i;\n"
            "always @(*) for (i = 0; i < 8; i = i + 1) y[i] = a[7 - i];\n"
            "endmodule"
        )

    def test_memory_word_index_checked(self):
        assert ErrorCategory.INDEX_RANGE in cats(
            "module m(output reg [7:0] y);\n"
            "reg [7:0] mem [0:15];\n"
            "always @(*) y = mem[16];\nendmodule"
        )


class TestLValues:
    def test_procedural_assign_to_wire(self):
        result = compile_source(
            "module m(input a, output out);\n"
            "always @(*) out = a;\nendmodule"
        )
        assert [d.category for d in result.errors] == [ErrorCategory.INVALID_LVALUE]
        assert result.errors[0].args["name"] == "out"

    def test_procedural_assign_to_reg_ok(self):
        compile_ok(
            "module m(input a, output reg out);\nalways @(*) out = a;\nendmodule"
        )

    def test_assign_to_input(self):
        assert ErrorCategory.INVALID_LVALUE in cats(
            "module m(input a, input b, output y);\n"
            "assign a = b;\nassign y = a;\nendmodule"
        )

    def test_continuous_assign_to_reg(self):
        assert ErrorCategory.INVALID_LVALUE in cats(
            "module m(input a, output reg y);\nassign y = a;\nendmodule"
        )

    def test_nonansi_output_then_reg_is_legal(self):
        compile_ok(
            "module m(a, q);\ninput a;\noutput q;\nreg q;\n"
            "always @(*) q = a;\nendmodule"
        )

    def test_concat_lvalue_checked_per_part(self):
        assert ErrorCategory.INVALID_LVALUE in cats(
            "module m(input [1:0] a, output reg x, output y);\n"
            "always @(*) {x, y} = a;\nendmodule"
        )


class TestDuplicates:
    def test_duplicate_net(self):
        assert ErrorCategory.DUPLICATE_DECL in cats(
            "module m(input a);\nwire t;\nwire t;\nendmodule"
        )

    def test_duplicate_port(self):
        assert ErrorCategory.DUPLICATE_DECL in cats(
            "module m(input a, input a);\nendmodule"
        )

    def test_port_conflicting_redeclaration(self):
        assert ErrorCategory.DUPLICATE_DECL in cats(
            "module m(input a, output reg q);\nreg q;\n"
            "always @(*) q = a;\nendmodule"
        )


class TestInstances:
    def test_unknown_module(self):
        assert ErrorCategory.UNDECLARED_ID in cats(
            "module top(input a, output y);\nmystery u1 (.x(a), .y(y));\nendmodule"
        )

    def test_bad_port_name(self):
        result = compile_source(
            "module top(input a, output y);\nsub u1 (.nope(a), .out(y));\nendmodule\n"
            "module sub(input in, output out);\nassign out = in;\nendmodule"
        )
        assert any(d.category is ErrorCategory.PORT_MISMATCH for d in result.errors)
        bad = [d for d in result.errors if d.category is ErrorCategory.PORT_MISMATCH][0]
        assert bad.args["port"] == "nope"

    def test_too_many_positional(self):
        assert ErrorCategory.PORT_MISMATCH in cats(
            "module top(input a, input b, output y);\nsub u1 (a, b, y);\nendmodule\n"
            "module sub(input i, output o);\nassign o = i;\nendmodule"
        )

    def test_good_instance_ok(self):
        result = compile_ok(
            "module top(input a, output y);\nsub u1 (.in(a), .out(y));\nendmodule\n"
            "module sub(input in, output out);\nassign out = in;\nendmodule"
        )
        inst = result.elaborated.modules["top"].instances[0]
        assert set(inst.port_map) == {"in", "out"}


class TestConstEval:
    def test_arithmetic(self):
        from repro.verilog import SourceFile, const_eval, parse

        design = parse(SourceFile("t.v", "module m; localparam X = (3 + 4) * 2 ** 2; endmodule"))
        item = design.top_module().items[0]
        assert const_eval(item.value) == 28

    def test_clog2(self):
        from repro.verilog import SourceFile, const_eval, parse

        design = parse(SourceFile("t.v", "module m; localparam X = $clog2(256); endmodule"))
        assert const_eval(design.top_module().items[0].value) == 8

    def test_nonconstant_returns_none(self):
        from repro.verilog import SourceFile, const_eval, parse

        design = parse(SourceFile("t.v", "module m; localparam X = y + 1; endmodule"))
        assert const_eval(design.top_module().items[0].value) is None


# ---------------------------------------------------------------------------
# Unrolled-index check: early exit vs the full-budget reference
# ---------------------------------------------------------------------------


class _FullBudgetElaborator(Elaborator):
    """Reference copy of the unrolled-index check without the early
    exit: every top-level ``for`` nest runs until its condition fails,
    its step stalls or the shared ``_MAX_UNROLL`` budget runs out,
    re-walking the body's expressions on every iteration."""

    def _check_unrolled_indices(self, elab, stmt, scope):
        budget = [_MAX_UNROLL]
        self._reference_unroll(stmt, scope, dict(elab.params), set(), budget)

    def _reference_unroll(self, stmt, scope, env, reported, budget):
        if stmt.init is None or stmt.cond is None or stmt.step is None:
            return
        if not isinstance(stmt.init.lvalue, ast.Identifier):
            return
        var = stmt.init.lvalue.name
        value = const_eval(stmt.init.rhs, env)
        if value is None:
            return
        while budget[0] > 0:
            budget[0] -= 1
            inner_env = dict(env)
            inner_env[var] = value
            cond = const_eval(stmt.cond, inner_env)
            if cond is None or not cond:
                return
            self._reference_check(stmt.body, scope, inner_env, reported, budget)
            nxt = const_eval(stmt.step.rhs, inner_env)
            if nxt is None or nxt == value:
                return
            value = nxt

    def _reference_check(self, stmt, scope, env, reported, budget):
        if isinstance(stmt, ast.For):
            self._reference_unroll(stmt, scope, env, reported, budget)
            return
        children = []
        exprs = []
        if isinstance(stmt, ast.Block):
            children = list(stmt.stmts)
        elif isinstance(stmt, ast.If):
            exprs = [stmt.cond]
            children = [stmt.then] + ([stmt.other] if stmt.other else [])
        elif isinstance(stmt, ast.Case):
            children = [item.body for item in stmt.items]
        elif isinstance(stmt, (ast.While, ast.Repeat)):
            children = [stmt.body]
        elif isinstance(stmt, ast.ProcAssign):
            exprs = [stmt.lvalue, stmt.rhs]
        for root in exprs:
            for expr in ast.walk_exprs(root):
                if isinstance(expr, ast.Select) and id(expr) not in reported:
                    if self._select_out_of_range(expr, scope, env):
                        reported.add(id(expr))
        for child in children:
            if child is not None:
                self._reference_check(child, scope, env, reported, budget)


def _elab_diagnostics(code: str, elaborator_cls) -> list:
    """(category, severity, span, args) of every diagnostic elaboration
    of ``code`` emits, in emission order, from a freshly parsed design."""
    design = compile_source(code).design
    sink: list = []
    if design is not None and design.modules:
        elaborator_cls(design, sink).elaborate()
    return [(d.category, d.severity, d.span, d.args) for d in sink]


RUNAWAY_PRIORITY = (
    "module m(input [7:0] in, output reg [3:0] pos);\n"
    "integer i;\n"
    "always @(*) begin\n"
    "  pos = 0;\n"
    "  for (i = 7; i >= 0; i = i + 1)\n"
    "    if (in[i]) pos = i;\n"
    "end\nendmodule"
)

RUNAWAY_IN_RANGE = (
    "module m(input [7:0] a, input [7:0] b, output reg [7:0] y);\n"
    "integer i;\n"
    "always @(*) for (i = 0; i < 8; i = i - 1) y = a[0] ^ b[i];\n"
    "endmodule"
)

UNROLL_SHAPES = {
    "runaway_up_from_msb": RUNAWAY_PRIORITY,
    "runaway_down_below_bound": (
        "module m(input [7:0] a, output reg [7:0] y);\n"
        "integer i;\n"
        "always @(*) for (i = 0; i < 8; i = i - 1) y[i] = a[i];\n"
        "endmodule"
    ),
    "runaway_gray_code": (
        "module m(input [7:0] gray, output reg [7:0] bin);\n"
        "integer i;\n"
        "always @(*) begin\n"
        "  bin[7] = gray[7];\n"
        "  for (i = 6; i >= 0; i = i + 1) bin[i] = bin[i + 1] ^ gray[i];\n"
        "end\nendmodule"
    ),
    "runaway_gray_code_down": (
        "module m(input [7:0] gray, output reg [7:0] bin);\n"
        "integer i;\n"
        "always @(*) begin\n"
        "  bin[7] = gray[7];\n"
        "  for (i = 6; i < 8; i = i - 1) bin[i] = bin[i + 1] ^ gray[i];\n"
        "end\nendmodule"
    ),
    "fig6_nested": (
        "module m(input [255:0] q, output reg [255:0] next);\n"
        "integer i, j;\n"
        "always @(*) begin\n"
        "  for (i = 0; i < 16; i = i + 1)\n"
        "    for (j = 0; j < 16; j = j + 1)\n"
        "      next[i*16 + j] = q[(i-1)*16 + (j-1)];\n"
        "end\nendmodule"
    ),
    "nested_exhausts_shared_budget": (
        "module m(input [99:0] a, input [0:0] b, output reg [99:0] y);\n"
        "integer i, j;\n"
        "always @(*)\n"
        "  for (i = 0; i < 100; i = i + 1)\n"
        "    for (j = 0; j < 100; j = j + 1)\n"
        "      y[i] = a[j] ^ b[i / 50];\n"
        "endmodule"
    ),
    "out_of_range_only_past_budget": (
        "module m(input [0:0] a, output reg y);\n"
        "integer i;\n"
        "always @(*) for (i = 0; i < 5000; i = i + 1) y = a[i / 4100];\n"
        "endmodule"
    ),
    "select_in_if_condition": (
        "module m(input [7:0] a, output reg [3:0] y);\n"
        "integer i;\n"
        "always @(*) for (i = 0; i < 8; i = i + 1) if (a[i + 1]) y = i;\n"
        "endmodule"
    ),
    "runaway_holding_in_range_select": RUNAWAY_IN_RANGE,
    "runaway_without_selects": (
        "module m(output reg [7:0] y);\n"
        "integer i;\n"
        "always @(*) for (i = 0; i < 8; i = i - 1) y = i;\n"
        "endmodule"
    ),
    "case_while_and_memory_in_body": (
        "module m(input [1:0] s, output reg [7:0] y);\n"
        "reg [7:0] mem [0:3];\n"
        "integer i, k;\n"
        "always @(*) begin\n"
        "  for (i = 0; i < 6; i = i + 1) begin\n"
        "    case (s)\n"
        "      2'd0: y = mem[i];\n"
        "      default: y[i + 3] = 1'b0;\n"
        "    endcase\n"
        "    k = 0;\n"
        "    while (k < 2) begin y[k] = mem[i - 2][0]; k = k + 1; end\n"
        "  end\n"
        "end\nendmodule"
    ),
    "loop_nested_under_if": (
        "module m(input en, input [3:0] a, output reg [3:0] y);\n"
        "integer i, j;\n"
        "always @(*)\n"
        "  for (i = 0; i < 3; i = i + 1)\n"
        "    if (en) for (j = i; j < 6; j = j + 1) y[j - i] = a[j];\n"
        "endmodule"
    ),
}


def _corpus_sources() -> list[str]:
    """Every corpus reference plus its logic mutants (each mutation
    under a few rng seeds, so different sites get hit)."""
    import random

    from repro.dataset import verilogeval
    from repro.dataset.mutate import MUTATIONS, force_behavior_change

    sources: dict[str, None] = {}
    for problem in verilogeval():
        sources[problem.reference] = None
        forced = force_behavior_change(problem.reference)
        if forced is not None:
            sources[forced] = None
        for mutation in MUTATIONS:
            for seed in range(3):
                mutant = mutation(problem.reference, random.Random(seed))
                if mutant is not None:
                    sources[mutant] = None
    return list(sources)


class TestUnrollEarlyExit:
    @pytest.mark.parametrize("shape", sorted(UNROLL_SHAPES))
    def test_shape_matches_full_budget_reference(self, shape):
        code = UNROLL_SHAPES[shape]
        expected = _elab_diagnostics(code, _FullBudgetElaborator)
        assert _elab_diagnostics(code, Elaborator) == expected

    def test_shapes_report_what_they_should(self):
        # Guard the differential against vacuous inputs: the runaway
        # shapes do report, the budget-bound ones do not.
        def indices(shape):
            return [
                args["index"]
                for cat, _, _, args in _elab_diagnostics(UNROLL_SHAPES[shape], Elaborator)
                if cat is ErrorCategory.INDEX_RANGE
            ]

        assert indices("runaway_up_from_msb") == [8]
        assert indices("runaway_gray_code") == [8, 8, 8]
        assert indices("runaway_holding_in_range_select") == [-1]
        assert indices("nested_exhausts_shared_budget") == []
        assert indices("out_of_range_only_past_budget") == []

    def test_corpus_and_mutants_match_full_budget_reference(self):
        sources = _corpus_sources()
        assert len(sources) > 300
        for code in sources:
            expected = _elab_diagnostics(code, _FullBudgetElaborator)
            assert _elab_diagnostics(code, Elaborator) == expected, code


def _const_eval_calls(monkeypatch, code: str) -> int:
    """How many ``const_eval`` calls elaborating ``code`` makes."""
    calls = [0]

    def counting(expr, env=None):
        calls[0] += 1
        return const_eval(expr, env)

    with monkeypatch.context() as patch:
        patch.setattr(elaborate_mod, "const_eval", counting)
        compile_source(code)
    return calls[0]


class TestUnrollWorkCounts:
    def test_runaway_loop_stops_once_every_select_is_reported(self, monkeypatch):
        # i = 7 is in range, i = 8 reports in[8]; nothing is left to find.
        assert _const_eval_calls(monkeypatch, RUNAWAY_PRIORITY) < 60

    def test_runaway_loop_with_in_range_select_spends_the_budget(self, monkeypatch):
        # a[0] is never reported, so every iteration stays observable.
        assert _const_eval_calls(monkeypatch, RUNAWAY_IN_RANGE) > 3 * _MAX_UNROLL
