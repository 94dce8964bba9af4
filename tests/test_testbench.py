"""Tests for the golden-model differential testbench."""

import pytest

from repro.diagnostics import compile_source
from repro.sim import check_interface, make_sim_feedback, run_differential

REF_COMB = (
    "module top_module(input [7:0] in, output [7:0] out);\n"
    "assign out = {in[0],in[1],in[2],in[3],in[4],in[5],in[6],in[7]};\nendmodule"
)

REF_SEQ = (
    "module top_module(input clk, input reset, output reg [3:0] q);\n"
    "always @(posedge clk) begin\n"
    "  if (reset) q <= 0; else q <= q + 1;\nend\nendmodule"
)


def elab(code: str):
    result = compile_source(code)
    assert result.ok, result.log
    return result.elaborated


class TestCombinationalDiff:
    def test_identical_passes(self):
        result = run_differential(elab(REF_COMB), elab(REF_COMB), samples=16)
        assert result.passed
        assert result.samples == 16
        assert result.mismatch_count == 0

    def test_equivalent_different_style_passes(self):
        candidate = (
            "module top_module(input [7:0] in, output reg [7:0] out);\n"
            "integer i;\n"
            "always @(*) for (i = 0; i < 8; i = i + 1) out[i] = in[7 - i];\n"
            "endmodule"
        )
        result = run_differential(elab(candidate), elab(REF_COMB), samples=16)
        assert result.passed

    def test_logic_bug_detected(self):
        candidate = (
            "module top_module(input [7:0] in, output [7:0] out);\n"
            "assign out = in;\nendmodule"  # forgot to reverse
        )
        result = run_differential(elab(candidate), elab(REF_COMB), samples=16)
        assert not result.passed
        assert result.mismatch_count > 0
        assert result.mismatches[0].output == "out"

    def test_deterministic_given_seed(self):
        a = run_differential(elab(REF_COMB), elab(REF_COMB), samples=8, seed=3)
        b = run_differential(elab(REF_COMB), elab(REF_COMB), samples=8, seed=3)
        assert a.samples == b.samples and a.mismatch_count == b.mismatch_count


REF_COMB_RESET = (
    "module top_module(input reset, input [3:0] a, output [3:0] y);\n"
    "assign y = reset ? 4'd0 : a;\nendmodule"
)


class TestOneStimulusRule:
    """Both harnesses run on one driver, so a combinational design with
    a reset input gets the same stimulus from each: reset asserted for
    the first two samples, which are not compared."""

    @pytest.mark.parametrize("body, passes", [
        pytest.param("reset ? 4'd0 : a", True, id="reference"),
        pytest.param("a", True, id="differs-only-under-reset"),
        pytest.param("reset ? 4'd0 : ~a", False, id="inverted"),
    ])
    def test_harnesses_agree_on_combinational_reset(self, body, passes):
        candidate = elab(REF_COMB_RESET.replace("reset ? 4'd0 : a", body))
        reference = elab(REF_COMB_RESET)
        diff = run_differential(candidate, reference, samples=16)
        feedback = make_sim_feedback(candidate, reference, samples=16)
        assert diff.passed == feedback.passed == passes
        assert diff.samples == feedback.compared == 14


class TestSequentialDiff:
    def test_identical_counter_passes(self):
        result = run_differential(elab(REF_SEQ), elab(REF_SEQ), samples=32)
        assert result.passed

    def test_wrong_step_detected(self):
        candidate = (
            "module top_module(input clk, input reset, output reg [3:0] q);\n"
            "always @(posedge clk) begin\n"
            "  if (reset) q <= 0; else q <= q + 2;\nend\nendmodule"
        )
        result = run_differential(elab(candidate), elab(REF_SEQ), samples=32)
        assert not result.passed

    def test_wrong_reset_polarity_detected(self):
        candidate = (
            "module top_module(input clk, input reset, output reg [3:0] q);\n"
            "always @(posedge clk) begin\n"
            "  if (!reset) q <= 0; else q <= q + 1;\nend\nendmodule"
        )
        result = run_differential(elab(candidate), elab(REF_SEQ), samples=32)
        assert not result.passed


class TestInterfaceChecks:
    def test_missing_port(self):
        candidate = "module top_module(input [7:0] in);\nendmodule"
        result = run_differential(elab(candidate), elab(REF_COMB))
        assert not result.passed
        assert "missing port" in result.failure_reason

    def test_wrong_width(self):
        candidate = (
            "module top_module(input [7:0] in, output [3:0] out);\n"
            "assign out = in[3:0];\nendmodule"
        )
        result = run_differential(elab(candidate), elab(REF_COMB))
        assert not result.passed
        assert "width" in result.failure_reason

    def test_extra_port(self):
        candidate = (
            "module top_module(input [7:0] in, input clk, output [7:0] out);\n"
            "assign out = in;\nendmodule"
        )
        result = run_differential(elab(candidate), elab(REF_COMB))
        assert not result.passed
        assert "extra ports" in result.failure_reason

    def test_check_interface_direct(self):
        assert check_interface(elab(REF_COMB), elab(REF_COMB)) == ""

    def test_simulation_error_becomes_failure_reason(self):
        candidate = (
            "module top_module(input [7:0] in, output reg [7:0] out);\n"
            "initial out = 0;\n"
            "always @(*) out = out + 1;\nendmodule"  # oscillates
        )
        result = run_differential(elab(candidate), elab(REF_COMB))
        assert not result.passed
        assert result.failure_reason
