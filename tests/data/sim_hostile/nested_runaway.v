// hostile: mode=diff samples=4 kind=stmt_executions
// Two nested loops over known values that each stay short (1,000
// iterations) but multiply to a million statements.  Both engines must
// charge the per-invocation statement budget -- the compiled engine on
// its fast path -- and stop it identically.
module top_module(input clk, output reg [31:0] y);
  integer i;
  integer j;
  always @(posedge clk) begin
    y = 0;
    for (i = 0; i < 1000; i = i + 1)
      for (j = 0; j < 1000; j = j + 1)
        y = y + 1;
  end
endmodule
