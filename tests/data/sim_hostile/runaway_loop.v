// hostile: mode=diff samples=4 kind=stmt_executions
// A procedural loop that never comes close to terminating.  Both
// engines charge the per-invocation statement budget at the same
// statements (the compiled engine on its fast path), so it trips
// identically.
module top_module(input clk, output reg out);
  reg [31:0] i;
  always @(posedge clk) begin
    i = 0;
    while (i < 32'hFFFF0000) begin
      i = i + 1;
    end
    out = i[0];
  end
endmodule
