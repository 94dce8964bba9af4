// Neighbour-count repair candidate: the middle step counts down (c = c - 1)
// and the dr loop never runs; the statement budget stops it
// (stmt executions).
module top_module (
  input [15:0] grid,
  output reg [15:0] counts
);
integer r;
integer c;
integer dr;
integer dc;
reg [3:0] n;
always @(*) begin
  counts = 0;
  for (r = 1; r < 3; r = r + 1) begin
    for (c = 1; c < 3; c = c - 1) begin
      n = 0;
      for (dr = -1; dr > 2; dr = dr + 1) begin
        for (dc = -1; dc < 2; dc = dc + 1) begin
          if (!(dr == 0 && dc == 0)) begin
            n = n + grid[(r + dr) * 4 + (c + dc)];
          end
        end
      end
      counts[((r - 1) * 2 + (c - 1)) * 4 +: 4] = n;
    end
  end
end
endmodule
