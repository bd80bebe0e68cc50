package exec_test

import (
	"fmt"

	"codecdb/internal/exec"
)

// Example_operatorGraph shows the Figure 3 shape: two independent scan
// stages feed a blocking join stage, which feeds an aggregation stage.
// Independent stages run in parallel on the operator pool.
func Example_operatorGraph() {
	g := exec.NewGraph()
	var left, right, joined int
	g.AddStage("scanLeft", func() error { left = 3; return nil })
	g.AddStage("scanRight", func() error { right = 4; return nil })
	g.AddStage("join", func() error { joined = left * right; return nil }, "scanLeft", "scanRight")
	g.AddStage("aggregate", func() error {
		fmt.Println("result:", joined)
		return nil
	}, "join")
	if err := g.Run(exec.NewPool(4)); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// result: 12
}
