package sim_test

import (
	"fmt"
	"os"
	"path/filepath"

	"talus/internal/sim"
	"talus/internal/workload"
)

// ExampleRecordSpecs captures two workload clones' interleaved access
// stream to a trace file, then loads it back as workload specs — the
// record/replay round trip the trace subsystem guarantees is exact.
func ExampleRecordSpecs() {
	dir, err := os.MkdirTemp("", "talus-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "mix.trc")

	libq, _ := workload.Lookup("libquantum")
	mcf, _ := workload.Lookup("mcf")
	n, err := sim.RecordSpecs(path, []workload.Spec{libq, mcf}, 10000, 42, false)
	if err != nil {
		panic(err)
	}
	specs, err := sim.SpecsFromTrace(path)
	if err != nil {
		panic(err)
	}
	fmt.Println("records:", n)
	fmt.Println("replayable apps:", len(specs))
	// Output:
	// records: 20000
	// replayable apps: 2
}
