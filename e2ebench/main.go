// Command e2ebench is the repository's end-to-end benchmark. It drives the
// reduced Table 4 exploration and the Table 5 cross-configuration matrix
// through the program's own packages — cold, and against a warm disk or
// remote cache tier — and prints one JSON result line as the last line of
// its standard output. Run it from the repository root:
//
//	bash e2ebench/run.sh --workload explore-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of untraced
// passes. With --trace 1 untraced and traced passes alternate and the
// result carries the per-layer breakdown; LAYERS.md says what each
// per-layer metric measures and which end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured seconds (whole passes, at least one)")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of traced passes instead of the end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory the disk tier's scratch stores are created under")
	flag.Parse()

	if !isWorkload(*name) {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		size:     fullSize,
		dir:      dir,
		expect:   recordedDigest(*name, *seed),
	}
	res, err := run(context.Background(), cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Printf("digest %s seed=%d %s\n", *name, *seed, res.digest)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
