// Command tracecheck validates Chrome trace_event JSON files emitted by
// crossinv -trace (or any tool claiming the same format): it parses each
// file and checks the structural invariants trace.ValidateChrome enforces
// (known phases, named events, balanced begin/end span nesting per
// thread, non-negative timestamps, and every guard decision — an "inline"
// instant — on the lane its engine emits it on, the DOMORE scheduler's with
// its inline iteration count or the SPECCROSS control lane's with its
// inline epoch count, carrying both measured rates). CI runs it over freshly generated
// traces so a regression in the exporter fails the build rather than
// silently producing files chrome://tracing cannot load.
//
// Usage:
//
//	tracecheck FILE...
//
// Exit status is 0 when every file validates, 1 otherwise.
package main

import (
	"fmt"
	"os"

	"crossinv/internal/runtime/trace"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck FILE...")
		os.Exit(2)
	}
	failed := false
	for _, file := range os.Args[1:] {
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %v\n", err)
			failed = true
			continue
		}
		if err := trace.ValidateChrome(data); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", file, err)
			failed = true
			continue
		}
		fmt.Printf("%s: ok\n", file)
	}
	if failed {
		os.Exit(1)
	}
}
