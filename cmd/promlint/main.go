// Command promlint validates a Prometheus text exposition (version 0.0.4)
// read from stdin — the gate CI holds a live daemon's GET /metrics output
// to:
//
//	curl -fsS http://localhost:8321/metrics | go run ./cmd/promlint
//
// It exits 0 when the exposition parses cleanly (well-formed HELP/TYPE
// comments, legal metric and label names, escaped label values, parseable
// sample values, no duplicate or interleaved families) and 1 with one
// line-numbered diagnostic per problem otherwise. The checks live in
// internal/serve.LintExpositionAll, shared with the package's own tests.
package main

import (
	"fmt"
	"os"

	"dkip/internal/serve"
)

func main() {
	diags, err := serve.LintExpositionAll(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promlint: %v\n", err)
		os.Exit(1)
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "promlint: %s\n", d)
		}
		fmt.Fprintf(os.Stderr, "promlint: %d problem(s)\n", len(diags))
		os.Exit(1)
	}
	fmt.Println("promlint: exposition ok")
}
