package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"leakest/internal/conformance"
)

// runVerify implements the `leakest verify` subcommand: the whole
// statistical conformance registry — every estimation path, the frozen
// experiment goldens, the tail, qmc and tiled gates — then the mutation
// self-check proving its own sensitivity. Exit codes: 0 all green, 1
// conformance or self-check failure, 2 bad invocation or infrastructure
// error.
func runVerify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leakest verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	short := fs.Bool("short", false, "trim fixture sizes and MC trial counts (the quick local pass)")
	workers := fs.Int("workers", 0, "goroutines for the estimator loops; 0 = all cores (report identical at any setting)")
	seed := fs.Int64("seed", 0, "override every random stream (0 = the shared characterization seed)")
	jsonPath := fs.String("json", "", "write the full conformance report JSON to this path; \"-\" = stdout (the summary then goes to stderr)")
	verbose := fs.Bool("v", false, "list every check, not just failures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "leakest verify: unexpected arguments %q\n", fs.Args())
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := conformance.Config{Short: *short, Seed: *seed, Workers: *workers}

	rep, err := conformance.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "leakest verify: %v\n", err)
		return 2
	}
	if rep.SelfCheck, err = conformance.SelfCheck(ctx, cfg); err != nil {
		fmt.Fprintf(stderr, "leakest verify: %v\n", err)
		return 2
	}

	// With the JSON report on stdout, the human summary moves to stderr so
	// stdout stays one parseable document.
	summary := stdout
	if *jsonPath == "-" {
		summary = stderr
	}
	rep.Summarize(summary, *verbose)
	ok := rep.OK()
	for _, r := range rep.SelfCheck {
		if !r.Caught {
			ok = false
			fmt.Fprintf(summary, "SELF-CHECK FAIL: a %g× %s/%s perturbation slipped through every check\n",
				r.Factor, r.Target, r.Moment)
		}
	}
	if conformance.AllCaught(rep.SelfCheck) {
		fmt.Fprintf(summary, "mutation self-check: %d/%d perturbations caught\n",
			len(rep.SelfCheck), len(rep.SelfCheck))
	}
	if *jsonPath != "" {
		out := stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintf(stderr, "leakest verify: %v\n", err)
				return 2
			}
			defer f.Close()
			out = f
		}
		if err := rep.WriteJSON(out); err != nil {
			fmt.Fprintf(stderr, "leakest verify: %v\n", err)
			return 2
		}
		if *jsonPath != "-" {
			fmt.Fprintf(stderr, "wrote %s\n", *jsonPath)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
