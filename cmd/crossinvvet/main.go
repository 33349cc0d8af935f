// Command crossinvvet runs the repo-specific static checks in
// internal/lint (Stats atomicity in the engine packages, nil-receiver
// guards on trace handles, one wait primitive for the runtime's threads).
//
// Two modes:
//
//	crossinvvet dir [dir...]            walk directories, print findings
//	go vet -vettool=./crossinvvet pkgs  run as a vet analysis tool
//
// The vettool mode speaks the cmd/go unit-checker protocol by hand (the
// repo is dependency-free, so x/tools/go/analysis/unitchecker is not
// available): go vet first invokes the tool with -V=full to fingerprint
// it, then once per package with a JSON config file as the sole argument.
// The tool must write the (here empty — the checks export no facts) .vetx
// output file, print diagnostics to stderr, and exit nonzero only when
// there are findings.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"crossinv/internal/lint"
)

// vetConfig is the subset of cmd/go's vet config the tool needs. The file
// carries more fields (import maps, export data paths) that a syntactic
// pass can ignore.
type vetConfig struct {
	ImportPath string
	GoFiles    []string
	VetxOutput string
}

func main() {
	args := os.Args[1:]

	// Tool fingerprint handshake: go vet caches results keyed on the
	// tool's identity, which it asks for up front with -V=full. Any
	// stable single-line answer works; version-stamping with the content
	// of the binary is what unitchecker does, a fixed version string just
	// means editing the checks requires rebuilding the tool (CI always
	// does).
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			fmt.Printf("crossinvvet version crossinv-lint-2\n")
			return
		}
		// go vet also queries the tool's supported flags as JSON; these
		// checks take none.
		if a == "-flags" || a == "--flags" {
			fmt.Println("[]")
			return
		}
	}

	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnit(args[0]))
	}
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: crossinvvet dir [dir...]  (or via go vet -vettool)")
		os.Exit(2)
	}
	os.Exit(runDirs(args))
}

// runUnit handles one `go vet` package unit.
func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crossinvvet: reading vet config: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "crossinvvet: parsing vet config %s: %v\n", cfgPath, err)
		return 1
	}
	// The facts file must exist even though these checks export none;
	// go vet treats a missing .vetx as tool failure.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "crossinvvet: writing %s: %v\n", cfg.VetxOutput, err)
			return 1
		}
	}
	ds := lint.CheckFiles(cfg.GoFiles)
	for _, d := range ds {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	if len(ds) > 0 {
		return 2
	}
	return 0
}

// runDirs is the standalone mode for local use.
func runDirs(dirs []string) int {
	var n int
	for _, dir := range dirs {
		ds, err := lint.CheckDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crossinvvet: %v\n", err)
			return 1
		}
		for _, d := range ds {
			fmt.Fprintf(os.Stderr, "%s\n", d)
		}
		n += len(ds)
	}
	if n > 0 {
		return 2
	}
	return 0
}
