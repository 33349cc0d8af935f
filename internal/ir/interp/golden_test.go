package interp_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"crossinv/internal/ir/interp"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/checksums.golden from the current executor")

// goldenSeeds is the size of the generated half of the golden corpus.
const goldenSeeds = 64

// goldenCorpus returns every program the checksum golden file pins, by
// name: each .lnl file committed in the repository and goldenSeeds
// generated programs.
func goldenCorpus(t *testing.T) map[string]string {
	t.Helper()
	root := filepath.Join("..", "..", "..")
	corpus := map[string]string{}
	for _, pattern := range []string{
		"examples/*/*.lnl", "internal/core/testdata/*.lnl", "cmd/crossinv/testdata/*.lnl",
	} {
		files, err := filepath.Glob(filepath.Join(root, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := filepath.Rel(root, f)
			corpus[filepath.ToSlash(rel)] = string(src)
		}
	}
	if len(corpus) < 10 {
		t.Fatalf("found %d .lnl files, expected the examples and both testdata corpora", len(corpus))
	}
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		corpus[fmt.Sprintf("generated/seed-%03d", seed)] = randomProgram(seed)
	}
	return corpus
}

// TestChecksumGolden pins Env.Checksum for the whole corpus to the values
// the map-based executor of the commit before the slot-resolved one
// produced (testdata/checksums.golden was recorded there). Plan caches hold
// this value as the sequential oracle, so it may never drift: an entry
// written by any earlier build must still verify. A program that faults is
// pinned to the checksum of the state it reached.
func TestChecksumGolden(t *testing.T) {
	corpus := goldenCorpus(t)
	names := make([]string, 0, len(corpus))
	for n := range corpus {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		p, ok := compile(corpus[n])
		if !ok {
			fmt.Fprintf(&b, "%s rejected\n", n)
			continue
		}
		env := interp.NewEnv(p)
		status := "ok"
		if err := env.Exec(p.Body); err != nil {
			status = "fault"
		}
		fmt.Fprintf(&b, "%s %s %016x\n", n, status, env.Checksum())
	}
	path := filepath.Join("testdata", "checksums.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("corpus has %d programs, golden file %d (a new .lnl file is added with -update)",
			len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("got %q, recorded %q", gotLines[i], wantLines[i])
		}
	}
}
