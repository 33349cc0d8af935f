package main

import (
	"fmt"
	"strings"
)

// template names the dependence structure of a generated LNL program; the
// comment gives the xdep class the shape is built to have.
type template int

const (
	tmplStencil     template = iota // two loops feeding each other: cyclic
	tmplIndirect                    // CG-style update through an index array: unknown
	tmplStrided                     // strided rows, each reading the row four invocations back: forward-only
	tmplDoall                       // every invocation writes its own row: none
	tmplConditional                 // branching bodies over a two-array cycle: cyclic
	numTemplates
)

var templateNames = [numTemplates]string{"stencil", "indirect", "strided", "doall", "conditional"}

func (t template) String() string { return templateNames[t] }

// shape is the part of a program that decides how much work it is: the
// template, the inner trip count n and the outer trip count t. Shapes are
// frozen per corpus slot (shapeSeed), so runs with different -seed values
// measure the same amount of work; the seed draws everything else.
type shape struct {
	tmpl template
	n, t int
}

// shapeSeed fixes the slot → shape table of every corpus. Changing it
// changes what the benchmark measures; it is one of the frozen constants.
const shapeSeed = 0x5eedc0de

// shapeClass bounds the trip counts of a corpus.
type shapeClass struct{ nLo, nHi, tLo, tHi int }

var (
	// regionShapes sizes compiled.regions: a hot execution of one program
	// under one engine takes on the order of a millisecond on two cores.
	regionShapes = shapeClass{nLo: 48, nHi: 96, tLo: 10, tHi: 20}
	// daemonShapes sizes the daemon corpora: small enough that a cold
	// request (whole pipeline, profile included) stays in the low
	// milliseconds, so a window yields thousands of latency samples.
	daemonShapes = shapeClass{nLo: 24, nHi: 48, tLo: 6, tHi: 12}
)

// shapes returns the frozen shape table for a corpus of n slots: templates
// cycle so every corpus size holds every template, trip counts come from
// shapeSeed.
func shapes(class shapeClass, n int) []shape {
	r := newRng(shapeSeed)
	out := make([]shape, n)
	for i := range out {
		out[i] = shape{
			tmpl: template(i % int(numTemplates)),
			n:    r.pick(class.nLo, class.nHi),
			t:    r.pick(class.tLo, class.tHi),
		}
	}
	return out
}

// program is one generated LNL program.
type program struct {
	name   string
	tmpl   template
	source string
}

// smallPrimes are the multipliers the generator draws from. All are below
// the smallest inner trip count, so none divides the prime the indirect
// template sizes its target array with and the index map stays injective.
var smallPrimes = []int{3, 5, 7, 11, 13, 17, 19, 23}

// generate renders one program. Constants come from r; uniq is folded into
// an additive constant and the function name, so two calls with different
// uniq values never produce the same source text whatever r draws.
func generate(sh shape, r *rng, uniq uint64) program {
	p1 := smallPrimes[r.intn(len(smallPrimes))]
	p2 := smallPrimes[r.intn(len(smallPrimes))]
	mod := 97 + 2*r.intn(200)
	k := int(uniq%1000003) + 1 // additive constant: carries uniq into the text
	name := fmt.Sprintf("%s_%x", sh.tmpl, uniq)
	n, t := sh.n, sh.t

	var b strings.Builder
	fmt.Fprintf(&b, "# generated: template %s n=%d t=%d\nfunc %s() {\n", sh.tmpl, n, t, name)
	switch sh.tmpl {
	case tmplStencil:
		fmt.Fprintf(&b, "  var A[%d], B[%d]\n", n, n+1)
		fmt.Fprintf(&b, "  parfor k = 0 .. %d { B[k] = k * %d %% %d }\n", n+1, p1, mod)
		fmt.Fprintf(&b, "  for t = 0 .. %d {\n", t)
		fmt.Fprintf(&b, "    parfor i = 0 .. %d { A[i] = B[i] * %d + B[i+1] }\n", n, p2)
		fmt.Fprintf(&b, "    parfor j = 1 .. %d { B[j] = A[j-1] %% %d + t + %d }\n", n+1, mod+k%7, k)
		b.WriteString("  }\n")
	case tmplIndirect:
		// The window [start, start+w) slides over IDX; IDX is a bijection
		// onto C modulo a prime larger than w, so one invocation's
		// iterations never collide while invocations overlap freely.
		w := n / 2
		cells := nextPrime(n)
		idx := 4 * n
		fmt.Fprintf(&b, "  var S[%d], C[%d], IDX[%d]\n", t, cells, idx)
		fmt.Fprintf(&b, "  parfor p = 0 .. %d { S[p] = p * %d %% %d }\n", t, p1, idx-w)
		fmt.Fprintf(&b, "  parfor z = 0 .. %d { IDX[z] = z * %d %% %d }\n", idx, p2, cells)
		fmt.Fprintf(&b, "  for i = 0 .. %d {\n", t)
		fmt.Fprintf(&b, "    start = S[i] %% %d\n    end = start + %d\n", idx-w, w)
		fmt.Fprintf(&b, "    parfor j = start .. end { C[IDX[j]] = C[IDX[j]] * 3 + j + %d }\n", k)
		b.WriteString("  }\n")
	case tmplStrided:
		// Row t reads row t-lag and writes only itself: every dependence
		// flows a fixed number of invocations forward.
		const lag = 4
		fmt.Fprintf(&b, "  var A[%d]\n", 2*n*(t+lag))
		fmt.Fprintf(&b, "  for t = %d .. %d {\n", lag, t+lag)
		fmt.Fprintf(&b, "    parfor i = 0 .. %d { A[t*%d + 2*i] = A[(t-%d)*%d + 2*i + 1] * 3 + i * %d + %d }\n", n, 2*n, lag, 2*n, p1, k)
		fmt.Fprintf(&b, "    parfor j = 0 .. %d { A[t*%d + 2*j + 1] = A[(t-%d)*%d + 2*j] %% %d + t }\n", n, 2*n, lag, 2*n, mod)
		b.WriteString("  }\n")
	case tmplDoall:
		fmt.Fprintf(&b, "  var A[%d], B[%d]\n", n*t, n)
		fmt.Fprintf(&b, "  parfor s = 0 .. %d { B[s] = s * %d %% %d }\n", n, p1, mod)
		fmt.Fprintf(&b, "  for t = 0 .. %d {\n", t)
		fmt.Fprintf(&b, "    parfor i = 0 .. %d { A[t*%d + i] = B[i] * %d + t + %d }\n", n, n, p2, k)
		b.WriteString("  }\n")
	case tmplConditional:
		// The branch reads M, which the region never writes, so the
		// scheduler can still compute every task's addresses ahead of time.
		fmt.Fprintf(&b, "  var V[%d], W[%d], M[%d]\n", n, n, n)
		fmt.Fprintf(&b, "  parfor s = 0 .. %d { M[s] = s * s %% %d }\n", n, mod)
		fmt.Fprintf(&b, "  for t = 0 .. %d {\n", t)
		fmt.Fprintf(&b, "    parfor i = 0 .. %d {\n", n)
		fmt.Fprintf(&b, "      if M[i] %% 3 == 0 { V[i] = V[i] + W[i] * %d } else { V[i] = V[i] %% 100003 * 2 + %d }\n", p1, k)
		b.WriteString("    }\n")
		fmt.Fprintf(&b, "    parfor j = 0 .. %d { W[j] = V[j] %% %d + j }\n", n, mod+p2)
		b.WriteString("  }\n")
	}
	b.WriteString("}\n")
	return program{name: name, tmpl: sh.tmpl, source: b.String()}
}

func nextPrime(n int) int {
	for c := n + 1; ; c++ {
		prime := c > 1
		for d := 2; d*d <= c; d++ {
			if c%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			return c
		}
	}
}

// corpus generates the n programs of one corpus from seed: slot i has the
// frozen shape shapes(class, n)[i] and seed-drawn constants. salt keeps two
// corpora of one run (hot set, warm pool) apart.
func corpus(seed, salt uint64, class shapeClass, n int) []program {
	r := newRng(seed ^ salt*0x9e3779b97f4a7c15)
	out := make([]program, n)
	for i, sh := range shapes(class, n) {
		out[i] = generate(sh, r, salt<<40|uint64(i)<<20|uint64(r.intn(1<<20)))
	}
	return out
}

// stream yields an endless sequence of never-repeating programs: program i
// of stream (seed, lane) carries the unique value lane<<40|i in its text,
// so no two programs of any stream of one seed share a source hash. Shapes
// cycle through the frozen table, so any long run of the stream is the same
// amount of work.
type stream struct {
	r      *rng
	lane   uint64
	next   uint64
	shapes []shape
}

// streamSalt separates stream programs from corpus programs (whose uniq
// values have a salt below 1<<20 in the same bit positions).
const streamSalt = 1 << 62

func newStream(seed, lane uint64, class shapeClass) *stream {
	return &stream{
		r:      newRng(seed ^ (lane+1)*0xd1b54a32d192ed03),
		lane:   lane,
		shapes: shapes(class, 4*int(numTemplates)),
	}
}

func (s *stream) program() program {
	sh := s.shapes[s.next%uint64(len(s.shapes))]
	p := generate(sh, s.r, streamSalt|s.lane<<40|s.next)
	s.next++
	return p
}
