package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Host calibration. Other tenants of a shared host slow the processor
// itself, not only the scheduler: on the machine this benchmark was tuned
// on, the same simulation took from 1x to 1.9x its fastest CPU time, in
// spells that lasted minutes, so runs a few minutes apart disagreed by
// more than any bound. A pointer chase or an arithmetic loop hardly feels
// those spells; code with a large footprint of instructions, branches and
// small objects, as the simulator has, feels them fully.
//
// The calibration suite is such code, taken from the standard library, so
// no change to the program moves it: it parses Go source, round-trips
// records through encoding/json, matches a regular expression and runs a
// small heap-ordered event loop. Across a 1.9x spell its CPU time tracked
// the simulation's to within 5%. A timed run measures the suite between
// its simulations and scales their CPU times by calibrationReference over
// the median measurement, so its host times read as CPU seconds on a host
// that runs the suite in calibrationReference.
const calibrationReference = 250 * time.Millisecond

// calibrate runs the suite once and returns the CPU time it took.
func calibrate() time.Duration {
	runtime.GC()
	start := processCPU()
	n := calParse() + calJSON() + calRegexp() + calEvents()
	d := processCPU() - start
	if n != calExpected {
		panic(fmt.Sprintf("calibration suite computed %d, want %d", n, calExpected))
	}
	return d
}

// calExpected is the suite's checksum; a mismatch means it did not run as
// written.
var calExpected = calParse() + calJSON() + calRegexp() + calEvents()

var calSource = func() string {
	var b strings.Builder
	b.WriteString("package p\n\nimport \"fmt\"\n\n")
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&b, `type T%[1]d struct {
	a, b int
	m    map[string]float64
	s    []*T%[1]d
}

func (t *T%[1]d) F%[1]d(x int, y string) (int, error) {
	for i := 0; i < x; i++ {
		if t.m[y] > float64(i) {
			t.a += i * %[1]d
		} else if len(t.s) > i {
			return t.s[i].a, nil
		}
	}
	switch x %% 3 {
	case 0:
		fmt.Println(x)
	case 1:
		t.b++
	default:
		return 0, fmt.Errorf("bad %%d", x)
	}
	return t.a + t.b, nil
}

`, i)
	}
	return b.String()
}()

// calParse parses calSource ten times and counts its syntax nodes.
func calParse() int {
	n := 0
	for r := 0; r < 10; r++ {
		f, err := parser.ParseFile(token.NewFileSet(), "p.go", calSource, 0)
		if err != nil {
			panic(err)
		}
		ast.Inspect(f, func(ast.Node) bool { n++; return true })
	}
	return n
}

type calRecord struct {
	Name  string            `json:"name"`
	ID    int               `json:"id"`
	Vals  []float64         `json:"vals"`
	Attrs map[string]string `json:"attrs"`
	Kids  []calRecord       `json:"kids,omitempty"`
}

var calRecords = func() []calRecord {
	var rs []calRecord
	for i := 0; i < 300; i++ {
		r := calRecord{
			Name:  fmt.Sprintf("node-%d", i),
			ID:    i,
			Vals:  []float64{float64(i), 1.5 * float64(i), 2.4},
			Attrs: map[string]string{"rack": fmt.Sprint(i % 20), "gen": fmt.Sprint(i % 4)},
		}
		for j := 0; j < 3; j++ {
			r.Kids = append(r.Kids, calRecord{Name: fmt.Sprintf("c%d", j), ID: j, Vals: []float64{1, 2}})
		}
		rs = append(rs, r)
	}
	return rs
}()

// calJSON round-trips calRecords through encoding/json 15 times and counts
// the records and bytes.
func calJSON() int {
	n := 0
	for r := 0; r < 15; r++ {
		b, err := json.Marshal(calRecords)
		if err != nil {
			panic(err)
		}
		var out []calRecord
		if err := json.NewDecoder(bytes.NewReader(b)).Decode(&out); err != nil {
			panic(err)
		}
		n += len(out) + len(b)
	}
	return n
}

var (
	calPattern = regexp.MustCompile(`(\w+)-(\d+)\s*=\s*"([^"]*)"`)
	calText    = strings.Repeat(`alpha-12 = "one" beta gamma-7="two" delta epsilon zeta-991 = "three four" `, 300)
)

// calRegexp matches calPattern over calText 20 times and counts matches.
func calRegexp() int {
	n := 0
	for r := 0; r < 20; r++ {
		n += len(calPattern.FindAllStringSubmatch(calText, -1))
	}
	return n
}

type calEvent struct {
	at float64
	id int
}

type calQueue []calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// calEvents fires 200k events of 500 actors from a binary heap; each keeps
// a sorted backlog in a map. It returns a checksum of the backlogs.
func calEvents() int {
	var q calQueue
	rng := uint64(7)
	backlog := map[int][]int{}
	for i := 0; i < 500; i++ {
		heap.Push(&q, calEvent{float64(i), i})
	}
	for k := 0; k < 200000; k++ {
		e := heap.Pop(&q).(calEvent)
		rng = rng*6364136223846793005 + 1442695040888963407
		b := append(backlog[e.id%97], int(rng>>40))
		if len(b) > 16 {
			sort.Ints(b)
			b = b[:8]
		}
		backlog[e.id%97] = b
		heap.Push(&q, calEvent{e.at + float64(rng>>54), e.id})
	}
	n := 0
	for _, b := range backlog {
		for _, v := range b {
			n += v
		}
	}
	return n
}
