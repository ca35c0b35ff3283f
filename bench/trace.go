package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// kind names a span's layer boundary. The names are the layer names
// of the per-layer metrics.
type kind uint8

const (
	kindRun    kind = iota + 1 // one GA run or sweep: the root spans of ga-paper51 and sweep-wide
	kindBatch                  // one engine batch (a GA generation's evaluations, a sweep shard)
	kindEval                   // one computed fitness evaluation inside an engine worker
	kindEM                     // one ehdiall.EstimatePacked call
	kindClump                  // one fitness.Scratch.Score call
	kindShard                  // one shard.Source.Shard call
	kindPost                   // client POST /v1/sessions/{id}/jobs
	kindStream                 // client SSE stream until the done event
	kindGet                    // client GET /v1/jobs/{id}
	kindJob                    // one client job cycle: the serve-jobs root spans
)

var kindNames = [...]string{
	kindRun:    "run",
	kindBatch:  "engine.batch",
	kindEval:   "eval",
	kindEM:     "ehdiall",
	kindClump:  "clump",
	kindShard:  "shard",
	kindPost:   "serve.post_job",
	kindStream: "serve.stream",
	kindGet:    "serve.get_job",
	kindJob:    "serve.job",
}

func (k kind) String() string { return kindNames[k] }

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch on the monotonic clock. n carries the
// span's size: the batch length, the EM iteration count, or the
// haplotype size of an eval.
type span struct {
	id, parent, run uint32
	kind            kind
	k               uint8 // haplotype size (eval, EM)
	conv            bool  // EM converged within MaxIter
	n               uint32
	start, end      int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory for one traced pass; write dumps them
// when the pass ends. Safe for concurrent use.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint32 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far, sorted by id.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// selfTimes returns each span's duration minus the part of its
// interval covered by the union of its children, indexed like spans.
func selfTimes(spans []span) []int64 {
	pos := make(map[uint32]int, len(spans))
	for i, s := range spans {
		pos[s.id] = i
	}
	children := make([]int, 0, len(spans))
	for i, s := range spans {
		if _, ok := pos[s.parent]; ok && s.parent != 0 {
			children = append(children, i)
		}
	}
	sort.Slice(children, func(a, b int) bool {
		ca, cb := spans[children[a]], spans[children[b]]
		if ca.parent != cb.parent {
			return ca.parent < cb.parent
		}
		return ca.start < cb.start
	})
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for lo := 0; lo < len(children); {
		parent := spans[children[lo]].parent
		hi := lo
		for hi < len(children) && spans[children[hi]].parent == parent {
			hi++
		}
		p := spans[pos[parent]]
		ivs := make([][2]int64, 0, hi-lo)
		for _, c := range children[lo:hi] {
			ivs = append(ivs, [2]int64{spans[c].start, spans[c].end})
		}
		self[pos[parent]] -= covered(ivs, p.start, p.end)
		lo = hi
	}
	return self
}

// covered returns the length of the union of the intervals (sorted by
// start) clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	var total int64
	curS, curE := int64(0), int64(-1)
	flush := func() {
		if curE > curS {
			total += curE - curS
		}
	}
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if curE < curS || s > curE {
			flush()
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	flush()
	return total
}

// unionOf returns the covered length of the spans' intervals.
func unionOf(spans []span) int64 {
	ivs := make([][2]int64, 0, len(spans))
	lo, hi := int64(1<<62), int64(0)
	for _, s := range spans {
		ivs = append(ivs, [2]int64{s.start, s.end})
		lo, hi = min(lo, s.start), max(hi, s.end)
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	return covered(ivs, lo, hi)
}

// writeSpans dumps the spans as gzipped JSON lines, one span per line,
// preceded by one line carrying the run's environment.
func writeSpans(path string, env map[string]any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	head, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		f.Close()
		return err
	}
	bw.Write(head)
	bw.WriteByte('\n')
	for _, s := range spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"run":%d,"name":%q,"start_ns":%d,"end_ns":%d,"k":%d,"n":%d,"converged":%t}`+"\n",
			s.id, s.parent, s.run, s.kind.String(), s.start, s.end, s.k, s.n, s.conv)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
