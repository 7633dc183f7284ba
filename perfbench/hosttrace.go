package main

import (
	"io"
	"time"

	"zapc/internal/imagestore"
)

// hostTrace records host wall-clock spans around calls the benchmark
// makes into the program. All instrumented calls run on the simulator's
// goroutine, so one clock and one stack of open spans suffice.
//
// Self time is attributed to the innermost open span: at every span
// boundary the time since the previous boundary goes to the span on top
// of the stack. For properly nested spans that is a span's duration
// minus the part its children cover, and the self times of all spans
// always sum to the root span's duration. A nil *hostTrace records
// nothing, which is how untraced runs use the same code paths.
type hostTrace struct {
	clock func() time.Duration
	last  time.Duration
	open  []*span
	self  map[string]time.Duration // by bucket: a partition of host time
	incl  map[string]time.Duration // by view: inclusive span durations
	// failover marks a failover window: upper-store reads inside it are
	// failover reads, reads outside it are validation reads.
	failover bool
	// on is true while a root span is open; spans begun outside one
	// (cluster set-up, output checks) are not recorded.
	on bool
}

type span struct {
	bucket, view string
	start        time.Duration
	ended        bool
}

func newHostTrace() *hostTrace {
	t0 := time.Now()
	return newHostTraceClock(func() time.Duration { return time.Since(t0) })
}

func newHostTraceClock(clock func() time.Duration) *hostTrace {
	return &hostTrace{
		clock: clock,
		self:  make(map[string]time.Duration),
		incl:  make(map[string]time.Duration),
	}
}

// tick hands the time since the previous boundary to the innermost span.
func (t *hostTrace) tick() time.Duration {
	now := t.clock()
	if len(t.open) > 0 {
		t.self[t.open[len(t.open)-1].bucket] += now - t.last
	}
	t.last = now
	return now
}

// begin opens a span whose self time goes to bucket and whose inclusive
// duration is recorded under view (no view: only self time is kept).
// An empty bucket opens no span.
func (t *hostTrace) begin(bucket, view string) *span {
	if t == nil || !t.on || bucket == "" {
		return nil
	}
	s := &span{bucket: bucket, view: view, start: t.tick()}
	t.open = append(t.open, s)
	return s
}

// end closes s. Spans need not close in stack order: one that closes
// under a still-open later span is removed from the middle.
func (t *hostTrace) end(s *span) {
	if t == nil || s == nil || s.ended {
		return
	}
	now := t.tick()
	s.ended = true
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == s {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	if s.view != "" {
		t.incl[s.view] += now - s.start
	}
}

// setFailover marks the start (true) or end of a failover window.
func (t *hostTrace) setFailover(on bool) {
	if t != nil {
		t.failover = on
	}
}

// startRoot opens the root span of a measured stretch. Its self time
// is what no instrumented call covers: the benchmark's own work.
func (t *hostTrace) startRoot() *span {
	if t == nil {
		return nil
	}
	t.on = true
	return t.begin("trace.unattributed", "trace.total")
}

// stopRoot closes the root span and stops recording.
func (t *hostTrace) stopRoot(root *span) {
	if t == nil {
		return
	}
	t.end(root)
	t.on = false
}

// storeLabels names the buckets and views a timed store reports into.
type storeLabels struct {
	// streamW/streamR take the self time of a Create->Close or
	// Open->Close stream: what the caller does between its calls. They
	// stay empty below the dedup layer, whose block readers outlive the
	// calls that open them and would otherwise take their caller's time.
	streamW, streamR string
	// callW/callR take the self time of the calls into the inner
	// store's writer and reader (Create/Open included).
	callW, callR string
	// meta takes List, Stat, Remove and Sweep calls.
	meta string
	// readView, when set, records inner read calls inclusively.
	readView string
	// classifyReads records read streams inclusively as
	// supervisor.validate_read or supervisor.failover_read.
	classifyReads bool
}

// timedStore wraps an imagestore.Store, counting bytes and records in
// both directions and, with a non-nil trace, timing every call. It
// forwards Sweep, so a supervisor still garbage-collects a dedup store
// beneath it exactly as it would without the wrapper.
type timedStore struct {
	inner imagestore.Store
	ht    *hostTrace
	lb    storeLabels

	bytesW, bytesR     int64
	recordsW, recordsR int64
}

func newTimedStore(inner imagestore.Store, ht *hostTrace, lb storeLabels) *timedStore {
	return &timedStore{inner: inner, ht: ht, lb: lb}
}

func (s *timedStore) Create(path string) (io.WriteCloser, error) {
	stream := s.ht.begin(s.lb.streamW, "")
	c := s.ht.begin(s.lb.callW, "")
	wc, err := s.inner.Create(path)
	s.ht.end(c)
	if err != nil {
		s.ht.end(stream)
		return nil, err
	}
	return &timedWriter{s: s, wc: wc, stream: stream}, nil
}

func (s *timedStore) Open(path string) (io.ReadCloser, error) {
	view := ""
	if s.lb.classifyReads {
		view = "supervisor.validate_read"
		if s.ht != nil && s.ht.failover {
			view = "supervisor.failover_read"
		}
	}
	stream := s.ht.begin(s.lb.streamR, view)
	c := s.ht.begin(s.lb.callR, s.lb.readView)
	rc, err := s.inner.Open(path)
	s.ht.end(c)
	if err != nil {
		s.ht.end(stream)
		return nil, err
	}
	return &timedReader{s: s, rc: rc, stream: stream}, nil
}

func (s *timedStore) List(prefix string) []string {
	c := s.ht.begin(s.lb.meta, "")
	defer s.ht.end(c)
	return s.inner.List(prefix)
}

func (s *timedStore) Remove(path string) error {
	c := s.ht.begin(s.lb.meta, "")
	defer s.ht.end(c)
	return s.inner.Remove(path)
}

func (s *timedStore) Stat(path string) (imagestore.Info, error) {
	c := s.ht.begin(s.lb.meta, "")
	defer s.ht.end(c)
	return s.inner.Stat(path)
}

// Sweep implements imagestore.Sweeper when the inner store does.
func (s *timedStore) Sweep() int {
	sw, ok := s.inner.(imagestore.Sweeper)
	if !ok {
		return 0
	}
	c := s.ht.begin(s.lb.meta, "")
	defer s.ht.end(c)
	return sw.Sweep()
}

type timedWriter struct {
	s      *timedStore
	wc     io.WriteCloser
	stream *span
	closed bool
}

func (w *timedWriter) Write(p []byte) (int, error) {
	c := w.s.ht.begin(w.s.lb.callW, "")
	n, err := w.wc.Write(p)
	w.s.ht.end(c)
	w.s.bytesW += int64(n)
	return n, err
}

func (w *timedWriter) Close() error {
	c := w.s.ht.begin(w.s.lb.callW, "")
	err := w.wc.Close()
	w.s.ht.end(c)
	if !w.closed {
		w.closed = true
		w.s.ht.end(w.stream)
		if err == nil {
			w.s.recordsW++
		}
	}
	return err
}

type timedReader struct {
	s      *timedStore
	rc     io.ReadCloser
	stream *span
	closed bool
}

func (r *timedReader) Read(p []byte) (int, error) {
	c := r.s.ht.begin(r.s.lb.callR, r.s.lb.readView)
	n, err := r.rc.Read(p)
	r.s.ht.end(c)
	r.s.bytesR += int64(n)
	return n, err
}

func (r *timedReader) Close() error {
	c := r.s.ht.begin(r.s.lb.callR, r.s.lb.readView)
	err := r.rc.Close()
	r.s.ht.end(c)
	if !r.closed {
		r.closed = true
		r.s.ht.end(r.stream)
		r.s.recordsR++
	}
	return err
}
