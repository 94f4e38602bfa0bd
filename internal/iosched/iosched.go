// Package iosched implements the four Linux 2.6 disk I/O schedulers the
// paper studies — noop, deadline, anticipatory and CFQ — against the
// block.Elevator interface. The implementations keep the policy decisions
// that matter for the paper's effects: request merging, one-way sector
// sorting, read/write deadline batches, anticipation for synchronous reads,
// and per-stream time slices with idling.
package iosched

import (
	"fmt"
	"sort"

	"adaptmr/internal/block"
	"adaptmr/internal/obs"
	"adaptmr/internal/sim"
)

// Scheduler names as exposed through /sys/block/<dev>/queue/scheduler.
const (
	Noop         = "noop"
	Deadline     = "deadline"
	Anticipatory = "anticipatory"
	CFQ          = "cfq"
)

// Names lists all scheduler names in the paper's canonical order.
var Names = []string{CFQ, Deadline, Anticipatory, Noop}

// ShortCode returns the single-letter code the paper uses in Fig 5
// (c: CFQ, d: Deadline, a: Anticipatory, n: Noop).
func ShortCode(name string) string {
	switch name {
	case CFQ:
		return "c"
	case Deadline:
		return "d"
	case Anticipatory:
		return "a"
	case Noop:
		return "n"
	}
	return "?"
}

// FromShortCode resolves a single-letter code back to a scheduler name.
func FromShortCode(c string) (string, error) {
	switch c {
	case "c":
		return CFQ, nil
	case "d":
		return Deadline, nil
	case "a":
		return Anticipatory, nil
	case "n":
		return Noop, nil
	}
	return "", fmt.Errorf("iosched: unknown scheduler code %q", c)
}

// Params carries tunables shared by the elevators, plus the decision
// recorder they report through (Decisions). Zero value is not usable; use
// DefaultParams.
type Params struct {
	// MaxSectors caps a merged request extent (Linux max_sectors_kb=512).
	MaxSectors int64

	// Deadline/AS batch and expiry knobs.
	ReadExpire    sim.Duration // deadline: 500ms, AS: 125ms
	WriteExpire   sim.Duration // deadline: 5s, AS: 250ms
	FIFOBatch     int          // deadline: 16
	WritesStarved int          // deadline: max read batches before forced write batch

	// Anticipatory knobs.
	AnticExpire    sim.Duration // max anticipation wait (6ms)
	AnticMaxMisses int          // consecutive timeouts before a stream loses trust
	// AS alternates time-based batches, strongly favouring reads
	// (as-iosched defaults: 500ms read batches, 125ms write batches).
	ASBatchExpireRead  sim.Duration
	ASBatchExpireWrite sim.Duration
	// AnticCloseSectors is the as_close_req radius: while anticipating, AS
	// dispatches a request from the anticipated stream only if it lands
	// within this distance of the last head position; a far request keeps
	// the disk waiting for the current sequential run to continue. This is
	// the "seek-conserving" behaviour the paper credits AS with.
	AnticCloseSectors int64

	// CFQ knobs.
	SliceSync  sim.Duration // sync per-stream slice (100ms)
	SliceAsync sim.Duration // async pseudo-stream slice (40ms)
	SliceIdle  sim.Duration // idle window at end of a sync slice (8ms)
	// FifoExpireSync/FifoExpireAsync are CFQ's per-request fifo deadlines
	// (cfq_fifo_expire: sync 125ms, async 250ms). When the queue holding
	// the dispatch slice has an oldest request past its deadline, CFQ
	// serves that request instead of the sector-sorted candidate — without
	// this, a deep continuously-refilled async backlog can bypass one old
	// write for many C-SCAN sweeps (exposed by multi-job fleet hosts,
	// whose Dom0 async queues stay hundreds of requests deep). Zero
	// disables the check.
	FifoExpireSync  sim.Duration
	FifoExpireAsync sim.Duration

	// Decisions, when non-nil, is the one channel every elevator reports
	// its decisions through (why a dispatch happened: batch continuation
	// vs deadline expiry, anticipation outcomes, CFQ slice lifecycle). The
	// recorder feeds the decision log, the trace and the sched.* metrics.
	// It is shared across elevator switches, so a level's counts
	// accumulate over the whole run; a nil recorder discards updates with
	// no allocation (the disabled hot path is pinned at 0 allocs/op).
	Decisions *obs.DecisionRecorder
}

// DefaultParams mirrors the Linux 2.6.22 defaults the paper's testbed ran.
func DefaultParams() Params {
	return Params{
		MaxSectors:         1024, // 512 KB
		ReadExpire:         500 * sim.Millisecond,
		WriteExpire:        5 * sim.Second,
		FIFOBatch:          16,
		WritesStarved:      2,
		AnticExpire:        6 * sim.Millisecond,
		AnticMaxMisses:     3,
		ASBatchExpireRead:  500 * sim.Millisecond,
		ASBatchExpireWrite: 125 * sim.Millisecond,
		AnticCloseSectors:  8192, // 4 MiB
		SliceSync:          100 * sim.Millisecond,
		SliceAsync:         40 * sim.Millisecond,
		SliceIdle:          8 * sim.Millisecond,
		FifoExpireSync:     125 * sim.Millisecond,
		FifoExpireAsync:    250 * sim.Millisecond,
	}
}

// New constructs a scheduler by name. It returns the same concrete
// schedulers as the typed constructors (NewCFQ etc.), behind the
// block.Elevator interface.
func New(name string, p Params) (block.Elevator, error) {
	switch name {
	case Noop:
		return NewNoop(p), nil
	case Deadline:
		return NewDeadline(p), nil
	case Anticipatory:
		return NewAnticipatory(p), nil
	case CFQ:
		return NewCFQ(p), nil
	}
	return nil, fmt.Errorf("iosched: unknown scheduler %q", name)
}

// MustNew is New for known-valid names.
func MustNew(name string, p Params) block.Elevator {
	e, err := New(name, p)
	if err != nil {
		panic(err)
	}
	return e
}

// ---------------------------------------------------------------------------
// Shared building blocks
// ---------------------------------------------------------------------------

// sortedList keeps requests in ascending start-sector order, supporting the
// one-way elevator scan every sorting scheduler uses.
type sortedList struct {
	reqs []*block.Request
}

func (l *sortedList) len() int { return len(l.reqs) }

func (l *sortedList) insert(r *block.Request) {
	i := sort.Search(len(l.reqs), func(i int) bool { return l.reqs[i].Sector >= r.Sector })
	l.reqs = append(l.reqs, nil)
	copy(l.reqs[i+1:], l.reqs[i:])
	l.reqs[i] = r
}

// remove deletes r from the list; it panics if r is absent (elevator
// bookkeeping bug).
func (l *sortedList) remove(r *block.Request) {
	i := sort.Search(len(l.reqs), func(i int) bool { return l.reqs[i].Sector >= r.Sector })
	for ; i < len(l.reqs) && l.reqs[i].Sector == r.Sector; i++ {
		if l.reqs[i] == r {
			copy(l.reqs[i:], l.reqs[i+1:])
			l.reqs = l.reqs[:len(l.reqs)-1]
			return
		}
	}
	panic("iosched: removing request not in sorted list")
}

// refresh restores r's sort position after a front merge moved its start
// back from oldSector, which breaks the ascending invariant the binary
// searches rely on. r is looked up under oldSector, the start the list
// still holds it at.
func (l *sortedList) refresh(r *block.Request, oldSector int64) {
	sector := r.Sector
	r.Sector = oldSector
	l.remove(r)
	r.Sector = sector
	l.insert(r)
}

// next returns the first request at or beyond pos, wrapping to the lowest
// sector when the scan passes the end (one-way elevator / C-SCAN).
func (l *sortedList) next(pos int64) *block.Request {
	if len(l.reqs) == 0 {
		return nil
	}
	i := sort.Search(len(l.reqs), func(i int) bool { return l.reqs[i].Sector >= pos })
	if i == len(l.reqs) {
		i = 0
	}
	return l.reqs[i]
}

// fifo is an insertion-ordered queue used for deadline enforcement. Each
// entry carries its request's expiry deadline, so no elevator needs a
// side table keyed by request; noop, which has no deadlines, pushes zero.
type fifo struct {
	reqs []fifoEntry
}

type fifoEntry struct {
	r        *block.Request
	deadline sim.Time
}

func (f *fifo) len() int { return len(f.reqs) }

func (f *fifo) push(r *block.Request, deadline sim.Time) {
	f.reqs = append(f.reqs, fifoEntry{r, deadline})
}

func (f *fifo) front() *block.Request {
	if len(f.reqs) == 0 {
		return nil
	}
	return f.reqs[0].r
}

// frontDeadline returns the deadline of the front request; the caller
// guarantees the fifo is nonempty.
func (f *fifo) frontDeadline() sim.Time { return f.reqs[0].deadline }

func (f *fifo) remove(r *block.Request) {
	for i, e := range f.reqs {
		if e.r == r {
			copy(f.reqs[i:], f.reqs[i+1:])
			f.reqs = f.reqs[:len(f.reqs)-1]
			return
		}
	}
	panic("iosched: removing request not in fifo")
}

// A mergeBucket holds the queued requests under one index key. It stores
// its first entry inline because almost every key holds exactly one queued
// request at a time: the overflow slice only allocates on a genuine
// collision, so steady-state indexing is allocation-free. Bucket order
// evolves exactly like a plain append/swap-remove slice (first is
// conceptual slot 0), and that candidate scan order decides which request
// wins a merge.
type mergeBucket struct {
	first *block.Request
	rest  []*block.Request
}

func (b *mergeBucket) add(r *block.Request) {
	if b.first == nil && len(b.rest) == 0 {
		b.first = r
		return
	}
	b.rest = append(b.rest, r)
}

// cut removes r, moving the last entry into its slot (swap-remove).
func (b *mergeBucket) cut(r *block.Request) {
	if b.first == r {
		if n := len(b.rest); n > 0 {
			b.first = b.rest[n-1]
			b.rest[n-1] = nil
			b.rest = b.rest[:n-1]
		} else {
			b.first = nil
		}
		return
	}
	for i, q := range b.rest {
		if q == r {
			n := len(b.rest)
			b.rest[i] = b.rest[n-1]
			b.rest[n-1] = nil
			b.rest = b.rest[:n-1]
			return
		}
	}
}

// Merge index key kinds: a request is indexed under its start sector and
// under its end sector.
const (
	startKey = 0
	endKey   = 1
)

// merger indexes queued requests by start and end sector, like the block
// layer's rq hash, so an incoming request can be coalesced with an
// adjacent queued request in O(1).
//
// Both indexes share one open-addressed table of buckets held by value.
// The key is (sector<<1 | kind) + 1, so 0 marks an empty slot. Fibonacci
// hashing picks a home slot in a power-of-two array and collisions probe
// linearly. The table doubles at 50% load, and deletion shifts the rest of
// the probe run back, so there are no tombstones. A freed slot keeps its
// bucket's overflow capacity for the next key that lands there.
type merger struct {
	slots      []mergeSlot
	used       int
	shift      uint // 64 - log2(len(slots))
	maxSectors int64
}

type mergeSlot struct {
	key int64
	b   mergeBucket
}

func newMerger(maxSectors int64) *merger {
	return &merger{slots: make([]mergeSlot, 16), shift: 60, maxSectors: maxSectors}
}

func mergeKey(sector, kind int64) int64 { return (sector<<1 | kind) + 1 }

func (m *merger) home(key int64) int { return int(uint64(key) * 0x9e3779b97f4a7c15 >> m.shift) }

// slot returns the index holding key, or the empty slot ending its probe run.
func (m *merger) slot(key int64) int {
	mask := len(m.slots) - 1
	i := m.home(key)
	for m.slots[i].key != 0 && m.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// find returns key's bucket, or nil when no queued request has the key.
func (m *merger) find(sector, kind int64) *mergeBucket {
	s := &m.slots[m.slot(mergeKey(sector, kind))]
	if s.key == 0 {
		return nil
	}
	return &s.b
}

func (m *merger) insert(sector, kind int64, r *block.Request) {
	key := mergeKey(sector, kind)
	i := m.slot(key)
	if m.slots[i].key == 0 {
		if 2*(m.used+1) > len(m.slots) {
			m.grow()
			i = m.slot(key)
		}
		m.slots[i].key = key
		m.used++
	}
	m.slots[i].b.add(r)
}

func (m *merger) grow() {
	old := m.slots
	m.slots = make([]mergeSlot, 2*len(old))
	m.shift--
	for _, s := range old {
		if s.key != 0 {
			m.slots[m.slot(s.key)] = s
		}
	}
}

// drop cuts r from key's bucket and frees the slot once the bucket is
// empty: every later entry of the probe run whose home does not lie
// between the hole and itself moves back into the hole.
func (m *merger) drop(sector, kind int64, r *block.Request) {
	i := m.slot(mergeKey(sector, kind))
	if m.slots[i].key == 0 {
		return
	}
	b := &m.slots[i].b
	b.cut(r)
	if b.first != nil {
		return
	}
	m.used--
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].key != 0; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].key))&mask >= (j-i)&mask {
			m.slots[i], m.slots[j] = m.slots[j], m.slots[i]
			i = j
		}
	}
	m.slots[i].key = 0
}

func (m *merger) add(r *block.Request) {
	m.insert(r.Sector, startKey, r)
	m.insert(r.End(), endKey, r)
}

func (m *merger) remove(r *block.Request) {
	m.drop(r.Sector, startKey, r)
	m.drop(r.End(), endKey, r)
}

// tryMerge attempts to coalesce r into a queued request. On success it
// returns the grown request (whose index entries have been refreshed);
// cascading merges of the third adjacent request are not attempted, like
// most 2.6 elevators.
func (m *merger) tryMerge(r *block.Request) *block.Request {
	if b := m.find(r.Sector, endKey); b != nil {
		if b.first.CanBackMerge(r, m.maxSectors) {
			q := b.first
			m.remove(q)
			q.BackMerge(r)
			m.add(q)
			return q
		}
		for _, q := range b.rest {
			if q.CanBackMerge(r, m.maxSectors) {
				m.remove(q)
				q.BackMerge(r)
				m.add(q)
				return q
			}
		}
	}
	if b := m.find(r.End(), startKey); b != nil {
		if b.first.CanFrontMerge(r, m.maxSectors) {
			q := b.first
			m.remove(q)
			q.FrontMerge(r)
			m.add(q)
			return q
		}
		for _, q := range b.rest {
			if q.CanFrontMerge(r, m.maxSectors) {
				m.remove(q)
				q.FrontMerge(r)
				m.add(q)
				return q
			}
		}
	}
	return nil
}
