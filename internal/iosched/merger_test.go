package iosched

import (
	"math/rand"
	"testing"

	"adaptmr/internal/block"
)

// refMerger is the two-map merge index that the open-addressed merger
// replaced, kept as the reference for TestMergeIndexMatchesReference. It
// indexes buckets by pointer in one map per key kind and recycles emptied
// buckets through a freelist. It keeps its own copy of the bucket type, so
// a change to mergeBucket's order shows up as a difference.
type refMerger struct {
	byStart    map[int64]*refBucket
	byEnd      map[int64]*refBucket
	free       []*refBucket
	maxSectors int64
}

type refBucket struct {
	first *block.Request
	rest  []*block.Request
}

func (b *refBucket) add(r *block.Request) {
	if b.first == nil && len(b.rest) == 0 {
		b.first = r
		return
	}
	b.rest = append(b.rest, r)
}

func (b *refBucket) cut(r *block.Request) {
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

func newRefMerger(maxSectors int64) *refMerger {
	return &refMerger{
		byStart:    make(map[int64]*refBucket),
		byEnd:      make(map[int64]*refBucket),
		maxSectors: maxSectors,
	}
}

// bucket resolves (creating if needed) the bucket under key in idx.
func (m *refMerger) bucket(idx map[int64]*refBucket, key int64) *refBucket {
	b := idx[key]
	if b == nil {
		if n := len(m.free); n > 0 {
			b = m.free[n-1]
			m.free[n-1] = nil
			m.free = m.free[:n-1]
		} else {
			b = &refBucket{}
		}
		idx[key] = b
	}
	return b
}

func (m *refMerger) add(r *block.Request) {
	m.bucket(m.byStart, r.Sector).add(r)
	m.bucket(m.byEnd, r.End()).add(r)
}

func (m *refMerger) remove(r *block.Request) {
	if b := m.byStart[r.Sector]; b != nil {
		b.cut(r)
		if b.first == nil {
			delete(m.byStart, r.Sector)
			m.free = append(m.free, b)
		}
	}
	if b := m.byEnd[r.End()]; b != nil {
		b.cut(r)
		if b.first == nil {
			delete(m.byEnd, r.End())
			m.free = append(m.free, b)
		}
	}
}

func (m *refMerger) tryMerge(r *block.Request) *block.Request {
	if b := m.byEnd[r.Sector]; b != nil {
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
	if b := m.byStart[r.End()]; b != nil {
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

// mergeIndexCoverage counts the table situations the differential test
// must reach for its verdict to mean anything.
type mergeIndexCoverage struct {
	doublings   int // table size doublings
	sharedStart int // start keys held by two or more requests
	sharedEnd   int // end keys held by two or more requests
	restWins    int // merges won by a bucket's overflow entry
	wrapDeletes int // removals inside a probe run that crosses the array end
}

// TestMergeIndexMatchesReference replays seeded random add/remove/tryMerge
// sequences against the open-addressed merger and the two-map reference,
// each on its own twin copy of every request. Every tryMerge must pick the
// twin of the reference's winner, and after every step each key's bucket
// must hold the twins of the reference bucket's requests in the same
// order. The population swings between a handful and a few hundred queued
// requests, so the table grows through several doublings and drains again;
// new requests often reuse a queued request's start or end sector from
// another stream or op, so buckets overflow under both key kinds.
func TestMergeIndexMatchesReference(t *testing.T) {
	var cov mergeIndexCoverage
	for seed := int64(1); seed <= 6; seed++ {
		diffMergeIndex(t, seed, &cov)
	}
	if cov.doublings < 3*6 || cov.sharedStart == 0 || cov.sharedEnd == 0 || cov.restWins == 0 || cov.wrapDeletes == 0 {
		t.Fatalf("differential workload missed a table situation: %+v", cov)
	}
}

func diffMergeIndex(t *testing.T, seed int64, cov *mergeIndexCoverage) {
	rng := rand.New(rand.NewSource(seed))
	const maxSectors = 48
	m := newMerger(maxSectors)
	ref := newRefMerger(maxSectors)
	twin := map[*block.Request]*block.Request{}
	var live []*block.Request // m's side of the queued requests

	newPair := func() (*block.Request, *block.Request) {
		op := block.Op(rng.Intn(2))
		sync := rng.Intn(2) == 0
		stream := block.StreamID(rng.Intn(3))
		count := int64(8 * (1 + rng.Intn(2)))
		sector := int64(rng.Intn(2048)) * 8
		if len(live) > 0 && rng.Intn(3) == 0 {
			// Share a queued request's start or end sector.
			q := live[rng.Intn(len(live))]
			if rng.Intn(2) == 0 {
				sector = q.Sector
			} else if sector = q.End() - count; sector < 0 {
				sector = q.End()
			}
		} else if len(live) > 0 && rng.Intn(2) == 0 {
			// Abut a queued request, front or back, to make merges likely.
			q := live[rng.Intn(len(live))]
			if sector = q.End(); rng.Intn(2) == 0 && q.Sector >= count {
				sector = q.Sector - count
			}
		}
		a := block.NewRequest(op, sector, count, sync, stream)
		return a, block.NewRequest(op, sector, count, sync, stream)
	}

	for step := 0; step < 8000; step++ {
		target := 8
		if (step/2000)%2 == 0 {
			target = 400
		}
		if len(live) == 0 || (len(live) < target && rng.Intn(5) != 0) || (len(live) >= target && rng.Intn(5) == 0) {
			a, b := newPair()
			var rest []*block.Request
			for _, bk := range []*mergeBucket{m.find(a.Sector, endKey), m.find(a.End(), startKey)} {
				if bk != nil {
					rest = append(rest, bk.rest...)
				}
			}
			slots := len(m.slots)
			got, want := m.tryMerge(a), ref.tryMerge(b)
			if (got == nil) != (want == nil) || (got != nil && twin[got] != want) {
				t.Fatalf("seed %d step %d: tryMerge(%v) = %v, reference %v", seed, step, a, got, want)
			}
			if got == nil {
				m.add(a)
				ref.add(b)
				twin[a] = b
				live = append(live, a)
			}
			for _, q := range rest {
				if got != nil && q == got {
					cov.restWins++
				}
			}
			for n := len(m.slots); n > slots; n /= 2 {
				cov.doublings++
			}
		} else {
			i := rng.Intn(len(live))
			a := live[i]
			if probeRunWraps(m, mergeKey(a.Sector, startKey)) || probeRunWraps(m, mergeKey(a.End(), endKey)) {
				cov.wrapDeletes++
			}
			m.remove(a)
			ref.remove(twin[a])
			delete(twin, a)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		compareMergeIndex(t, seed, step, m, ref, twin, cov)
	}
}

// compareMergeIndex fails unless m holds exactly ref's keys, each bucket
// holding the twins of ref's requests in the same order.
func compareMergeIndex(t *testing.T, seed int64, step int, m *merger, ref *refMerger, twin map[*block.Request]*block.Request, cov *mergeIndexCoverage) {
	t.Helper()
	if m.used != len(ref.byStart)+len(ref.byEnd) {
		t.Fatalf("seed %d step %d: table holds %d keys, reference %d", seed, step, m.used, len(ref.byStart)+len(ref.byEnd))
	}
	for kind, idx := range []map[int64]*refBucket{startKey: ref.byStart, endKey: ref.byEnd} {
		for sector, want := range idx {
			got := m.find(sector, int64(kind))
			if got == nil {
				t.Fatalf("seed %d step %d: key (%d, kind %d) missing", seed, step, sector, kind)
			}
			if twin[got.first] != want.first || len(got.rest) != len(want.rest) {
				t.Fatalf("seed %d step %d: key (%d, kind %d) bucket differs from reference", seed, step, sector, kind)
			}
			for i, q := range got.rest {
				if twin[q] != want.rest[i] {
					t.Fatalf("seed %d step %d: key (%d, kind %d) overflow order differs at %d", seed, step, sector, kind, i)
				}
			}
			if len(want.rest) > 0 && kind == startKey {
				cov.sharedStart++
			} else if len(want.rest) > 0 {
				cov.sharedEnd++
			}
		}
	}
}

// probeRunWraps reports whether key sits in a probe run that crosses the
// end of the slot array.
func probeRunWraps(m *merger, key int64) bool {
	mask := len(m.slots) - 1
	i := m.slot(key)
	if m.slots[i].key == 0 || m.slots[0].key == 0 || m.slots[mask].key == 0 {
		return false
	}
	for j := i; m.slots[j].key != 0; j = (j + 1) & mask {
		if j == mask {
			return true
		}
	}
	for j := i; m.slots[j].key != 0; j = (j - 1) & mask {
		if j == 0 {
			return true
		}
	}
	return false
}
