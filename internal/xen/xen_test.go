package xen

import (
	"testing"

	"adaptmr/internal/block"
	"adaptmr/internal/iosched"
	"adaptmr/internal/sim"
)

func smallHostConfig() HostConfig {
	cfg := DefaultHostConfig()
	cfg.VMExtentSectors = 1 << 20 // 512 MB virtual disks keep tests fast
	cfg.VMExtentGap = 1 << 18
	return cfg
}

func TestHostConstruction(t *testing.T) {
	eng := sim.New(1)
	h := NewHost(eng, 0, 4, smallHostConfig())
	if len(h.Domains()) != 4 {
		t.Fatalf("domains = %d", len(h.Domains()))
	}
	if h.Pair() != iosched.DefaultPair {
		t.Fatalf("initial pair = %v", h.Pair())
	}
	if !h.Idle() {
		t.Fatal("fresh host not idle")
	}
	if h.Dom0Queue().Elevator().Name() != iosched.CFQ {
		t.Fatalf("dom0 elevator = %s", h.Dom0Queue().Elevator().Name())
	}
	for _, d := range h.Domains() {
		if d.Queue().Elevator().Name() != iosched.CFQ {
			t.Fatalf("guest elevator = %s", d.Queue().Elevator().Name())
		}
	}
}

func TestDomainExtentsDisjoint(t *testing.T) {
	eng := sim.New(1)
	cfg := smallHostConfig()
	h := NewHost(eng, 0, 4, cfg)
	for i, d := range h.Domains() {
		if d.ExtentSectors() != cfg.VMExtentSectors {
			t.Fatalf("vm %d extent = %d", i, d.ExtentSectors())
		}
		if i > 0 {
			prev := h.Domain(i - 1)
			if prev.extentStart+prev.extentLen > d.extentStart {
				t.Fatalf("extents overlap: vm %d and %d", i-1, i)
			}
		}
	}
}

func TestGuestRequestTranslation(t *testing.T) {
	eng := sim.New(1)
	cfg := smallHostConfig()
	h := NewHost(eng, 0, 2, cfg)
	d := h.Domain(1)
	done := false
	d.Submit(block.Read, 100, 8, true, 5, func(*block.Request) { done = true })
	eng.Run()
	if !done {
		t.Fatal("guest request never completed")
	}
	// The disk head must have landed inside VM 1's extent (translated).
	head := h.Disk().Head()
	want := d.extentStart + 108
	if head != want {
		t.Fatalf("disk head = %d, want %d (translated end)", head, want)
	}
	if !h.Idle() {
		t.Fatal("host busy after completion")
	}
}

func TestGuestRequestOutOfRangePanics(t *testing.T) {
	eng := sim.New(1)
	h := NewHost(eng, 0, 1, smallHostConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-extent request")
		}
	}()
	h.Domain(0).Submit(block.Read, h.Domain(0).ExtentSectors(), 8, true, 1, nil)
}

func TestVMMStreamTagging(t *testing.T) {
	eng := sim.New(1)
	h := NewHost(eng, 0, 3, smallHostConfig())
	var streams []block.StreamID
	h.Dom0Queue().OnComplete(func(r *block.Request) { streams = append(streams, r.Stream) })
	for i := 0; i < 3; i++ {
		h.Domain(i).Submit(block.Read, 0, 8, true, 42, nil)
	}
	eng.Run()
	seen := map[block.StreamID]bool{}
	for _, s := range streams {
		seen[s] = true
	}
	for i := block.StreamID(0); i < 3; i++ {
		if !seen[i] {
			t.Fatalf("VMM never saw stream %d (per-VM tagging broken): %v", i, streams)
		}
	}
}

func TestSetPairSwitchesEverything(t *testing.T) {
	eng := sim.New(1)
	h := NewHost(eng, 0, 2, smallHostConfig())
	done := false
	p := iosched.Pair{VMM: iosched.Anticipatory, VM: iosched.Deadline}
	h.SetPair(p, func() { done = true })
	if h.Pair() != p {
		t.Fatal("pair not recorded")
	}
	eng.Run()
	if !done {
		t.Fatal("switch never completed")
	}
	if h.Dom0Queue().Elevator().Name() != iosched.Anticipatory {
		t.Fatalf("dom0 = %s", h.Dom0Queue().Elevator().Name())
	}
	for _, d := range h.Domains() {
		if d.Queue().Elevator().Name() != iosched.Deadline {
			t.Fatalf("guest = %s", d.Queue().Elevator().Name())
		}
	}
}

func TestSetPairUnderLoadDrains(t *testing.T) {
	eng := sim.New(1)
	h := NewHost(eng, 0, 2, smallHostConfig())
	completed := 0
	for i := 0; i < 20; i++ {
		h.Domain(i%2).Submit(block.Write, int64(i)*1024, 64, false, 1, func(*block.Request) { completed++ })
	}
	switched := false
	h.SetPair(iosched.Pair{VMM: iosched.Deadline, VM: iosched.Noop}, func() { switched = true })
	if !h.Dom0Queue().Switching() || !h.Domain(0).Queue().Switching() {
		t.Fatal("host not switching")
	}
	eng.Run()
	if !switched {
		t.Fatal("switch never finished under load")
	}
	if completed != 20 {
		t.Fatalf("completed %d/20 requests across the switch", completed)
	}
	if h.Dom0Queue().Stats().Switches != 1 {
		t.Fatalf("dom0 switches = %d", h.Dom0Queue().Stats().Switches)
	}
}

func TestInvalidPairPanics(t *testing.T) {
	eng := sim.New(1)
	h := NewHost(eng, 0, 1, smallHostConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid pair")
		}
	}()
	h.SetPair(iosched.Pair{VMM: "bogus", VM: iosched.CFQ}, nil)
}

func TestRingLatencyAddsUp(t *testing.T) {
	eng := sim.New(1)
	cfg := smallHostConfig()
	h := NewHost(eng, 0, 1, cfg)
	var completedAt sim.Time
	h.Domain(0).Submit(block.Read, 0, 8, true, 1, func(*block.Request) { completedAt = eng.Now() })
	eng.Run()
	// At minimum: 2 ring hops + the disk service time.
	pos, xfer := h.Disk().ServiceTime(block.NewRequest(block.Read, 0, 8, true, 1), 0)
	min := sim.Duration(2*cfg.RingLatency) + pos + xfer
	if completedAt < sim.Time(min) {
		t.Fatalf("completed at %v, faster than physically possible (%v)", completedAt, min)
	}
}

func TestExtentOverflowPanics(t *testing.T) {
	eng := sim.New(1)
	cfg := smallHostConfig()
	cfg.VMExtentSectors = cfg.Disk.Sectors // one VM already fills the disk
	defer func() {
		if recover() == nil {
			t.Fatal("no panic when extents exceed disk")
		}
	}()
	NewHost(eng, 0, 2, cfg)
}
