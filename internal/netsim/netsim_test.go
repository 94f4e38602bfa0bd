package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptmr/internal/sim"
)

func testNet(nodes int) (*sim.Engine, *Network) {
	eng := sim.New(1)
	return eng, New(eng, nodes, Config{NICBps: 100e6, BridgeBps: 400e6})
}

func TestSingleFlowFullRate(t *testing.T) {
	eng, n := testNet(2)
	var done sim.Time
	n.Send(0, 1, 100e6, func() { done = eng.Now() })
	eng.Run()
	if math.Abs(done.Seconds()-1.0) > 1e-6 {
		t.Fatalf("100MB at 100MB/s took %v", done)
	}
	if n.Active() != 0 {
		t.Fatalf("active = %d", n.Active())
	}
}

func TestTwoFlowsShareUplink(t *testing.T) {
	eng, n := testNet(3)
	var t1, t2 sim.Time
	n.Send(0, 1, 50e6, func() { t1 = eng.Now() })
	n.Send(0, 2, 50e6, func() { t2 = eng.Now() })
	eng.Run()
	// Both share node 0's uplink: 50 MB each at 50 MB/s → 1s.
	if math.Abs(t1.Seconds()-1.0) > 1e-6 || math.Abs(t2.Seconds()-1.0) > 1e-6 {
		t.Fatalf("finish %v %v, want 1s both", t1, t2)
	}
}

func TestDownlinkBottleneck(t *testing.T) {
	eng, n := testNet(3)
	var t1, t2 sim.Time
	n.Send(0, 2, 50e6, func() { t1 = eng.Now() })
	n.Send(1, 2, 50e6, func() { t2 = eng.Now() })
	eng.Run()
	// Different uplinks, shared downlink at node 2.
	if math.Abs(t1.Seconds()-1.0) > 1e-6 || math.Abs(t2.Seconds()-1.0) > 1e-6 {
		t.Fatalf("finish %v %v", t1, t2)
	}
}

func TestMaxMinUnevenShares(t *testing.T) {
	eng, n := testNet(4)
	// Flow A: 0→1 alone on its links after B is bottlenecked elsewhere.
	// B and C share node 3's downlink; A shares node 0's uplink with B.
	fA := n.Send(0, 1, 1e9, nil)
	fB := n.Send(0, 3, 1e9, nil)
	fC := n.Send(2, 3, 1e9, nil)
	// Max-min: node0 up serves A+B (50/50); node3 down serves B+C (50/50);
	// B bottlenecked at 50; A gets remaining 50... then A could take up to
	// 50 more? Water-filling: all links have 2 flows at 50 → all frozen at
	// 50 except A: after B frozen at 50, node0 has 50 left for A alone →
	// A = 50? No: A freezes in the same round at share 50. C likewise.
	if math.Abs(fA.Rate()-50e6) > 1 || math.Abs(fB.Rate()-50e6) > 1 || math.Abs(fC.Rate()-50e6) > 1 {
		t.Fatalf("rates %v %v %v", fA.Rate(), fB.Rate(), fC.Rate())
	}
	_ = eng
}

func TestRateIncreasesWhenFlowLeaves(t *testing.T) {
	eng, n := testNet(2)
	long := n.Send(0, 1, 200e6, nil)
	n.Send(0, 1, 50e6, nil) // shares 50/50, finishes at 1s
	eng.RunUntil(sim.Time(1500 * sim.Millisecond))
	if math.Abs(long.Rate()-100e6) > 1 {
		t.Fatalf("survivor rate = %v, want full link", long.Rate())
	}
	eng.Run()
	// long: 1s at 50 + remaining 150MB at 100 → 2.5s total.
	if math.Abs(eng.Now().Seconds()-2.5) > 1e-6 {
		t.Fatalf("long flow finished at %v", eng.Now())
	}
}

func TestBridgeFlowsBypassNIC(t *testing.T) {
	eng, n := testNet(2)
	var tb sim.Time
	n.Send(0, 0, 400e6, func() { tb = eng.Now() })
	nic := n.Send(0, 1, 100e6, nil)
	eng.Run()
	// Bridge flow gets 400 MB/s and does not affect the NIC flow.
	if math.Abs(tb.Seconds()-1.0) > 1e-6 {
		t.Fatalf("bridge flow took %v", tb)
	}
	_ = nic
	st := n.Stats()
	if st.BridgeFlows != 1 || st.Flows != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestZeroByteTransfer(t *testing.T) {
	eng, n := testNet(2)
	done := false
	n.Send(0, 1, 0, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("zero-byte flow never completed")
	}
}

func TestCancelSuppressesCallback(t *testing.T) {
	eng, n := testNet(2)
	fired := false
	f := n.Send(0, 1, 10e6, func() { fired = true })
	f.Cancel()
	eng.Run()
	if fired {
		t.Fatal("cancelled flow fired callback")
	}
}

func TestValidation(t *testing.T) {
	eng, n := testNet(2)
	for _, fn := range []func(){
		func() { n.Send(-1, 0, 1, nil) },
		func() { n.Send(0, 5, 1, nil) },
		func() { n.Send(0, 1, -1, nil) },
		func() { New(eng, 0, DefaultConfig()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}

// Property: byte conservation — the network delivers exactly the bytes
// offered, and all flows complete.
func TestQuickByteConservation(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 30 {
			return true
		}
		eng := sim.New(seed)
		n := New(eng, 4, DefaultConfig())
		want := 0.0
		finished := 0
		for i, r := range raw {
			bytes := float64(r) * 1e4
			want += bytes
			n.Send(i%4, (i+1)%4, bytes, func() { finished++ })
		}
		eng.Run()
		if finished != len(raw) {
			return false
		}
		got := n.Stats().Bytes
		return math.Abs(got-want) < float64(len(raw))*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// refWaterFill is the map-based max-min water-filling the dense solver
// replaced, kept verbatim as the reference the differential tests compare
// against: links in first-use order, strict share < best, members walked
// in flow insertion order.
func refWaterFill(cfg Config, flows []*Flow) {
	type link struct {
		node int
		kind uint8 // 0 = up, 1 = down, 2 = bridge
	}
	capLeft := make(map[link]float64)
	members := make(map[link][]*Flow)
	flowLinks := make(map[*Flow][]link)
	var links []link
	for _, f := range flows {
		var ls []link
		if f.src == f.dst {
			ls = []link{{f.src, 2}}
		} else {
			ls = []link{{f.src, 0}, {f.dst, 1}}
		}
		flowLinks[f] = ls
		for _, l := range ls {
			if _, ok := capLeft[l]; !ok {
				if l.kind == 2 {
					capLeft[l] = cfg.BridgeBps
				} else {
					capLeft[l] = cfg.NICBps
				}
				links = append(links, l)
			}
			members[l] = append(members[l], f)
		}
	}

	frozen := make(map[*Flow]bool)
	unfrozenOn := func(l link) int {
		c := 0
		for _, f := range members[l] {
			if !frozen[f] {
				c++
			}
		}
		return c
	}

	for len(frozen) < len(flows) {
		var bott link
		best := math.Inf(1)
		found := false
		for _, l := range links {
			k := unfrozenOn(l)
			if k == 0 {
				continue
			}
			share := capLeft[l] / float64(k)
			if share < best {
				best, bott, found = share, l, true
			}
		}
		if !found {
			break
		}
		for _, f := range members[bott] {
			if frozen[f] {
				continue
			}
			frozen[f] = true
			f.rate = best
			for _, l := range flowLinks[f] {
				capLeft[l] -= best
				if capLeft[l] < 0 {
					capLeft[l] = 0
				}
			}
		}
	}
}

// refRecompute re-solves n's rates with the reference solver and re-arms
// completion from them, overriding whatever the dense solver decided.
func refRecompute(n *Network) {
	if n.next != nil {
		n.next.Cancel()
		n.next = nil
	}
	refWaterFill(n.cfg, n.flows)
	n.arm()
}

// randomNet draws a network and a flow set: 1-16 nodes, 1-150 flows,
// with bridge flows, zero-byte flows and capacities and sizes drawn from
// small sets so that link shares and finish times tie often.
func randomNet(rng *rand.Rand) (nodes int, cfg Config, flows []flowSpec) {
	nodes = 1 + rng.Intn(16)
	nics := []float64{100e6, 117e6, 200e6}
	cfg.NICBps = nics[rng.Intn(len(nics))]
	// Bridge capacity is sometimes exactly one or two NICs, so bridge and
	// NIC links tie.
	cfg.BridgeBps = cfg.NICBps * float64(1+rng.Intn(4))
	sizes := []float64{0, 1e6, 5e6, 64e6, 64e6, 128e6}
	for i, nf := 0, 1+rng.Intn(150); i < nf; i++ {
		src, dst := rng.Intn(nodes), rng.Intn(nodes)
		if rng.Intn(5) == 0 {
			dst = src
		}
		bytes := sizes[rng.Intn(len(sizes))]
		if rng.Intn(4) == 0 {
			bytes = float64(rng.Int63n(200e6))
		}
		flows = append(flows, flowSpec{src, dst, bytes, sim.Duration(rng.Intn(4)) * 250 * sim.Millisecond})
	}
	return nodes, cfg, flows
}

type flowSpec struct {
	src, dst int
	bytes    float64
	at       sim.Duration // send time
}

// TestMatchesReference pins bit-exactness of the dense solver. Each random
// flow set runs to drain twice in lockstep, once on the dense solver and
// once with every recompute overridden by the reference. Every event (each
// Send and each completion) must leave every flow's rate equal to the
// last bit, and every flow must finish at the same instant.
func TestMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes, cfg, specs := randomNet(rng)
		var nets [2]*Network
		var done [2][]sim.Time
		for k := range nets {
			eng := sim.New(seed)
			n := New(eng, nodes, cfg)
			nets[k] = n
			done[k] = make([]sim.Time, len(specs))
			for i, s := range specs {
				eng.Schedule(s.at, func() {
					n.Send(s.src, s.dst, s.bytes, func() { done[k][i] = eng.Now() })
				})
			}
		}
		a, b := nets[0], nets[1]
		for steps := 0; ; steps++ {
			okA, okB := a.eng.Step(), b.eng.Step()
			if okA != okB {
				t.Fatalf("seed %d step %d: dense ran=%v, reference ran=%v", seed, steps, okA, okB)
			}
			if !okA {
				break
			}
			refRecompute(b)
			if a.eng.Now() != b.eng.Now() || len(a.flows) != len(b.flows) {
				t.Fatalf("seed %d step %d: dense at %v with %d flows, reference at %v with %d",
					seed, steps, a.eng.Now(), len(a.flows), b.eng.Now(), len(b.flows))
			}
			for j := range a.flows {
				if ra, rb := a.flows[j].Rate(), b.flows[j].Rate(); math.Float64bits(ra) != math.Float64bits(rb) {
					t.Fatalf("seed %d step %d flow %d: rate %v, reference %v", seed, steps, j, ra, rb)
				}
			}
		}
		for i := range specs {
			if done[0][i] != done[1][i] {
				t.Fatalf("seed %d flow %d: finished at %v, reference %v", seed, i, done[0][i], done[1][i])
			}
		}
		if a.Active() != 0 {
			t.Fatalf("seed %d: %d flows never finished", seed, a.Active())
		}
	}
}

// allToAll starts 120 long flows spread over 4 nodes, bridge flows
// included: the peak in-flight count of a wordcount shuffle on the
// 4-host x 4-VM testbed.
func allToAll() *Network {
	n := New(sim.New(1), 4, DefaultConfig())
	for i := 0; i < 120; i++ {
		n.Send(i%4, (i/4+i/16)%4, 1e12, nil)
	}
	return n
}

// rearm is one recompute with every cancelled completion event popped
// back into the engine's pool, as the event loop would do.
func rearm(n *Network) {
	n.recompute()
	n.eng.RunUntil(n.eng.Now())
}

func BenchmarkRecompute(b *testing.B) {
	n := allToAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rearm(n)
	}
}

// TestRecomputeZeroAlloc pins that, once the scratch has grown,
// water-filling allocates nothing: a recompute costs exactly what
// scheduling its completion event costs.
func TestRecomputeZeroAlloc(t *testing.T) {
	n := allToAll()
	rearm(n)
	if a := testing.AllocsPerRun(100, n.waterFill); a != 0 {
		t.Fatalf("waterFill allocates %v per call, want 0", a)
	}
	armOnly := testing.AllocsPerRun(100, func() {
		n.next.Cancel()
		n.arm()
		n.eng.RunUntil(n.eng.Now())
	})
	if a := testing.AllocsPerRun(100, func() { rearm(n) }); a > armOnly {
		t.Fatalf("recompute allocates %v per call, arming alone %v", a, armOnly)
	}
}
