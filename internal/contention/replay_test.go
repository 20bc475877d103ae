package contention

import (
	"math"
	"reflect"
	"testing"

	"dense802154/internal/engine"
	"dense802154/internal/mac"
	"dense802154/internal/phy"
)

// The shard event loop runs on the shared two-band des.Queue: arrivals are
// bulk-loaded and radix-sorted into the far band, live contenders sift
// through the near heap. That split must be invisible. The reference below
// is the single-heap event loop the queue replaced, kept verbatim in spirit:
// its own binary heap ordered by (slot, kind, seq), every arrival pushed up
// front, per-slot AdvanceSlot backoff loops. Nothing is shared with the
// production loop but the transaction state machine and the final fold.

// refEvent is one entry of the reference heap.
type refEvent struct {
	slot int64
	seq  int32
	kind uint8
	txn  int32
}

func refBefore(a, b *refEvent) bool {
	if a.slot != b.slot {
		return a.slot < b.slot
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// refHeap is a plain binary min-heap.
type refHeap []refEvent

func (h *refHeap) push(ev refEvent) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !refBefore(&s[i], &s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *refHeap) pop() refEvent {
	s := *h
	min := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && refBefore(&s[l], &s[m]) {
			m = l
		}
		if r < n && refBefore(&s[r], &s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return min
}

// refSimulateShard is the reference shard loop; it fills st.txns exactly as
// simulateShard must.
func refSimulateShard(cfg Config, superframes int, seed int64, st *shard) {
	st.rng = engine.NewRNG(seed)
	st.txns = st.txns[:0]
	rng := &st.rng
	var h refHeap

	sfSlots := int64(cfg.Superframe.BeaconInterval() / phy.UnitBackoffPeriod)
	packetSlots := float64(cfg.PacketDuration()) / float64(phy.UnitBackoffPeriod)
	beaconSlots := float64(phy.TxDuration(cfg.BeaconBytes)) / float64(phy.UnitBackoffPeriod)
	perSF := cfg.PacketsPerSuperframe()

	seq := int32(0)
	push := func(slot int64, kind uint8, ti int32) {
		h.push(refEvent{slot: slot, seq: seq, kind: kind, txn: ti})
		seq++
	}
	spawn := func(arrival int64) {
		st.txns = append(st.txns, txn{arrivalSlot: arrival})
		ti := int32(len(st.txns) - 1)
		t := &st.txns[ti]
		t.t.Init(cfg.CSMA, rng)
		first := arrival
		for !t.t.CCADue() {
			t.t.AdvanceSlot()
			first++
		}
		push(first, evCCA, ti)
	}
	for k := 0; k < superframes; k++ {
		base := int64(k) * sfSlots
		n := int(perSF)
		if rng.Float64() < perSF-float64(n) {
			n++
		}
		for i := 0; i < n; i++ {
			switch cfg.Arrival {
			case ArrivalAtBeacon:
				spawn(base)
			default:
				spawn(base + rng.Int63n(sfSlots))
			}
		}
	}

	busyStart := int64(-1)
	busyUntil := int64(math.MinInt64)
	lastStartSlot := int64(-1)
	var starters []int32
	flush := func() {
		if len(starters) > 1 {
			for _, ti := range starters {
				st.txns[ti].collided = true
			}
		}
		starters = starters[:0]
	}
	for len(h) > 0 {
		ev := h.pop()
		if ev.slot != lastStartSlot {
			flush()
		}
		t := &st.txns[ev.txn]
		switch ev.kind {
		case evTxStart:
			if ev.slot%sfSlots+int64(math.Ceil(packetSlots)) > sfSlots {
				push((ev.slot/sfSlots+1)*sfSlots+int64(math.Ceil(beaconSlots)), evCCA, ev.txn)
				t.granted = false
				continue
			}
			t.granted = true
			t.endSlot = ev.slot + int64(math.Ceil(packetSlots))
			busyStart = ev.slot
			if t.endSlot > busyUntil {
				busyUntil = t.endSlot
			}
			lastStartSlot = ev.slot
			starters = append(starters, ev.txn)
		case evCCA:
			if t.t.Done() {
				push(ev.slot, evTxStart, ev.txn)
				continue
			}
			busy := (float64(ev.slot) < float64(busyUntil) && ev.slot >= busyStart) ||
				float64(ev.slot%sfSlots) < beaconSlots
			switch t.t.CCAResult(busy) {
			case mac.OutcomeNextCCA:
				push(ev.slot+1, evCCA, ev.txn)
			case mac.OutcomeTransmit:
				push(ev.slot+1, evTxStart, ev.txn)
			case mac.OutcomeBackoff:
				next := ev.slot + 1
				for !t.t.CCADue() {
					t.t.AdvanceSlot()
					next++
				}
				push(next, evCCA, ev.txn)
			case mac.OutcomeFailure:
				t.failed = true
				t.endSlot = ev.slot
			}
		}
	}
	flush()
}

// refSimulate is Simulate over the reference shard loop, serially.
func refSimulate(cfg Config) Result {
	cfg = cfg.withDefaults()
	nShards := (cfg.Superframes + shardSuperframes - 1) / shardSuperframes
	shards := make([]*shard, nShards)
	for i := range shards {
		sf := shardSuperframes
		if i == nShards-1 {
			sf = cfg.Superframes - i*shardSuperframes
		}
		shards[i] = new(shard)
		refSimulateShard(cfg, sf, engine.DeriveSeed(cfg.Seed, int64(i)), shards[i])
	}
	return aggregate(cfg, shards)
}

// replayGrid is the configuration grid both loops are compared on: three
// beacon orders, both arrival models, light to saturated loads, tiny to
// full payloads and three seeds.
func replayGrid(t *testing.T) []Config {
	var cfgs []Config
	for _, bo := range []uint8{3, 6, 8} {
		sf, err := mac.NewSuperframe(bo, bo)
		if err != nil {
			t.Fatal(err)
		}
		for _, arrival := range []ArrivalModel{ArrivalUniform, ArrivalAtBeacon} {
			for _, load := range []float64{0.01, 0.1, 0.3, 0.6, 0.95} {
				for _, payload := range []int{5, 20, 60, 120} {
					for seed := int64(1); seed <= 3; seed++ {
						cfgs = append(cfgs, Config{
							PayloadBytes: payload, Superframe: sf, Arrival: arrival,
							TargetLoad: load, Superframes: 9, Seed: seed, Workers: 1,
						})
					}
				}
			}
		}
	}
	return cfgs
}

// TestQueueReplayIdentity proves the two-band queue loop reproduces the
// single-heap reference exactly: every Result field, on every config of the
// grid (the 9-superframe runs include a short trailing shard).
func TestQueueReplayIdentity(t *testing.T) {
	cfgs := replayGrid(t)
	if testing.Short() {
		cfgs = cfgs[:len(cfgs)/3] // BO 3 only
	}
	for _, cfg := range cfgs {
		got, want := Simulate(cfg), refSimulate(cfg)
		if got != want {
			t.Fatalf("BO=%d %v λ=%.2f L=%d seed=%d:\n got  %+v\n want %+v",
				cfg.Superframe.BO, cfg.Arrival, cfg.TargetLoad, cfg.PayloadBytes, cfg.Seed, got, want)
		}
	}
}

// TestShardRecycleBitIdentity pins the pool contract for shards: a shard
// that has just run a large config, then runs a small one, must end in
// exactly the state a fresh shard reaches on the small config.
func TestShardRecycleBitIdentity(t *testing.T) {
	big := Config{TargetLoad: 0.95, PayloadBytes: 5, Superframes: 8, Seed: 11}.withDefaults()
	small := Config{TargetLoad: 0.1, PayloadBytes: 120, Superframes: 3, Seed: 12, Arrival: ArrivalAtBeacon}.withDefaults()

	recycled := new(shard)
	simulateShard(big, big.Superframes, engine.DeriveSeed(big.Seed, 0), recycled)
	simulateShard(small, small.Superframes, engine.DeriveSeed(small.Seed, 0), recycled)
	fresh := new(shard)
	simulateShard(small, small.Superframes, engine.DeriveSeed(small.Seed, 0), fresh)

	if !reflect.DeepEqual(recycled.txns, fresh.txns) {
		t.Fatal("recycled shard's transactions differ from a fresh shard's")
	}
	if recycled.rng != fresh.rng {
		t.Fatal("recycled shard's RNG state differs from a fresh shard's")
	}
	if recycled.q.Len() != 0 || len(recycled.starters) != 0 {
		t.Fatalf("recycled shard left %d queued events, %d starters", recycled.q.Len(), len(recycled.starters))
	}
	got := aggregate(small, []*shard{recycled})
	want := aggregate(small, []*shard{fresh})
	if got != want {
		t.Fatalf("recycled result %+v, fresh %+v", got, want)
	}
}
