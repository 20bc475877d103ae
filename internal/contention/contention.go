// Package contention characterizes the slotted CSMA/CA algorithm by
// Monte-Carlo simulation, reproducing the methodology behind the paper's
// Fig. 6: for a given network load λ (aggregate on-air time relative to the
// beacon interval) and packet size, it measures
//
//   - T̄cont: the mean duration of the contention procedure,
//   - N̄CCA:  the mean number of clear channel assessments per procedure,
//   - Pr_cf: the channel access failure probability,
//   - Pr_col: the residual collision probability of granted transmissions.
//
// The simulator works on the backoff-slot grid of one channel: packets
// arrive (by default) uniformly over the inter-beacon period, every node is
// in range of every other (star topology, no hidden terminals), a CCA at a
// slot boundary senses any transmission overlapping that boundary
// (including one starting at it, since its energy fills the CCA window),
// and collisions therefore occur exactly when several granted nodes start
// on the same boundary.
//
// Each shard runs its event loop on internal/des's two-band Queue, the same
// queue the network simulator uses. All arrivals of a shard are drawn up
// front, so their first CCAs are bulk-loaded into the far band and sorted
// once (stable radix sort on slot); the near heap holds only live
// contenders and deferred resumes and stays small. The queue key
// slot<<1 | kind with the spawn sequence as tie-break is the (slot, kind,
// seq) order the loop has always fired in, so results are unchanged
// (TestQueueReplayIdentity pins this against a single-heap reference).
package contention

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"dense802154/internal/des"
	"dense802154/internal/engine"
	"dense802154/internal/frame"
	"dense802154/internal/mac"
	"dense802154/internal/phy"
	"dense802154/internal/stats"
)

// ArrivalModel selects when packets become ready inside a superframe.
type ArrivalModel int

// Arrival models.
const (
	// ArrivalUniform spreads packet arrivals uniformly over the
	// inter-beacon period — the statistical multiplexing of sparse sensor
	// data the paper's §2 describes. This is the default.
	ArrivalUniform ArrivalModel = iota
	// ArrivalAtBeacon makes every packet contend right after the beacon,
	// the worst-case burst used as an ablation.
	ArrivalAtBeacon
)

// String implements fmt.Stringer.
func (a ArrivalModel) String() string {
	switch a {
	case ArrivalUniform:
		return "uniform"
	case ArrivalAtBeacon:
		return "at-beacon"
	default:
		return fmt.Sprintf("arrival(%d)", int(a))
	}
}

// Config parameterizes one Monte-Carlo run.
type Config struct {
	// PayloadBytes is the data payload L; the on-air packet is
	// Lo + L bytes (paper accounting).
	PayloadBytes int
	// Superframe fixes the slot grid (the paper uses BO = SO = 6).
	Superframe mac.Superframe
	// CSMA are the algorithm parameters (defaults to mac.PaperParams).
	CSMA mac.CSMAParams
	// Arrival selects the arrival model.
	Arrival ArrivalModel
	// TargetLoad is the offered load λ; the simulator offers
	// λ·Tib/Tpacket packets per superframe.
	TargetLoad float64
	// Superframes is the number of beacon intervals to simulate.
	Superframes int
	// BeaconBytes is the beacon's on-air size; the channel is busy for
	// that long after each beacon boundary. Defaults to a minimal beacon.
	BeaconBytes int
	// Seed drives the deterministic RNG.
	Seed int64
	// Workers bounds the goroutines simulating superframe shards: 1 runs
	// serially, 0 (or negative) uses runtime.NumCPU(). The simulation is
	// sharded into fixed blocks of superframes with per-shard seeds derived
	// from Seed, so the result is bit-identical at any worker count —
	// Workers only changes wall-clock time, never statistics.
	Workers int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.CSMA == (mac.CSMAParams{}) {
		c.CSMA = mac.PaperParams()
	}
	if c.Superframe == (mac.Superframe{}) {
		sf, err := mac.NewSuperframe(6, 6)
		if err != nil {
			panic(err)
		}
		c.Superframe = sf
	}
	if c.Superframes == 0 {
		c.Superframes = 50
	}
	if c.BeaconBytes == 0 {
		c.BeaconBytes = frame.BeaconOnAirBytes(0, 0, 0, 0)
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 120
	}
	return c
}

// PacketDuration reports the on-air time of one packet.
func (c Config) PacketDuration() time.Duration {
	return frame.PaperPacketDuration(c.PayloadBytes)
}

// PacketsPerSuperframe reports the offered packets per beacon interval that
// realize TargetLoad.
func (c Config) PacketsPerSuperframe() float64 {
	cc := c.withDefaults()
	return cc.TargetLoad * float64(cc.Superframe.BeaconInterval()) / float64(cc.PacketDuration())
}

// Result is the aggregate outcome of a run.
type Result struct {
	Config       Config
	OfferedLoad  float64 // realized offered load
	Transactions int
	Granted      int
	Failed       int
	Collided     int

	MeanContention time.Duration // T̄cont
	ContentionCI95 time.Duration
	MeanCCAs       float64 // N̄CCA
	CCAsCI95       float64
	PrCF           float64 // channel access failure probability
	PrCFCI95       float64
	PrCol          float64 // collision probability among granted
	PrColCI95      float64
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("λ=%.3f L=%dB: Tcont=%v NCCA=%.2f Prcf=%.3f Prcol=%.3f (n=%d)",
		r.OfferedLoad, r.Config.PayloadBytes, r.MeanContention.Round(time.Microsecond),
		r.MeanCCAs, r.PrCF, r.PrCol, r.Transactions)
}

// event kinds, ordered so that within a slot transmission starts are
// processed before CCAs (a transmission beginning at a boundary is detected
// by a CCA at that boundary). An event's queue key is slot<<1 | kind, so the
// des.Queue order (key, seq) is exactly (slot, kind, seq).
const (
	evTxStart = iota
	evCCA
)

// txn is one packet's channel-access attempt. The mac.Transaction is
// embedded by value and re-initialized in place, so a shard's whole
// population lives in one flat slice with no per-packet allocation.
type txn struct {
	t           mac.Transaction
	arrivalSlot int64
	endSlot     int64
	granted     bool
	failed      bool
	collided    bool
}

// shard is the reusable state of one Monte-Carlo shard: the event queue,
// the flat transaction population, the same-slot starter scratch list and
// the shard's own single-word RNG. Shards are recycled through shardPool, so
// a steady stream of Simulate calls reuses the same backing arrays instead
// of re-growing them.
type shard struct {
	rng      engine.RNG
	q        des.Queue
	txns     []txn
	starters []int32
}

var shardPool = sync.Pool{New: func() any { return new(shard) }}

func (s *shard) reset(seed int64) {
	s.rng = engine.NewRNG(seed)
	s.q.Reset()
	s.txns = s.txns[:0]
	s.starters = s.starters[:0]
}

// shardSuperframes is the fixed shard width of the parallel Monte-Carlo
// mode: Simulate cuts the run into independent blocks of this many
// superframes, each seeded from Config.Seed and its shard index. The
// decomposition depends only on Config.Superframes — never on Workers — so
// shard results merge to the same statistics at any worker count.
//
// Shards are statistically independent replicas: each starts with an idle
// channel and drains its deferred transactions against arrival-free
// superframes past its last beacon, so contention backlog does not carry
// across shard boundaries. At high load this biases Pr_cf/T̄cont slightly
// low versus one continuous run; the bias shrinks with the shard width and
// sits well inside the reproduction tolerances (the Monte-Carlo run is
// itself an approximation of the paper's unspecified simulator).
const shardSuperframes = 8

// Simulate runs the Monte-Carlo characterization. The run is sharded into
// independent superframe blocks executed on Config.Workers goroutines;
// results are bit-identical for every worker count (see Config.Workers).
//
// Shard state (event queue, transaction population, RNG) is pooled and
// reused across calls, and the per-shard statistics are folded shard by
// shard in index order — there is no merged transaction slice at all, so
// steady-state Simulate calls allocate only the small shard-pointer table.
func Simulate(cfg Config) Result {
	cfg = cfg.withDefaults()
	if cfg.TargetLoad < 0 {
		panic("contention: negative target load")
	}
	// Validated once per run: mac.Transaction.Init trusts its parameters.
	if err := cfg.CSMA.Validate(); err != nil {
		panic(err)
	}
	nShards := (cfg.Superframes + shardSuperframes - 1) / shardSuperframes
	shards := make([]*shard, nShards)
	// The shard closure cannot fail and the context is never canceled, so
	// Map's error is structurally nil.
	_ = engine.Map(context.Background(), cfg.Workers, nShards, func(i int) error {
		sf := shardSuperframes
		if i == nShards-1 {
			sf = cfg.Superframes - i*shardSuperframes
		}
		st := shardPool.Get().(*shard)
		simulateShard(cfg, sf, engine.DeriveSeed(cfg.Seed, int64(i)), st)
		shards[i] = st
		return nil
	})
	r := aggregate(cfg, shards)
	for _, st := range shards {
		shardPool.Put(st)
	}
	return r
}

// simulateShard runs the event loop over one independent block of
// superframes with its own RNG; it is the unit of parallelism. Every
// arrival of the block is drawn up front, so the first CCAs are bulk-loaded
// into the queue's far band and radix-sorted once; the near heap then holds
// only the live contenders and deferred resumes. The shard's backing arrays
// are reused from call to call; the loop itself performs no steady-state
// allocation (see TestSimulateAllocBudget).
func simulateShard(cfg Config, superframes int, seed int64, st *shard) {
	st.reset(seed)
	rng := &st.rng
	q := &st.q

	sfSlots := int64(cfg.Superframe.BeaconInterval() / phy.UnitBackoffPeriod)
	packetSlots := float64(cfg.PacketDuration()) / float64(phy.UnitBackoffPeriod)
	beaconSlots := float64(phy.TxDuration(cfg.BeaconBytes)) / float64(phy.UnitBackoffPeriod)
	perSF := cfg.PacketsPerSuperframe()

	// Integer slot bounds: for an integer slot s and a real bound x,
	// s < x ⇔ s < ⌈x⌉, so every busy-window comparison below runs on
	// precomputed integers while deciding exactly like the real-valued
	// original.
	packetCeil := int64(math.Ceil(packetSlots))
	beaconCeil := int64(math.Ceil(beaconSlots))

	seq := uint64(0)
	entry := func(slot int64, kind int64, ti int32) des.Entry {
		e := des.Entry{Key: slot<<1 | kind, Seq: seq, Actor: ti}
		seq++
		return e
	}

	// Generate arrivals for every superframe of the shard up front. The
	// first CCA occurs after the initial random backoff.
	for k := 0; k < superframes; k++ {
		base := int64(k) * sfSlots
		n := int(perSF)
		if rng.Float64() < perSF-float64(n) {
			n++
		}
		for i := 0; i < n; i++ {
			arrival := base
			if cfg.Arrival != ArrivalAtBeacon {
				arrival += rng.Int63n(sfSlots)
			}
			st.txns = append(st.txns, txn{arrivalSlot: arrival})
			ti := int32(len(st.txns) - 1)
			t := &st.txns[ti]
			t.t.Init(cfg.CSMA, rng)
			q.Load(entry(arrival+int64(t.t.SkipBackoff()), evCCA, ti))
		}
	}
	q.Sort()

	// Channel occupancy: transmissions never overlap except when they
	// start on the same boundary, so one (start, until) pair suffices.
	busyStart := int64(-1)
	busyUntil := int64(math.MinInt64)
	lastStartSlot := int64(-1)

	channelBusy := func(slot int64) bool {
		if slot < busyUntil && slot >= busyStart {
			return true
		}
		return slot%sfSlots < beaconCeil
	}
	flushStarters := func() {
		if len(st.starters) > 1 {
			for _, ti := range st.starters {
				st.txns[ti].collided = true
			}
		}
		st.starters = st.starters[:0]
	}

	for {
		ev, ok := q.Pop()
		if !ok {
			break
		}
		slot, ti := ev.Key>>1, ev.Actor
		if slot != lastStartSlot {
			flushStarters()
		}
		t := &st.txns[ti]
		if ev.Key&1 == evTxStart {
			// Defer if the packet cannot finish before the next beacon:
			// resume with fresh CCAs right after that beacon.
			phase := slot % sfSlots
			if phase+packetCeil > sfSlots {
				resume := (slot/sfSlots+1)*sfSlots + beaconCeil
				q.Push(entry(resume, evCCA, ti))
				// Re-arm the contention window: the transaction object
				// cannot be rewound, so count the grant only when the
				// transmission really starts.
				t.granted = false
				continue
			}
			t.granted = true
			t.endSlot = slot + packetCeil
			busyStart = slot
			if until := slot + packetCeil; until > busyUntil {
				busyUntil = until
			}
			lastStartSlot = slot
			st.starters = append(st.starters, ti)
			continue
		}
		if t.t.Done() {
			// A deferred transaction resuming after a beacon: grant
			// immediately at this boundary (its CCAs already succeeded);
			// re-check fit via the evTxStart path.
			q.Push(entry(slot, evTxStart, ti))
			continue
		}
		switch t.t.CCAResult(channelBusy(slot)) {
		case mac.OutcomeNextCCA:
			q.Push(entry(slot+1, evCCA, ti))
		case mac.OutcomeTransmit:
			q.Push(entry(slot+1, evTxStart, ti))
		case mac.OutcomeBackoff:
			q.Push(entry(slot+1+int64(t.t.SkipBackoff()), evCCA, ti))
		case mac.OutcomeFailure:
			t.failed = true
			t.endSlot = slot
		}
	}
	flushStarters()
}

// aggregate folds the per-shard transaction populations into a Result; the
// serial in-order fold (shard order, then arrival order within each shard)
// visits transactions exactly as the old merged slice did, keeping
// floating-point sums worker-count independent.
func aggregate(cfg Config, shards []*shard) Result {
	sfSlots := int64(cfg.Superframe.BeaconInterval() / phy.UnitBackoffPeriod)
	packetSlots := float64(cfg.PacketDuration()) / float64(phy.UnitBackoffPeriod)
	packetCeil := math.Ceil(packetSlots)

	var cont stats.Accumulator
	var ccas stats.Accumulator
	var cf, col stats.Proportion
	total, granted, failed, collided := 0, 0, 0, 0
	for _, st := range shards {
		total += len(st.txns)
		for i := range st.txns {
			t := &st.txns[i]
			ccas.Add(float64(t.t.CCAs()))
			cf.Observe(t.failed)
			if t.failed {
				failed++
				cont.Add(float64(t.endSlot-t.arrivalSlot) * phy.UnitBackoffPeriod.Seconds())
			}
			if t.granted {
				granted++
				col.Observe(t.collided)
				if t.collided {
					collided++
				}
				txStart := float64(t.endSlot) - packetCeil
				cont.Add((txStart - float64(t.arrivalSlot)) * phy.UnitBackoffPeriod.Seconds())
			}
		}
	}
	offered := float64(total) * packetSlots / float64(int64(cfg.Superframes)*sfSlots)
	return Result{
		Config:         cfg,
		OfferedLoad:    offered,
		Transactions:   total,
		Granted:        granted,
		Failed:         failed,
		Collided:       collided,
		MeanContention: time.Duration(cont.Mean() * float64(time.Second)),
		ContentionCI95: time.Duration(cont.CI95() * float64(time.Second)),
		MeanCCAs:       ccas.Mean(),
		CCAsCI95:       ccas.CI95(),
		PrCF:           cf.Value(),
		PrCFCI95:       cf.CI95(),
		PrCol:          col.Value(),
		PrColCI95:      col.CI95(),
	}
}
