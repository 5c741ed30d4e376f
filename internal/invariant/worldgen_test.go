package invariant_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudsync/internal/deferpolicy"
	"cloudsync/internal/syncnet"
	"cloudsync/internal/watchsync"
)

// block is a world's delta block size, on the server and every client:
// files of one to a few dozen blocks take the inline, delta and full
// paths alike, and a file of at most one block rides inline.
const block = 1024

type opKind uint8

const (
	opPut     opKind = iota // fresh content under name
	opEdit                  // flip bytes of the device's copy in place: the delta path
	opShrink                // truncate the device's copy to inline size
	opBundle                // one UploadBundle of fresh small files (batch)
	opGet                   // download name into the device's copy
	opDelete                // remove name
	opList                  // poll the listing, the live link cut after cut bytes
	opReopen                // close the durable server and reopen its state directory
	opChanges               // a watch device's puts and deletes on its tree (batch), then a tick
)

var kindNames = [...]string{"put", "edit", "shrink", "bundle", "get", "delete", "list", "reopen", "changes"}

// op is one step of a world's script: a raw device's client call, a
// watch device's changes to its tree, or a reopen.
type op struct {
	kind  opKind
	dev   int
	name  string
	size  int64
	seed  int64 // content seed of a put, position seed of an edit or shrink
	cut   int64 // list: cut after this many bytes of the poll (0: none)
	batch []op  // bundle: its puts; changes: its puts and deletes
}

func (o op) String() string {
	return fmt.Sprintf("dev %d %s %s (%d B, seed %d, cut %d)%v", o.dev, kindNames[o.kind], o.name, o.size, o.seed, o.cut, o.batch)
}

// devSpec is one device of a world: a raw syncnet client, or a watch
// pipeline over a MemSource with its own worker pool and deferment
// policy. Either dials through links cut by plan.
type devSpec struct {
	watch   bool
	workers int
	cfg     watchsync.Config
	plan    syncnet.FaultPlan
}

// world is everything a seed fixes before any op runs: transport,
// server durability, devices, their link faults, the crash offset and
// the script. A prefix of the script runs under the same faults.
type world struct {
	seed    uint64
	tcp     bool
	durable bool
	devs    []devSpec
	// crashAt is the absolute state-log offset whose group commit tears
	// and kills the server (0: none) — drawn from the full script's clean
	// run by crashOffset.
	crashAt int64
	ops     []op
}

func (w world) prefix(k int) world {
	w.ops = w.ops[:k]
	return w
}

// rawNames is the pool raw devices share, kept small so devices collide
// on names: stale deltas, re-creations, deletes of files another
// device wrote.
var rawNames = [...]string{"alpha.bin", "beta.bin", "gamma.bin"}

// watchPolicies are the deferment policies a watch device draws from.
var watchPolicies = [...]deferpolicy.Policy{
	{},
	{Kind: deferpolicy.Fixed, T: 600 * time.Millisecond},
	{Kind: deferpolicy.ASD, Epsilon: 50 * time.Millisecond, TMax: 3 * time.Second},
	{Kind: deferpolicy.UDS, Threshold: 8 << 10, MaxDelay: time.Second},
}

// genWorld draws the world of seed: two or three devices, each a raw
// client or, one in three, a watch pipeline. Three worlds in sixteen
// run on loopback TCP, every odd one on a durable server reopened once
// mid-script, and every fifth on clean links. Ops are valid to replay
// from an empty account: gets, deletes, edits and shrinks only name
// live files, and edits and shrinks only files the device holds.
func genWorld(seed uint64) world {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	w := world{seed: seed, tcp: seed%8 == 2 || seed%16 == 15, durable: seed%2 == 1}
	for i, n := 0, 2+r.IntN(2); i < n; i++ {
		var d devSpec
		if r.IntN(3) == 0 {
			d.watch, d.workers = true, 1+r.IntN(2)
			d.cfg = watchsync.Config{Debounce: time.Duration(r.IntN(3)) * 150 * time.Millisecond, Defer: watchPolicies[r.IntN(4)]}
		}
		if seed%5 != 0 {
			d.plan = syncnet.FaultPlan{Seed: seed*8 + uint64(i) + 1, MeanDropBytes: 2048 + int64(seed%7)*3072, MaxDrops: 1 + int(seed%3)}
		}
		w.devs = append(w.devs, d)
	}
	g := &opGen{r: r, seed: seed, live: map[string]bool{}, held: map[held]bool{}}
	n, reopenAt := 10+r.IntN(9), -1
	if w.durable {
		reopenAt = n/3 + r.IntN(n/3)
	}
	for i := 0; i < n; i++ {
		dev := r.IntN(len(w.devs))
		switch {
		case i == reopenAt:
			w.ops = append(w.ops, op{kind: opReopen})
		case w.devs[dev].watch:
			w.ops = append(w.ops, g.watchOp(dev))
		default:
			w.ops = append(w.ops, g.rawOp(dev))
		}
	}
	return w
}

// opGen carries the script's model while genWorld draws it: which
// names are live, and which each device holds a copy of.
type opGen struct {
	r     *rand.Rand
	seed  uint64
	fresh int // fresh contents drawn so far
	live  map[string]bool
	held  map[held]bool
}

type held struct {
	dev  int
	name string
}

// put draws fresh content of [lo, hi) bytes under name. Content seeds
// are tied to the world seed and a running count, 4096 apart: streams
// of nearby content.Random seeds are shifted windows of one splitmix
// orbit (seed Δ ⇒ 8·Δ-byte shift), and a rolling-hash delta finds that
// overlap. 32 KiB of shift between any two contents of a run, above
// the largest file, keeps them independent, so the TUE floor is sound.
func (g *opGen) put(dev int, name string, lo, hi int) op {
	g.fresh++
	g.live[name], g.held[held{dev, name}] = true, true
	return op{kind: opPut, dev: dev, name: name, size: int64(lo + g.r.IntN(hi-lo)),
		seed: int64(g.seed)*1_000_000 + int64(g.fresh)*4096}
}

// watchOp draws one to three changes to distinct names of the device's
// own pool — the watch planner mirrors one way, so no other device
// writes it — so a tick has transfers for every worker.
func (g *opGen) watchOp(dev int) op {
	o := op{kind: opChanges, dev: dev}
	start, k := g.r.IntN(4), 1+g.r.IntN(3)
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("w%d-%d.bin", dev, (start+i)%4)
		if g.live[name] && g.r.IntN(3) == 0 {
			g.live[name] = false
			o.batch = append(o.batch, op{kind: opDelete, dev: dev, name: name})
		} else {
			o.batch = append(o.batch, g.put(dev, name, 1<<10, 12<<10))
		}
	}
	return o
}

func (g *opGen) rawOp(dev int) op {
	name := rawNames[g.r.IntN(len(rawNames))]
	holds := g.held[held{dev, name}] && g.live[name]
	o := op{dev: dev, name: name, seed: g.r.Int64()}
	switch roll := g.r.IntN(20); {
	case roll < 4:
		o.kind = opList
		switch roll % 3 {
		case 0: // inside the 21-byte request
			o.cut = 1 + int64(g.r.IntN(20))
		case 1: // inside the listing (every one is at least 26 bytes)
			o.cut = 22 + int64(g.r.IntN(25))
		}
	case roll < 11 && holds:
		o.kind = opEdit
	case roll == 11 && holds:
		o.kind = opShrink
	case roll == 12:
		o.kind, o.name = opBundle, ""
		start, k := g.r.IntN(len(rawNames)), 1+g.r.IntN(3)
		for i := 0; i < k; i++ {
			o.batch = append(o.batch, g.put(dev, rawNames[(start+i)%len(rawNames)], 64, 2*block))
		}
	case roll == 13 && g.live[name]:
		o.kind = opGet
		g.held[held{dev, name}] = true
	case roll >= 14 && roll < 16 && g.live[name]:
		o.kind = opDelete
		g.live[name], g.held[held{dev, name}] = false, false
	case roll == 11 || roll == 16:
		return g.put(dev, name, 1, block+1)
	default:
		return g.put(dev, name, 4<<10, 24<<10)
	}
	return o
}

// shrinkPrefix minimizes a failing script: given that the full script
// of n ops fails, it returns the length of the shortest failing prefix.
// fails must replay the world afresh, under the same faults.
func shrinkPrefix(n int, fails func(prefix int) bool) int {
	for k := 1; k < n; k++ {
		if fails(k) {
			return k
		}
	}
	return n
}

func TestGenOpsDeterministicAndValid(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		w := genWorld(seed)
		if !reflect.DeepEqual(w, genWorld(seed)) || len(w.ops) < 10 || len(w.ops) > 18 || len(w.devs) < 2 || len(w.devs) > 3 {
			t.Fatalf("seed %d: two draws differ, or %d ops on %d devices", seed, len(w.ops), len(w.devs))
		}
		live, holds := map[string]bool{}, map[held]bool{}
		for i, o := range w.ops {
			watch := w.devs[o.dev].watch
			bad := func(why string) { t.Fatalf("seed %d op %d %v: %s", seed, i, o, why) }
			switch {
			case o.kind == opReopen:
				if !w.durable {
					bad("reopen of an in-RAM server")
				}
				continue
			case watch != (o.kind == opChanges):
				bad("a watch device's op is not changes to its tree, or a raw device's is")
			case (o.kind == opEdit || o.kind == opShrink) && !(holds[held{o.dev, o.name}] && live[o.name]):
				bad("edit of a file the device does not hold")
			case o.kind == opGet && !live[o.name], o.kind == opList && (o.cut < 0 || o.cut > 46):
				bad("download of a dead file, or a cut outside the poll")
			}
			for _, p := range append([]op{o}, o.batch...) {
				switch {
				case p.name != "" && watch != strings.HasPrefix(p.name, fmt.Sprintf("w%d-", o.dev)):
					bad("name outside the device's pool")
				case p.kind == opPut && (p.size < 1 || p.size > 24<<10), p.kind == opDelete && !live[p.name]:
					bad("put size outside [1 B, 24 KiB], or a delete of a dead file")
				case p.kind == opPut, p.kind == opGet, p.kind == opDelete:
					live[p.name], holds[held{o.dev, p.name}] = p.kind != opDelete, p.kind != opDelete
				}
			}
		}
	}
	if a, b := genWorld(1), genWorld(3); reflect.DeepEqual(a.ops[:3], b.ops[:3]) {
		t.Fatalf("two seeds drew identical script prefixes: %v", a.ops[:3])
	}
}

func TestGenOpsContentSeedsAreNovel(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := uint64(0); seed < 20; seed++ {
		for _, o := range genWorld(seed).ops {
			for _, p := range append([]op{o}, o.batch...) {
				if p.kind == opPut {
					if seen[p.seed] {
						t.Fatalf("content seed %d reused", p.seed)
					}
					seen[p.seed] = true
				}
			}
		}
	}
}

func TestShrinkPrefix(t *testing.T) {
	if got := shrinkPrefix(10, func(k int) bool { return k >= 4 }); got != 4 {
		t.Fatalf("shrinkPrefix = %d, want 4", got)
	}
	// Failure only at full length.
	if got := shrinkPrefix(10, func(k int) bool { return k >= 10 }); got != 10 {
		t.Fatalf("shrinkPrefix = %d, want 10", got)
	}
	// Pathological fails that never returns true still terminates at n.
	if got := shrinkPrefix(3, func(int) bool { return false }); got != 3 {
		t.Fatalf("shrinkPrefix = %d, want 3", got)
	}
}
