package main

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"cloudsync/internal/comp"
	"cloudsync/internal/content"
	"cloudsync/internal/core"
	"cloudsync/internal/syncnet"
	"cloudsync/internal/trace"
)

// workload is one named input set. Names are permanent: later issues
// cite them.
type workload struct {
	name  string
	why   string
	setup func(cfg runConfig, round int) (instance, error)
	// clients is how many closed-loop goroutines drive the workload.
	clients int
	// opsPerSec sizes the run: each client's operation budget, over all
	// rounds, is opsPerSec x -seconds. It is set to roughly 70 % of what
	// the 2-CPU reference box sustains, so there the budget ends each
	// round (after about 0.7 of its share of the time) and op counts
	// repeat exactly.
	opsPerSec float64
	// follow > 0 makes client 0 the workload's leader: op_p50_ms is
	// computed over its calls only, and every other client's budget is
	// this share of the leader's. On mixed-rw the writer leads and the
	// reader polls 0.45 times per upload — the ratio at which both finish
	// together on the reference box — so the mix of reads and writes, and
	// with it tue, is the same on every box and at every commit.
	follow float64
}

// latencyOf selects the samples op_p50_ms is computed over.
func (w *workload) latencyOf(s sample) bool { return w.follow == 0 || s.client == 0 }

// budgets is each client's operation count in one round: a numRounds-th
// of the run's, on both passes (the traced pass decomposes one round).
func (w *workload) budgets(cfg runConfig) []int {
	lead := cfg.ops
	if lead == 0 {
		lead = max(1, int(math.Ceil(w.opsPerSec*cfg.seconds/numRounds)))
	}
	b := make([]int, w.clients)
	for c := range b {
		b[c] = lead
		if c > 0 && w.follow > 0 {
			b[c] = max(1, int(float64(lead)*w.follow))
		}
	}
	return b
}

var workloads = []*workload{
	{"small-create",
		"lockstep Upload of trace-sized files <= 4 KiB to an in-RAM server: protocol codec, syncnet round trips and dispatch are nearly all the work; kernels and WAL idle",
		setupSmallCreate, numClients, 13000, 0},
	{"bundle-durable",
		"same small files through UploadBundle x8 into a StateDir server, fsync before ACK, then close/reopen: store/wal group commit and replay do most of the work",
		setupBundleDurable, numClients, 1000, 0},
	{"large-modify",
		"8x256 B in-place edits of 4 MiB random files, re-Uploaded through the IDS path: delta Sign/Compute/Apply and MD5 dominate, per-message cost is noise",
		setupLargeModify, numClients, 20, 0},
	{"large-create",
		"comp.Moderate both ends, 1 MiB text files cycled Upload/Delete over a bounded namespace, every 4th a dedup hit: comp, dedup and the 64 KiB Data path dominate",
		setupLargeCreate, numClients, 20, 0},
	{"mixed-rw",
		"two devices on one account over 2000 x 64 KiB files: a writer delta-modifies while a reader polls List+Download; reads beside writes, List chatter shows in tue",
		setupMixedRW, numClients, 1000, 0.45},
	{"trace-replay",
		"simulated half: core.ScaleReplay of a seeded 0.01-scale trace, 2 workers, TUE checked against the n=1 run: core/client/cloud/dedup/netem do all the work, syncnet none",
		setupTraceReplay, 1, 2, 0}, // one goroutine: the two workers are inside ScaleReplay
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// shapeSeed fixes what -seed must not move: the small files' sizes and
// the replayed trace's shape (sizes, timestamps, duplicate structure)
// come from the generator's seed-1 population, the calibrated one
// BENCH_scale.json also replays. -seed decides every byte of content.
// Were the shape drawn from -seed too, tue would measure the draw — the
// mean small-file size moves it by 0.5 % from seed to seed, and at trace
// scale 0.01 a handful of near-gigabyte files move the byte-weighted TUE
// by +-20 % — and a regression of the program smaller than that could
// not be told from the seed.
const shapeSeed = 1

// population is how much each workload pre-generates. The benchmark
// always runs refPopulation; the package's tests pass a smaller one so
// that they stay quick.
type population struct {
	smallPool        int     // distinct small-file contents per client, cycled
	largeModifyFiles int     // 4 MiB files per client
	largeCreateBases int     // distinct 1 MiB texts per client
	largeCreateNames int     // bounded namespace per client
	mixedFiles       int     // 64 KiB files on the shared account
	mixedWritable    int     // of which the writer cycles through this many
	replayScale      float64 // trace.GenConfig.Scale
}

var refPopulation = population{
	smallPool:        16384,
	largeModifyFiles: 8, // 16 would double resident memory past what a 2-CPU box needs to show the path
	largeCreateBases: 8,
	largeCreateNames: 8,
	mixedFiles:       2000,
	mixedWritable:    256,
	replayScale:      0.01,
}

// --- small files: small-create and bundle-durable -----------------------

const (
	smallMax  = 4 << 10 // the paper's small-file problem case
	smallMin  = 16      // room for the uniqueness stamp
	bundleLen = 8
	// bundleCompactBytes is the durable workload's compaction threshold:
	// a quarter of the default, so that a round's ~37 MB of log folds
	// into a snapshot twice and every round carries that background work.
	bundleCompactBytes = 16 << 20
)

// smallFiles is one client's pre-generated small-file population: a
// pool of trace-sized random contents cycled through the run. Before
// each upload the first 8 bytes are overwritten with the operation's
// sequence number, which makes every file's content (and hash) unique —
// so the full-upload path runs every time instead of dedup hits — at
// the cost of an 8-byte store inside the loop.
type smallFiles struct {
	pool [][]byte
}

func genSmallFiles(seed int64, client, pool int) smallFiles {
	recs := trace.Generate(trace.GenConfig{Seed: shapeSeed, Scale: 0.02})
	var sizes []int64
	for _, r := range recs {
		if r.OriginalSize >= smallMin && r.OriginalSize <= smallMax {
			sizes = append(sizes, r.OriginalSize)
		}
	}
	if len(sizes) == 0 {
		sizes = []int64{smallMax}
	}
	shape := newRand(shapeSeed, uint64(client)+1) // sizes: the same for every -seed
	rng := newRand(seed, uint64(client)+1)        // bytes: from -seed
	sf := smallFiles{pool: make([][]byte, pool)}
	for i := range sf.pool {
		size := sizes[shape.IntN(len(sizes))]
		// Bytes() is the blob's cache; the pool entry is stamped in
		// place, so it needs its own copy.
		sf.pool[i] = append([]byte(nil), content.Random(size, rng.Int64()).Bytes()...)
	}
	return sf
}

// file returns the seq-th file's content: the pool entry, stamped.
func (sf smallFiles) file(seq int) []byte {
	b := sf.pool[seq%len(sf.pool)]
	binary.LittleEndian.PutUint64(b, uint64(seq))
	return b
}

func smallName(seq int) string { return "f" + strconv.Itoa(seq) }

func benchUser(c int) string { return "bench-" + strconv.Itoa(c) }

func benchUsers() []string {
	users := make([]string, numClients)
	for c := range users {
		users[c] = benchUser(c)
	}
	return users
}

type smallCreate struct {
	*live
	files [numClients]smallFiles
	done  [numClients]int // files acknowledged per client
	seed  int64
}

func setupSmallCreate(cfg runConfig, _ int) (instance, error) {
	w := &smallCreate{seed: cfg.seed}
	for c := range w.files {
		w.files[c] = genSmallFiles(cfg.seed, c, cfg.pop.smallPool)
	}
	var err error
	w.live, err = openLive(syncnet.ServerConfig{Compression: comp.None}, benchUsers(), cfg.traced)
	if err != nil {
		return nil, err
	}
	return w, nil
}

func (w *smallCreate) op(c, i int, rp *replayer) (int, int64, int64, error) {
	data := w.files[c].file(i)
	name := smallName(i)
	t0 := time.Now()
	st, err := w.cls[c].Upload(name, data)
	d := time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	w.done[c] = i + 1
	if rp != nil {
		rp.callSpan(spanCall, t0, t0.Add(d), int64(len(data)))
		rp.full(name, data, w.cfg.Compression, st.DedupHit)
	}
	return 1, int64(len(data)), int64(d), nil
}

// verify checks a seeded 1 % sample of every client's files (at least
// 16) against the generated input.
func (w *smallCreate) verify() error {
	for c := range numClients {
		rng := newRand(w.seed, 99+uint64(c))
		n := w.done[c]
		for range max(n/100, min(n, 16)) {
			seq := rng.IntN(n)
			if err := checkContent(w.srv, benchUser(c), smallName(seq), md5.Sum(w.files[c].file(seq))); err != nil {
				return err
			}
		}
	}
	return nil
}

type bundleDurable struct {
	*live
	dir      string
	files    [numClients]smallFiles
	done     [numClients]int
	batch    [numClients][]syncnet.FileUpload
	recoverS float64
	logBytes int64
}

func setupBundleDurable(cfg runConfig, round int) (instance, error) {
	w := &bundleDurable{dir: filepath.Join(cfg.outDir, fmt.Sprintf("state-%d-%d", os.Getpid(), round))}
	for c := range w.files {
		w.files[c] = genSmallFiles(cfg.seed, c, cfg.pop.smallPool)
		w.batch[c] = make([]syncnet.FileUpload, bundleLen)
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	w.live, err = openLive(syncnet.ServerConfig{
		Compression: comp.None, StateDir: w.dir, CompactLogBytes: bundleCompactBytes,
	}, benchUsers(), cfg.traced)
	if err != nil {
		os.RemoveAll(w.dir)
		return nil, err
	}
	return w, nil
}

func (w *bundleDurable) op(c, i int, rp *replayer) (int, int64, int64, error) {
	batch := w.batch[c]
	var bytes int64
	for j := range batch {
		seq := i*bundleLen + j
		batch[j] = syncnet.FileUpload{Name: smallName(seq), Data: w.files[c].file(seq)}
		bytes += int64(len(batch[j].Data))
	}
	t0 := time.Now()
	_, err := w.cls[c].UploadBundle(batch)
	d := time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	w.done[c] = (i + 1) * bundleLen
	if rp != nil {
		rp.callSpan(spanCall, t0, t0.Add(d), bytes)
		if err := rp.bundle(batch, w.cfg.Compression, bundleCompactBytes/numClients); err != nil {
			return 0, 0, 0, fmt.Errorf("layer replay: %w", err)
		}
	}
	return bundleLen, bytes, int64(d), nil
}

// verify closes the server, reopens it from the same state directory
// (timed: that is the recovery a crash would pay) and checks that the
// reopened server holds every acknowledged file and nothing else.
func (w *bundleDurable) verify() error {
	if err := w.live.close(); err != nil {
		return err
	}
	w.detachHooks()
	w.logBytes = dirBytes(w.dir)
	t0 := time.Now()
	if err := w.serve(); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	w.recoverS = time.Since(t0).Seconds()
	for c := range numClients {
		user := benchUser(c)
		for seq := range w.done[c] {
			if err := checkContent(w.srv, user, smallName(seq), md5.Sum(w.files[c].file(seq))); err != nil {
				return fmt.Errorf("after reopen: %w", err)
			}
		}
		cl, err := w.dial(user, "verify")
		if err != nil {
			return err
		}
		entries, err := cl.List()
		cl.Close()
		if err != nil {
			return err
		}
		if len(entries) != w.done[c] {
			return fmt.Errorf("after reopen: %s lists %d files, %d were acknowledged", user, len(entries), w.done[c])
		}
	}
	return nil
}

func (w *bundleDurable) layers(out map[string]float64, _ *totals) {
	out["recover_s"] = w.recoverS
	if w.recoverS > 0 {
		out["wal.replay_mb_per_s"] = float64(w.logBytes) / (1 << 20) / w.recoverS
	}
}

func (w *bundleDurable) close() error {
	err := w.live.close()
	if rerr := os.RemoveAll(w.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// --- in-place edits: large-modify and the mixed-rw writer ----------------

const editLen = 256

// editedFile is a file the benchmark modifies in place. An edit XORs a
// fixed pattern over the file's seeded regions, so applying it twice
// restores the original: the file alternates between two contents, the
// delta path runs in full on every upload, and the server's
// never-evicting content store holds two versions per file instead of
// one per operation.
type editedFile struct {
	name    string
	data    []byte
	offsets []int // region starts, sorted by construction of the layout
}

func newEditedFile(name string, data []byte, regions int, rng *rand.Rand) *editedFile {
	f := &editedFile{name: name, data: data, offsets: make([]int, regions)}
	// One region per equal stripe of the file, so regions never
	// overlap, at a multiple of its own length, so a region never
	// straddles two signature blocks: how many blocks an edit dirties —
	// and with it the delta's size and tue — does not depend on the seed.
	stripe := len(data) / regions
	for r := range f.offsets {
		f.offsets[r] = r*stripe + rng.IntN(stripe/editLen)*editLen
	}
	return f
}

func (f *editedFile) edit() {
	for _, off := range f.offsets {
		region := f.data[off : off+editLen]
		for i := range region {
			region[i] ^= 0xA5
		}
	}
}

func (f *editedFile) editedBytes() int64 { return int64(len(f.offsets) * editLen) }

const (
	largeModifySize    = 4 << 20
	largeModifyRegions = 8
)

type largeModify struct {
	*live
	files [numClients][]*editedFile
	prev  [numClients][]byte // traced pass: the content before the edit
}

func setupLargeModify(cfg runConfig, _ int) (instance, error) {
	w := &largeModify{}
	var err error
	w.live, err = openLive(syncnet.ServerConfig{Compression: comp.None}, benchUsers(), cfg.traced)
	if err != nil {
		return nil, err
	}
	for c := range numClients {
		rng := newRand(cfg.seed, uint64(c)+1)
		for k := range cfg.pop.largeModifyFiles {
			data := append([]byte(nil), content.Random(largeModifySize, rng.Int64()).Bytes()...)
			f := newEditedFile("big"+strconv.Itoa(k), data, largeModifyRegions, rng)
			w.files[c] = append(w.files[c], f)
			if _, err := w.cls[c].Upload(f.name, f.data); err != nil {
				w.live.close()
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *largeModify) op(c, i int, rp *replayer) (int, int64, int64, error) {
	f := w.files[c][i%len(w.files[c])]
	if rp != nil {
		w.prev[c] = append(w.prev[c][:0], f.data...)
	}
	f.edit()
	t0 := time.Now()
	st, err := w.cls[c].Upload(f.name, f.data)
	d := time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	if !st.DeltaSync {
		return 0, 0, 0, fmt.Errorf("%s: expected a delta sync", f.name)
	}
	if rp != nil {
		rp.callSpan(spanCall, t0, t0.Add(d), int64(len(f.data)))
		if err := rp.deltaSync(f.name, w.prev[c], f.data, w.cfg.BlockSize); err != nil {
			return 0, 0, 0, fmt.Errorf("layer replay: %w", err)
		}
	}
	return 1, f.editedBytes(), int64(d), nil
}

func (w *largeModify) verify() error {
	for c := range numClients {
		for _, f := range w.files[c] {
			if err := checkContent(w.srv, benchUser(c), f.name, md5.Sum(f.data)); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- large-create -------------------------------------------------------

const (
	largeCreateSize = 1 << 20
	dedupEvery      = 4 // every 4th op re-sends the previous op's content
)

type largeCreate struct {
	*live
	bases  [numClients][][]byte
	isLive [numClients][]bool
	last   [numClients][]int // op whose content the name holds
}

func setupLargeCreate(cfg runConfig, _ int) (instance, error) {
	w := &largeCreate{}
	for c := range numClients {
		rng := newRand(cfg.seed, uint64(c)+1)
		for range cfg.pop.largeCreateBases {
			w.bases[c] = append(w.bases[c],
				append([]byte(nil), content.Text(largeCreateSize, rng.Int64()).Bytes()...))
		}
		w.isLive[c] = make([]bool, cfg.pop.largeCreateNames)
		w.last[c] = make([]int, cfg.pop.largeCreateNames)
	}
	var err error
	w.live, err = openLive(syncnet.ServerConfig{Compression: comp.Moderate}, benchUsers(), cfg.traced)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// contentOf returns the content op i uploads. Every dedupEvery-th op
// re-sends its predecessor's content (under another name: a dedup hit);
// the others stamp their sequence number, in hex so the text stays
// text, over the head of a base.
func (w *largeCreate) contentOf(c, i int) []byte {
	src := i
	if i%dedupEvery == dedupEvery-1 {
		src = i - 1
	}
	b := w.bases[c][src%len(w.bases[c])]
	var seq [8]byte
	binary.BigEndian.PutUint64(seq[:], uint64(src))
	hex.Encode(b[:16], seq[:])
	return b
}

func (w *largeCreate) op(c, i int, rp *replayer) (int, int64, int64, error) {
	slot := i % len(w.isLive[c])
	name := "doc" + strconv.Itoa(slot)
	data := w.contentOf(c, i)
	cl := w.cls[c]
	t0 := time.Now()
	// Fake deletion first keeps the name on the full-upload path (a
	// live name would take the delta path) while bounding the namespace.
	if w.isLive[c][slot] {
		if err := cl.Delete(name); err != nil {
			return 0, 0, 0, err
		}
	}
	st, err := cl.Upload(name, data)
	d := time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	if st.DeltaSync {
		return 0, 0, 0, fmt.Errorf("%s: expected a full upload", name)
	}
	if rp != nil {
		rp.callSpan(spanCall, t0, t0.Add(d), int64(len(data)))
		if w.isLive[c][slot] {
			rp.deletion()
		}
		rp.full(name, data, w.cfg.Compression, st.DedupHit)
	}
	w.isLive[c][slot], w.last[c][slot] = true, i
	return 1, int64(len(data)), int64(d), nil
}

func (w *largeCreate) verify() error {
	for c := range numClients {
		for slot, isLive := range w.isLive[c] {
			if !isLive {
				continue
			}
			want := md5.Sum(w.contentOf(c, w.last[c][slot]))
			if err := checkContent(w.srv, benchUser(c), "doc"+strconv.Itoa(slot), want); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- mixed-rw -----------------------------------------------------------

const (
	mixedSize    = 64 << 10
	mixedRegions = 2 // 2 x 256 B per edit: most 8 KiB blocks of a file stay copy references
	mixedUser    = "bench-shared"
)

// mixedRW is the paper's multi-device case: client 0 is the writer,
// client 1 the reader, both on one account.
type mixedRW struct {
	*live
	names  []string
	writes []*editedFile       // the first pop.mixedWritable files
	hashes [][2][md5.Size]byte // per file: original and edited content
	rngR   *rand.Rand          // reader's pick
	rngW   *rand.Rand          // writer's pick
	prev   []byte
}

func setupMixedRW(cfg runConfig, _ int) (instance, error) {
	w := &mixedRW{rngR: newRand(cfg.seed, 11), rngW: newRand(cfg.seed, 12)}
	var err error
	w.live, err = openLive(syncnet.ServerConfig{Compression: comp.None}, []string{mixedUser, mixedUser}, cfg.traced)
	if err != nil {
		return nil, err
	}
	rng := newRand(cfg.seed, 1)
	w.names = make([]string, cfg.pop.mixedFiles)
	w.hashes = make([][2][md5.Size]byte, cfg.pop.mixedFiles)
	for k := range w.names {
		w.names[k] = "m" + strconv.Itoa(k)
		data := content.Random(mixedSize, rng.Int64()).Bytes()
		if k < cfg.pop.mixedWritable {
			f := newEditedFile(w.names[k], append([]byte(nil), data...), mixedRegions, rng)
			f.edit()
			w.hashes[k][1] = md5.Sum(f.data)
			f.edit()
			w.writes = append(w.writes, f)
		}
		w.hashes[k][0] = md5.Sum(data)
		if _, err := w.cls[0].Upload(w.names[k], data); err != nil {
			w.live.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *mixedRW) op(c, _ int, rp *replayer) (int, int64, int64, error) {
	if c == 0 {
		return w.write(rp)
	}
	return w.read(rp)
}

func (w *mixedRW) write(rp *replayer) (int, int64, int64, error) {
	f := w.writes[w.rngW.IntN(len(w.writes))]
	if rp != nil {
		w.prev = append(w.prev[:0], f.data...)
	}
	f.edit()
	t0 := time.Now()
	st, err := w.cls[0].Upload(f.name, f.data)
	d := time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	if !st.DeltaSync {
		return 0, 0, 0, fmt.Errorf("%s: expected a delta sync", f.name)
	}
	if rp != nil {
		rp.callSpan(spanCall, t0, t0.Add(d), int64(len(f.data)))
		if err := rp.deltaSync(f.name, w.prev, f.data, w.cfg.BlockSize); err != nil {
			return 0, 0, 0, fmt.Errorf("layer replay: %w", err)
		}
	}
	return 1, f.editedBytes(), int64(d), nil
}

// read is one polling round: List the account, then Download a seeded
// pick. The download is checked, outside the timed call, against the
// two contents the file can hold while the writer is toggling it.
func (w *mixedRW) read(rp *replayer) (int, int64, int64, error) {
	k := w.rngR.IntN(len(w.names))
	cl := w.cls[1]
	t0 := time.Now()
	entries, err := cl.List()
	t1 := time.Now()
	if err != nil {
		return 0, 0, 0, err
	}
	data, err := cl.Download(w.names[k])
	t2 := time.Now()
	if err != nil {
		return 0, 0, 0, err
	}
	if len(entries) != len(w.names) {
		return 0, 0, 0, fmt.Errorf("List returned %d entries, want %d", len(entries), len(w.names))
	}
	if sum := md5.Sum(data); sum != w.hashes[k][0] && (k >= len(w.writes) || sum != w.hashes[k][1]) {
		return 0, 0, 0, fmt.Errorf("%s: downloaded content matches neither generated version", w.names[k])
	}
	if rp != nil {
		rp.callSpan(spanCallList, t0, t1, 0)
		rp.callSpan(spanCallDownload, t1, t2, int64(len(data)))
		rp.list(entries)
		rp.download(w.names[k], data, w.cfg.Compression)
	}
	return 1, int64(len(data)), int64(t2.Sub(t0)), nil
}

// verify checks the final content of every file the writer touched.
func (w *mixedRW) verify() error {
	for _, f := range w.writes {
		if err := checkContent(w.srv, mixedUser, f.name, md5.Sum(f.data)); err != nil {
			return err
		}
	}
	return nil
}

func (w *mixedRW) layers(out map[string]float64, t *totals) {
	var reads []int64
	for _, s := range t.samples {
		if s.client == 1 {
			reads = append(reads, s.lat)
		}
	}
	out["read_p50_ms"] = medianNS(reads)
}

// --- trace-replay -------------------------------------------------------

const replayMultiplier = 2 // accounts per trace user in each measured replay

// traceReplay is the simulated half of the stack. One op is one
// core.ScaleReplay at replayMultiplier; set-up generates the trace and
// runs the n=1 replay whose per-service TUE every measured replay must
// reproduce bit for bit.
type traceReplay struct {
	recs     []trace.Record
	baseline core.ScaleResult
	traffic  int64
	last     core.ScaleResult
	mismatch error
}

func setupTraceReplay(cfg runConfig, _ int) (instance, error) {
	w := &traceReplay{recs: trace.Generate(trace.GenConfig{Seed: shapeSeed, Scale: cfg.pop.replayScale})}
	// Content seeds derive from ContentIDs (small sequential integers;
	// ScaleReplay offsets its clones by multiples of 2^40), so this gives
	// every -seed its own bytes without colliding with a clone.
	shift := int64(uint64(cfg.seed)%(1<<27)) << 12
	for i := range w.recs {
		w.recs[i].ContentID += shift
	}
	w.baseline = core.ScaleReplay(w.recs, 1)
	return w, nil
}

func (w *traceReplay) op(_, _ int, rp *replayer) (int, int64, int64, error) {
	t0 := time.Now()
	res := core.ScaleReplay(w.recs, replayMultiplier)
	d := time.Since(t0)
	var update int64
	for i, s := range res.Services {
		w.traffic += s.Traffic
		update += s.UpdateBytes
		if s.TUE != w.baseline.Services[i].TUE && w.mismatch == nil {
			w.mismatch = fmt.Errorf("%s: TUE %v at n=%d, %v at n=1", s.Service, s.TUE, replayMultiplier, w.baseline.Services[i].TUE)
		}
	}
	w.last = res
	if rp != nil {
		rp.callSpan(spanCall, t0, t0.Add(d), update)
		rp.chunk(w.recs)
	}
	return res.Files, update, int64(d), nil
}

func (w *traceReplay) wire() int64 { return w.traffic }

func (w *traceReplay) verify() error { return w.mismatch }

func (w *traceReplay) layers(out map[string]float64, _ *totals) {
	if w.last.Files == 0 {
		return
	}
	// Every service replays every file, so the per-file cost divides by
	// files x services.
	per := float64(w.last.Files * len(w.last.Services))
	out["core.allocs_per_file"] = float64(w.last.AllocObjects) / per
	out["core.alloc_bytes_per_file"] = float64(w.last.AllocBytes) / per
	for _, s := range w.last.Services {
		out["core.tue."+serviceSlug(s.Service)] = s.TUE
	}
}

func (w *traceReplay) close() error { return nil }
