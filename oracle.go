package reach

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/blockio"
	"repro/internal/hoplabel"
	"repro/internal/index"
	"repro/internal/observe"
	"repro/internal/snapshot"

	// Every index method self-registers a descriptor — builder plus
	// snapshot codec — with the internal/index registry from init().
	// Importing the packages is what populates Methods(); adding a method
	// to the system is adding one import here and one Register call there.
	_ "repro/internal/core"
	_ "repro/internal/grail"
	_ "repro/internal/intervalidx"
	_ "repro/internal/kreach"
	_ "repro/internal/pathtree"
	_ "repro/internal/plandmark"
	_ "repro/internal/pwahidx"
	_ "repro/internal/scarab"
	_ "repro/internal/search"
	_ "repro/internal/tflabel"
	_ "repro/internal/treecover"
	_ "repro/internal/twohop"
)

// Method selects a reachability index algorithm.
type Method string

// The paper's contribution methods.
const (
	// MethodDL is Distribution-Labeling (§5) — the recommended default:
	// fastest construction, smallest labels, microsecond queries.
	MethodDL Method = "DL"
	// MethodHL is Hierarchical-Labeling (§4), built on the recursive
	// reachability-backbone hierarchy.
	MethodHL Method = "HL"
)

// Baseline methods from the paper's evaluation.
const (
	// MethodGRAIL is the random-interval online-search index.
	MethodGRAIL Method = "GRAIL"
	// MethodInterval is Nuutila-style interval TC compression.
	MethodInterval Method = "INT"
	// MethodPWAH is PWAH-8 compressed-bitvector TC.
	MethodPWAH Method = "PW8"
	// MethodPathTree is path-decomposition TC compression.
	MethodPathTree Method = "PT"
	// MethodKReach is vertex-cover based K-Reach (k = ∞).
	MethodKReach Method = "KR"
	// Method2Hop is the classic set-cover 2-hop labeling.
	Method2Hop Method = "2HOP"
	// MethodTFLabel is TF-label (HL with ε = 1).
	MethodTFLabel Method = "TF"
	// MethodPrunedLandmark is pruned landmark distance labeling.
	MethodPrunedLandmark Method = "PL"
	// MethodScarabGRAIL is GRAIL built on the ε = 2 backbone (GL*).
	MethodScarabGRAIL Method = "GL*"
	// MethodScarabPathTree is PathTree on the backbone (PT*).
	MethodScarabPathTree Method = "PT*"
	// MethodBFS is index-free online breadth-first search.
	MethodBFS Method = "BFS"
	// MethodBiBFS is index-free bidirectional search.
	MethodBiBFS Method = "BiBFS"
	// MethodTreeCover is Agrawal's optimal tree cover (SIGMOD 1989), the
	// tree-interval ancestor of PathTree — an extension beyond the paper's
	// table columns.
	MethodTreeCover Method = "TCOV"
)

// Options tunes index construction. The zero value is the paper's
// configuration for every method.
type Options struct {
	// Epsilon is HL's backbone locality threshold (default 2).
	Epsilon int
	// CoreLimit is HL/TF's decomposition stop size (default 1024).
	CoreLimit int
	// Seed drives randomized construction (GRAIL) deterministically.
	Seed int64
	// Traversals is GRAIL's interval count k (default 5).
	Traversals int
	// NoObservers disables the observer fast path (internal/observe) in
	// front of the index — every query goes straight to the index, as
	// before the fast path existed. For ablation benchmarks and A/B
	// serving comparisons; unlike the fields above it is not part of the
	// index build options and is not persisted in snapshots.
	NoObservers bool
}

func (o Options) buildOptions() index.BuildOptions {
	return index.BuildOptions{
		Epsilon:    o.Epsilon,
		CoreLimit:  o.CoreLimit,
		Seed:       o.Seed,
		Traversals: o.Traversals,
	}
}

// Oracle answers reachability queries on a Graph through a built index.
//
// Once built, an Oracle is immutable and all query methods (Reachable,
// ReachableBatch) are safe for concurrent use from many goroutines; every
// index implementation keeps any per-query traversal scratch in a
// sync.Pool. This is the contract the reachd serving layer builds on, and
// it is enforced for every method by a race-enabled hammer test.
type Oracle struct {
	g    *Graph
	idx  index.Index
	opts index.BuildOptions
	// obs is the observer fast path consulted before the index, or nil
	// when disabled. Atomic so DisableObservers is safe against
	// in-flight queries.
	obs atomic.Pointer[observe.Stack]
	// loaded records that the index came from a snapshot rather than a
	// build; surfaced by /v1/stats.
	loaded bool
	// closer releases the snapshot file mapping for mmap-loaded oracles.
	closer func() error
}

// Build constructs a reachability oracle over g with the chosen method.
// Methods are resolved through the index registry; Methods() lists them.
func Build(g *Graph, m Method, opts Options) (*Oracle, error) {
	d, ok := index.Get(string(m))
	if !ok {
		return nil, fmt.Errorf("reach: unknown method %q (have %v)", m, Methods())
	}
	bopts := opts.buildOptions()
	idx, err := d.Build(g.dag, bopts)
	if err != nil {
		return nil, err
	}
	o := &Oracle{g: g, idx: idx, opts: bopts}
	if !opts.NoObservers {
		o.obs.Store(observe.Build(g.dag, observe.Config{}))
	}
	return o, nil
}

// Methods lists every registered method identifier, contribution methods
// first (the registry's rank order follows the paper's tables).
func Methods() []Method {
	tags := index.Tags()
	out := make([]Method, len(tags))
	for i, t := range tags {
		out[i] = Method(t)
	}
	return out
}

// Reachable reports whether original vertex u reaches original vertex v.
// Out-of-range vertex IDs are never reachable (and never reach anything),
// so they answer false rather than panicking.
func (o *Oracle) Reachable(u, v uint32) bool {
	cu, cv, ans, decided := o.Decide(u, v)
	if !decided {
		ans = o.Probe(cu, cv)
	}
	return ans
}

// Decide answers what needs no index: out-of-range IDs (false), one SCC
// (true) and observer verdicts. It returns the pair's DAG vertices and
// whether ans is the answer; if not, Probe(cu, cv) is. A cache of probe
// answers keyed by (cu, cv) serves every vertex pair of the two SCCs.
func (o *Oracle) Decide(u, v uint32) (cu, cv uint32, ans, decided bool) {
	n := uint32(o.g.originalN)
	if u >= n || v >= n {
		return 0, 0, false, true
	}
	cu, cv = uint32(o.g.comp[u]), uint32(o.g.comp[v])
	if cu == cv {
		return cu, cv, true, true // same SCC (or same vertex)
	}
	if st := o.obs.Load(); st != nil {
		if verdict := st.Query(cu, cv); verdict != observe.Unknown {
			return cu, cv, verdict == observe.Positive, true
		}
	}
	return cu, cv, false, false
}

// Probe asks the index whether DAG vertex cu reaches cv (a pair Decide left open).
func (o *Oracle) Probe(cu, cv uint32) bool { return o.idx.Reachable(cu, cv) }

// ReachableBatch answers many queries in one call: out[i] reports whether
// pairs[i][0] reaches pairs[i][1]. If out is non-nil and long enough it is
// filled and returned without allocating; otherwise a new slice is
// returned. Like Reachable it is safe for concurrent use, so callers may
// split a large batch across goroutines, each with its own out slice.
func (o *Oracle) ReachableBatch(pairs [][2]uint32, out []bool) []bool {
	if cap(out) < len(pairs) {
		out = make([]bool, len(pairs))
	}
	out = out[:len(pairs)]
	for i, p := range pairs {
		out[i] = o.Reachable(p[0], p[1])
	}
	return out
}

// Method returns the index method tag (e.g. "DL").
func (o *Oracle) Method() string { return o.idx.Name() }

// IndexSizeInts returns the index size in 32-bit integers — the metric of
// the paper's Figures 3 and 4.
func (o *Oracle) IndexSizeInts() int64 { return o.idx.SizeInts() }

// Graph returns the graph the oracle answers queries over. For
// snapshot-loaded oracles this is the graph reconstructed from the
// snapshot's condensation section.
func (o *Oracle) Graph() *Graph { return o.g }

// Loaded reports whether the oracle was restored from a snapshot rather
// than built.
func (o *Oracle) Loaded() bool { return o.loaded }

// Observers returns the observer fast-path stack consulted ahead of the
// index, or nil when observers are disabled. The stack exposes its
// per-observer hit counters and precompute cost for stats surfaces.
func (o *Oracle) Observers() *observe.Stack { return o.obs.Load() }

// DisableObservers removes the observer fast path so every query goes
// straight to the index — the runtime half of the ablation story
// (TestObserverDifferential*, BenchmarkObserverStack). Safe to call with
// queries in flight; in-progress queries may still use the old stack.
func (o *Oracle) DisableObservers() { o.obs.Store(nil) }

// Close releases the snapshot file mapping backing an oracle returned by
// Load. It is a no-op for built oracles. The oracle (and its Graph) must
// not be used afterwards.
func (o *Oracle) Close() error {
	if o.closer == nil {
		return nil
	}
	c := o.closer
	o.closer = nil
	return c()
}

// labeled is implemented by the hop-labeling indexes (DL, HL, TF, 2HOP).
type labeled interface {
	Labeling() *hoplabel.Labeling
}

// LabelStats returns hop-label statistics for labeling methods.
func (o *Oracle) LabelStats() (hoplabel.Stats, error) {
	l, ok := o.idx.(labeled)
	if !ok {
		return hoplabel.Stats{}, fmt.Errorf("reach: method %s has no labeling", o.idx.Name())
	}
	return l.Labeling().ComputeStats(), nil
}

// Save serializes the oracle — graph condensation, original vertex IDs
// when known, and index — as one snapshot. Any method in Methods() can be
// saved: methods with persistent state write it; the rest (online search,
// SCARAB wrappers) write a rebuild marker that Load replays
// deterministically from the stored build options.
func (o *Oracle) Save(w io.Writer) error {
	d, ok := index.Get(o.idx.Name())
	if !ok {
		return fmt.Errorf("reach: method %q is not registered", o.idx.Name())
	}
	return snapshot.Write(w, &snapshot.Snapshot{
		Tag:         d.Tag,
		Opts:        o.opts,
		OriginalN:   o.g.originalN,
		Comp:        o.g.comp,
		DAG:         o.g.dag,
		OrigIDs:     o.g.origIDs,
		Observers:   o.obs.Load(),
		Fingerprint: o.g.Fingerprint(),
	}, func(bw *blockio.Writer) error {
		return d.Encode(o.idx, bw)
	})
}

// SaveFile writes the snapshot to path atomically: the bytes go to a
// temporary file that is fsynced and renamed into place, so a crash
// mid-save can never leave a truncated snapshot under the final name.
func (o *Oracle) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := o.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Load restores an oracle from a snapshot file by memory-mapping it: the
// graph CSR and any hop-labeling payload become zero-copy views of the
// mapping, so load time is governed by the file open, not the index size.
// Call Close on the returned oracle to release the mapping when done.
func Load(path string) (*Oracle, error) {
	snap, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	o, err := fromSnapshot(snap)
	if err != nil {
		_ = snap.Close() // best-effort unmap; the decode error is the one to report
		return nil, err
	}
	o.closer = snap.Close
	return o, nil
}

// LoadFrom restores an oracle from a snapshot stream, for sources that
// cannot be memory-mapped: it reads the whole stream into memory and
// decodes it as LoadBytes does.
func LoadFrom(r io.Reader) (*Oracle, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("reach: reading snapshot: %w", err)
	}
	return LoadBytes(data)
}

// LoadBytes restores an oracle from an in-memory snapshot through the
// same zero-copy decode path Load uses for mapped files; data must
// outlive the oracle.
func LoadBytes(data []byte) (*Oracle, error) {
	snap, err := snapshot.ReadBytes(data)
	if err != nil {
		return nil, err
	}
	return fromSnapshot(snap)
}

func fromSnapshot(snap *snapshot.Snapshot) (*Oracle, error) {
	g := &Graph{
		dag:       snap.DAG,
		comp:      snap.Comp,
		originalN: snap.OriginalN,
		origIDs:   snap.OrigIDs,
	}
	// The header fingerprint was computed from the live graph at save
	// time; recomputing it over the decoded sections catches corruption
	// that is structurally valid (e.g. a flipped adjacency entry) and
	// would otherwise silently change answers.
	if got := g.Fingerprint(); got != snap.Fingerprint {
		return nil, fmt.Errorf("reach: snapshot graph fingerprint %x does not match recorded %x: file corrupt",
			got, snap.Fingerprint)
	}
	idx, err := snap.DecodeIndex()
	if err != nil {
		return nil, err
	}
	o := &Oracle{g: g, idx: idx, opts: snap.Opts, loaded: true}
	if snap.Observers != nil {
		o.obs.Store(snap.Observers)
	} else {
		// Pre-observer snapshot (or one saved with NoObservers): build
		// the fast path on the fly — older snapshots keep working and
		// still get the speedup, they just pay the precompute at load.
		o.obs.Store(observe.Build(g.dag, observe.Config{}))
	}
	return o, nil
}
