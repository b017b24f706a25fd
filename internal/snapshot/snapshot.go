// Package snapshot defines the universal oracle snapshot container: one
// versioned binary file holding everything needed to serve reachability
// queries without reparsing the input graph or rebuilding the index —
// the SCC condensation (comp[] plus the DAG in CSR form), the original
// vertex IDs when known, the method tag and build options, and the
// method's encoded index payload.
//
// The layout (see FORMAT in the README) is blockio blocks throughout:
// flat little-endian integer arrays, 8-byte aligned, so the hop-labeling
// and CSR sections of an mmap'd snapshot decode as zero-copy views of the
// mapping. Open memory-maps a file and ReadBytes decodes a buffer already
// in memory; both run the same bounds-checked decode, so truncated or
// corrupted snapshots return errors, never panic.
//
// Which methods can be encoded is not this package's concern: the payload
// is produced and consumed through the internal/index registry, so a new
// method that registers a codec persists through this container with no
// changes here.
package snapshot

import (
	"fmt"
	"io"

	"repro/internal/blockio"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/observe"
)

// magic identifies the container format; the trailing byte is the
// version.
const magic = "RSNAPv2\x00"

// trailer terminates the payload; a decode that does not land exactly on
// it read a snapshot whose payload section was truncated or padded.
const trailer = "RSNAPend"

// flag bits in the header's flags word.
const (
	flagOrigIDs   = 1 << 0 // the container carries original vertex IDs
	flagObservers = 1 << 1 // the container carries an observer fast-path section

	knownFlags = flagOrigIDs | flagObservers
)

// Snapshot is the decoded container, minus the index payload (which is
// decoded separately through the method registry so the caller controls
// when — and against which graph — that happens).
type Snapshot struct {
	// Tag is the index method identifier (registry tag, e.g. "DL").
	Tag string
	// Opts are the build options the index was constructed with; rebuild
	// codecs replay them for deterministic reconstruction.
	Opts index.BuildOptions
	// OriginalN is the pre-condensation vertex count.
	OriginalN int
	// Comp maps each original vertex to its DAG vertex.
	Comp []uint32
	// DAG is the condensed graph.
	DAG *graph.Graph
	// OrigIDs, when non-nil, maps dense original vertices to the caller's
	// raw edge-list IDs (as reach.ReadGraph produces).
	OrigIDs []int64
	// Observers, when non-nil, is the precomputed observer fast-path
	// stack (internal/observe). Optional: snapshots written without it —
	// including every pre-observer snapshot — load fine, and the loader
	// rebuilds the stack from the DAG instead.
	Observers *observe.Stack
	// Fingerprint is the DAG's structural hash as recorded at save time;
	// it lets a daemon refuse a snapshot built from a different graph
	// without decoding the whole payload.
	Fingerprint uint64

	payload *blockio.Reader
	closer  func() error
}

// Write serializes a snapshot: header, condensation, then the index
// payload produced by encodePayload (normally the registered method
// codec's Encode).
func Write(w io.Writer, s *Snapshot, encodePayload func(*blockio.Writer) error) error {
	bw := blockio.NewWriter(w)
	bw.String(magic)
	bw.String(s.Tag)
	bw.Int64s([]int64{
		int64(s.Opts.Epsilon), int64(s.Opts.CoreLimit), s.Opts.Seed, int64(s.Opts.Traversals),
	})
	var flags uint64
	if s.OrigIDs != nil {
		flags |= flagOrigIDs
	}
	if s.Observers != nil {
		flags |= flagObservers
	}
	bw.Uint64(flags)
	bw.Uint64(uint64(s.OriginalN))
	bw.Uint64(s.Fingerprint)
	bw.Uint32s(s.Comp)
	graph.EncodeCSR(bw, s.DAG)
	if s.OrigIDs != nil {
		bw.Int64s(s.OrigIDs)
	}
	if s.Observers != nil {
		if err := observe.EncodeSection(s.Observers, bw); err != nil {
			return fmt.Errorf("snapshot: encoding observer section: %w", err)
		}
	}
	if err := bw.Err(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := encodePayload(bw); err != nil {
		return fmt.Errorf("snapshot: encoding %s payload: %w", s.Tag, err)
	}
	bw.String(trailer)
	if err := bw.Err(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Open memory-maps a snapshot file and decodes its header and
// condensation. The returned Snapshot's slices and DAG alias the mapping:
// call Close only once nothing decoded from it is in use.
func Open(path string) (*Snapshot, error) {
	f, err := blockio.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := decode(f.Reader)
	if err != nil {
		_ = f.Close() // best-effort unmap; the decode error is the one to report
		return nil, err
	}
	s.closer = f.Close
	return s, nil
}

// ReadBytes decodes a snapshot from an in-memory buffer through the same
// zero-copy path Open uses for mappings. The buffer must outlive the
// snapshot and everything decoded from it.
func ReadBytes(data []byte) (*Snapshot, error) {
	return decode(blockio.NewSliceReader(data))
}

func decode(r *blockio.Reader) (*Snapshot, error) {
	got, err := r.String()
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if got != magic {
		return nil, fmt.Errorf("snapshot: not a snapshot file (magic %q)", got)
	}
	s := &Snapshot{}
	if s.Tag, err = r.String(); err != nil {
		return nil, fmt.Errorf("snapshot: reading method tag: %w", err)
	}
	opts, err := r.Int64s()
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading build options: %w", err)
	}
	if len(opts) != 4 {
		return nil, fmt.Errorf("snapshot: build options block has %d entries, want 4", len(opts))
	}
	s.Opts = index.BuildOptions{
		Epsilon: int(opts[0]), CoreLimit: int(opts[1]), Seed: opts[2], Traversals: int(opts[3]),
	}
	flags, err := r.Uint64()
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading flags: %w", err)
	}
	if unknown := flags &^ uint64(knownFlags); unknown != 0 {
		// Unknown bits mean sections this build cannot even skip (the
		// layout is sequential); refuse rather than misparse.
		return nil, fmt.Errorf("snapshot: unknown flag bits %#x: written by a newer build", unknown)
	}
	origN, err := r.Uint64()
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading vertex count: %w", err)
	}
	if origN > 1<<31 {
		return nil, fmt.Errorf("snapshot: implausible vertex count %d", origN)
	}
	s.OriginalN = int(origN)
	if s.Fingerprint, err = r.Uint64(); err != nil {
		return nil, fmt.Errorf("snapshot: reading fingerprint: %w", err)
	}
	if s.Comp, err = r.Uint32s(); err != nil {
		return nil, fmt.Errorf("snapshot: reading condensation map: %w", err)
	}
	if s.DAG, err = graph.DecodeCSR(r); err != nil {
		return nil, fmt.Errorf("snapshot: reading DAG: %w", err)
	}
	if len(s.Comp) != s.OriginalN {
		return nil, fmt.Errorf("snapshot: condensation map has %d entries for %d vertices", len(s.Comp), s.OriginalN)
	}
	dagN := uint32(s.DAG.NumVertices())
	for v, c := range s.Comp {
		if c >= dagN {
			return nil, fmt.Errorf("snapshot: vertex %d maps to DAG vertex %d of %d", v, c, dagN)
		}
	}
	if flags&flagOrigIDs != 0 {
		if s.OrigIDs, err = r.Int64s(); err != nil {
			return nil, fmt.Errorf("snapshot: reading original IDs: %w", err)
		}
		if len(s.OrigIDs) != s.OriginalN {
			return nil, fmt.Errorf("snapshot: %d original IDs for %d vertices", len(s.OrigIDs), s.OriginalN)
		}
	}
	if flags&flagObservers != 0 {
		// The section is self-validating (lengths, bounds, checksum); a
		// corrupt section fails the whole load, same as a corrupt DAG —
		// callers with the original graph rebuild, exactly as for any
		// other snapshot damage.
		if s.Observers, err = observe.DecodeSection(s.DAG, r); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	s.payload = r
	return s, nil
}

// DecodeIndex decodes the index payload through the method registry and
// verifies the container's trailer. It must be called exactly once, after
// which the payload reader is exhausted.
func (s *Snapshot) DecodeIndex() (index.Index, error) {
	d, ok := index.Get(s.Tag)
	if !ok {
		return nil, fmt.Errorf("snapshot: holds unknown index method %q", s.Tag)
	}
	idx, err := d.Decode(s.DAG, s.payload, s.Opts)
	if err != nil {
		return nil, fmt.Errorf("snapshot: decoding %s payload: %w", s.Tag, err)
	}
	end, err := s.payload.String()
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading trailer: %w", err)
	}
	if end != trailer {
		return nil, fmt.Errorf("snapshot: payload not followed by trailer (got %q): file truncated or corrupt", end)
	}
	if rem := s.payload.Remaining(); rem > 0 {
		return nil, fmt.Errorf("snapshot: %d unexpected bytes after trailer", rem)
	}
	return idx, nil
}

// Close releases the file mapping backing an Open'd snapshot. It must not
// be called while the snapshot's graph or decoded index are still in use.
func (s *Snapshot) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c()
}
