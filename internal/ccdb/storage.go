// Package ccdb implements Baidu's CCDB: the log-structured-merge KV
// store that carries the Table, FS, and KV services on top of SDF
// (§2.4). Arriving writes accumulate in an 8 MB in-memory container;
// full containers become immutable "patches" (the analogue of
// BigTable's SSTables) written to storage in exactly the SDF write
// unit. Patches undergo multiple merge-sorts (size-tiered compaction)
// on their way into the final large log. All patch metadata lives in
// DRAM, so a client Get costs exactly one storage read.
package ccdb

import (
	"errors"
	"fmt"

	"sdf/internal/blocklayer"
	"sdf/internal/sim"
	"sdf/internal/ssd"
)

// Ref names one stored patch block.
type Ref uint64

// ErrStorageFull is returned when no block slots remain.
var ErrStorageFull = errors.New("ccdb: storage full")

// Storage is the block-granular device interface CCDB writes patches
// through: fixed-size block writes, page-aligned reads, and explicit
// frees. SDFStore maps it onto the user-space block layer; SSDStore
// maps it onto a conventional SSD for the paper's baseline runs.
type Storage interface {
	// BlockSize is the fixed patch size in bytes (8 MB).
	BlockSize() int
	// PageSize is the read granularity in bytes.
	PageSize() int
	// Write stores one block. data must be BlockSize long or nil
	// (timing-only mode).
	Write(p *sim.Proc, data []byte) (Ref, error)
	// ReadAt returns size bytes at byte offset off within the block.
	// Unaligned spans are widened to page boundaries internally.
	ReadAt(p *sim.Proc, ref Ref, off, size int) ([]byte, error)
	// Free releases the block.
	Free(p *sim.Proc, ref Ref) error
}

// SDFStore adapts the user-space block layer to CCDB. Block IDs come
// from a monotone counter, standing in for the cluster's ID-generation
// service (§2.4), so consecutive patches land on consecutive channels.
type SDFStore struct {
	layer  *blocklayer.Layer
	nextID uint64
}

// NewSDFStore wraps a block layer. On a remounted layer the ID
// counter resumes above the largest recovered block ID, so fresh
// patches never collide with survivors.
func NewSDFStore(layer *blocklayer.Layer) *SDFStore {
	s := &SDFStore{layer: layer}
	if max, ok := layer.MaxID(); ok {
		s.nextID = uint64(max) + 1
	}
	return s
}

// LiveRefs returns every block ID the layer currently addresses, in
// ascending order — the set mountSlice checks the manifest against to
// free orphaned patches.
func (s *SDFStore) LiveRefs() []Ref {
	ids := s.layer.IDs()
	refs := make([]Ref, len(ids))
	for i, id := range ids {
		refs[i] = Ref(id)
	}
	return refs
}

// BlockSize returns the SDF write unit.
func (s *SDFStore) BlockSize() int { return s.layer.BlockSize() }

// PageSize returns the SDF read unit.
func (s *SDFStore) PageSize() int { return s.layer.PageSize() }

// Write stores one patch block under a fresh ID.
func (s *SDFStore) Write(p *sim.Proc, data []byte) (Ref, error) {
	id := blocklayer.BlockID(s.nextID)
	s.nextID++
	if _, err := s.layer.Write(p, id, data); err != nil {
		return 0, err
	}
	return Ref(id), nil
}

// ReadAt reads a page-aligned span covering [off, off+size).
func (s *SDFStore) ReadAt(p *sim.Proc, ref Ref, off, size int) ([]byte, error) {
	start, end := alignSpan(off, size, s.PageSize(), s.BlockSize())
	data, err := s.layer.Read(p, blocklayer.BlockID(ref), start, end-start)
	if err != nil {
		return nil, err
	}
	if data == nil {
		return nil, nil
	}
	return data[off-start : off-start+size], nil
}

// Free returns the patch's block to the channel pool; the block
// layer's idle-time eraser reclaims it.
func (s *SDFStore) Free(p *sim.Proc, ref Ref) error {
	return s.layer.Free(p, blocklayer.BlockID(ref))
}

// SSDStore adapts a conventional SSD: patches live in fixed 8 MB
// extents of the logical address space; frees become Trims so the
// drive's garbage collector can reclaim the space.
type SSDStore struct {
	dev       *ssd.SSD
	blockSize int
	free      []int64 // extent indices
	used      map[Ref]int64
	nextRef   uint64
}

// NewSSDStore carves the SSD's logical space into blockSize extents.
func NewSSDStore(dev *ssd.SSD, blockSize int) *SSDStore {
	s := &SSDStore{
		dev:       dev,
		blockSize: blockSize,
		used:      make(map[Ref]int64),
	}
	n := dev.Capacity() / int64(blockSize)
	for i := n - 1; i >= 0; i-- {
		s.free = append(s.free, i)
	}
	return s
}

// BlockSize returns the patch size.
func (s *SSDStore) BlockSize() int { return s.blockSize }

// PageSize returns the drive's page size.
func (s *SSDStore) PageSize() int { return s.dev.PageSize() }

// Write stores one patch into a free extent.
func (s *SSDStore) Write(p *sim.Proc, data []byte) (Ref, error) {
	if data != nil && len(data) != s.blockSize {
		return 0, fmt.Errorf("ccdb: write payload %d bytes, want %d", len(data), s.blockSize)
	}
	if len(s.free) == 0 {
		return 0, ErrStorageFull
	}
	ext := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	if err := s.dev.Write(p, ext*int64(s.blockSize), int64(s.blockSize)); err != nil {
		s.free = append(s.free, ext)
		return 0, err
	}
	ref := Ref(s.nextRef)
	s.nextRef++
	s.used[ref] = ext
	return ref, nil
}

// ReadAt reads a page-aligned span covering [off, off+size). The
// conventional SSD model is timing-only, so it returns nil data.
func (s *SSDStore) ReadAt(p *sim.Proc, ref Ref, off, size int) ([]byte, error) {
	ext, ok := s.used[ref]
	if !ok {
		return nil, fmt.Errorf("ccdb: read of unknown ref %d", ref)
	}
	start, end := alignSpan(off, size, s.PageSize(), s.blockSize)
	if err := s.dev.Read(p, ext*int64(s.blockSize)+int64(start), int64(end-start)); err != nil {
		return nil, err
	}
	return nil, nil
}

// Free trims the extent and recycles it.
func (s *SSDStore) Free(p *sim.Proc, ref Ref) error {
	ext, ok := s.used[ref]
	if !ok {
		return fmt.Errorf("ccdb: free of unknown ref %d", ref)
	}
	delete(s.used, ref)
	if err := s.dev.Trim(p, ext*int64(s.blockSize), int64(s.blockSize)); err != nil {
		return err
	}
	s.free = append(s.free, ext)
	return nil
}

// alignSpan widens [off, off+size) to page boundaries, clamped to the
// block.
func alignSpan(off, size, page, block int) (start, end int) {
	start = off / page * page
	end = (off + size + page - 1) / page * page
	if end > block {
		end = block
	}
	return start, end
}
