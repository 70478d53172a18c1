package shm

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Variable-sized messages (Section 2.1): "Variable sized messages can be
// accommodated by using one of the fields of the fixed sized message to
// point to a variable sized component in shared memory." BlockPool is
// that shared-memory component store: a slab arena with ascending size
// classes, one ABA-tagged Treiber free stack per class, addressed by
// position-independent 32-bit references.
//
// Like the node pool, every control word lives at a fixed offset inside
// a flat byte region, so the same arena works over heap memory (the
// in-process default) or inside a mapped segment shared by processes
// (see SegConfig.Blocks) — refs and free-list links are offsets, never
// pointers, and there are no locks anywhere.
//
// Each slot additionally carries a lease tag: the id of the endpoint
// currently holding the block (owner+1; 0 = unleased). Tags are what
// make payload leaks recoverable — a sweeper that declares a peer dead
// walks the tags and returns every block the corpse still held
// (ReclaimOwner), and a receiver resolving a payload reference CASes
// the tag to itself (Claim), so the reclaim and the resolution race to
// a single winner instead of a double free.
//
// The tag shares a 64-bit word with the slot's lease generation, which
// advances every time a lease ends (Free, ReclaimOwner, ReclaimAll) and
// is stamped into every ref the slot hands out. A ref that outlives its
// lease is stale: Claim, Get, Lease and Free refuse it even after the
// slot has been reallocated and leased to someone else. Without the
// stamp, a request still queued when the sweeper reclaimed its dead
// sender's block could be claimed (and freed) out from under the block's
// next holder.

// BlockRef is a position-independent reference to an allocated block:
// the size class in the high 8 bits, and in the low 24 the slot index
// with the slot's lease generation stamped above it (as many generation
// bits as the arena's slot count leaves free).
type BlockRef = uint32

// NilBlock is the null block reference.
const NilBlock BlockRef = ^BlockRef(0)

func packBlock(class, slot int) BlockRef {
	return BlockRef(class)<<24 | BlockRef(slot)&0xFFFFFF
}

func unpackBlock(r BlockRef) (class, slot int) {
	return int(r >> 24), int(r & 0xFFFFFF)
}

// blockCtl is one size class's control block: the tagged Treiber head on
// its own cache line, then the free count and the two backpressure
// counters (allocations that found this class empty, and allocations
// this class absorbed for a smaller exhausted class) on a second line.
type blockCtl struct {
	Head      atomic.Uint64 // tag<<32 | top slot (slotNil = empty)
	_         [56]byte
	Free      atomic.Int64
	Fallbacks atomic.Int64
	Exhausts  atomic.Int64
	_         [40]byte
}

// Compile-time pin: blockCtl is part of the segment ABI.
var _ [128 - unsafe.Sizeof(blockCtl{})]byte

const slotNil = uint32(0xFFFFFFFF)

// MaxBlockClasses bounds the class count: the segment header reserves
// exactly this many geometry words for class sizes.
const MaxBlockClasses = 4

// DefaultBlockSizes are the size classes used by NewDefaultBlockPool.
var DefaultBlockSizes = []int{64, 256, 1024, 4096}

// BlockLayout is the computed region map of a slab arena: per class a
// control block, a free-list link array, a lease-word array (generation
// and tag, 8 bytes per slot), and the slot storage, each 64-byte
// aligned.
type BlockLayout struct {
	Sizes []int
	Count int // slots per class
	Size  int // total bytes

	ctlOff  []int
	linkOff []int
	ownOff  []int
	dataOff []int
}

// BlockLayoutFor computes the arena layout for the given class sizes
// (ascending multiples of 8) and per-class slot count.
func BlockLayoutFor(sizes []int, countPerClass int) (BlockLayout, error) {
	if len(sizes) == 0 || len(sizes) > MaxBlockClasses {
		return BlockLayout{}, fmt.Errorf("shm: need 1..%d block size classes, got %d", MaxBlockClasses, len(sizes))
	}
	if countPerClass < 1 || countPerClass > 0xFFFFFF {
		return BlockLayout{}, fmt.Errorf("shm: block count per class out of range: %d", countPerClass)
	}
	l := BlockLayout{Sizes: append([]int(nil), sizes...), Count: countPerClass}
	prev := 0
	off := 0
	for _, size := range sizes {
		if size <= prev {
			return BlockLayout{}, fmt.Errorf("shm: block class sizes must be ascending, got %v", sizes)
		}
		if size%8 != 0 {
			return BlockLayout{}, fmt.Errorf("shm: block class size %d not a multiple of 8", size)
		}
		prev = size
		l.ctlOff = append(l.ctlOff, off)
		off += int(unsafe.Sizeof(blockCtl{}))
		l.linkOff = append(l.linkOff, off)
		off += align64(countPerClass * 4)
		l.ownOff = append(l.ownOff, off)
		off += align64(countPerClass * 8)
		l.dataOff = append(l.dataOff, off)
		off += align64(countPerClass * size)
	}
	l.Size = align64(off)
	return l, nil
}

// slabClass is the typed view of one size class's regions.
type slabClass struct {
	size  int
	count int
	ctl   *blockCtl
	next  []atomic.Uint32 // free-list links, indexed by slot
	own   []atomic.Uint64 // lease words: generation<<32 | tag (owner+1, 0 = unleased)
	data  []byte
}

func (c *slabClass) block(slot uint32) []byte {
	off := int(slot) * c.size
	return c.data[off : off+c.size : off+c.size]
}

func (c *slabClass) push(slot uint32) {
	for {
		h := c.ctl.Head.Load()
		tag, top := unpackHead(h)
		c.next[slot].Store(top)
		if c.ctl.Head.CompareAndSwap(h, packHead(tag+1, slot)) {
			c.ctl.Free.Add(1)
			return
		}
	}
}

func (c *slabClass) pop() (uint32, bool) {
	for {
		h := c.ctl.Head.Load()
		tag, top := unpackHead(h)
		if top == slotNil {
			return 0, false
		}
		if int(top) >= c.count {
			// A crashed or hostile peer corrupted the head: fail closed
			// rather than indexing out of the class.
			return 0, false
		}
		if c.ctl.Head.CompareAndSwap(h, packHead(tag+1, c.next[top].Load())) {
			c.ctl.Free.Add(-1)
			return top, true
		}
	}
}

// popN pops up to len(dst) slots with a single CAS (the AllocN walk:
// stale mid-walk link reads are rejected by the tagged head CAS).
func (c *slabClass) popN(dst []uint32) int {
	if len(dst) == 0 {
		return 0
	}
	for {
		h := c.ctl.Head.Load()
		tag, top := unpackHead(h)
		if top == slotNil {
			return 0
		}
		n := 0
		s := top
		for n < len(dst) && s != slotNil {
			if int(s) >= c.count {
				n = 0 // corrupted link: fail closed
				break
			}
			dst[n] = s
			n++
			s = c.next[s].Load()
		}
		if n == 0 {
			return 0
		}
		if c.ctl.Head.CompareAndSwap(h, packHead(tag+1, s)) {
			c.ctl.Free.Add(-int64(n))
			return n
		}
	}
}

// pushN splices a caller-owned chain of slots with a single CAS.
func (c *slabClass) pushN(slots []uint32) {
	if len(slots) == 0 {
		return
	}
	for i := 0; i < len(slots)-1; i++ {
		c.next[slots[i]].Store(slots[i+1])
	}
	last := slots[len(slots)-1]
	for {
		h := c.ctl.Head.Load()
		tag, top := unpackHead(h)
		c.next[last].Store(top)
		if c.ctl.Head.CompareAndSwap(h, packHead(tag+1, slots[0])) {
			c.ctl.Free.Add(int64(len(slots)))
			return
		}
	}
}

// BlockPool is the variable-sized-component store: the typed view over
// a slab arena region (heap-backed via NewBlockPool, or a window into a
// mapped segment via SegView.Blocks).
type BlockPool struct {
	classes []slabClass
	lay     BlockLayout

	genShift uint   // index bits in a ref's slot field
	idxMask  uint32 // slot index mask
	genMask  uint32 // generation bits a ref carries
}

// viewBlockPool builds the typed views over an arena region. It does
// not initialise the region — mappers view an already-formatted arena.
func viewBlockPool(mem []byte, lay BlockLayout) *BlockPool {
	p := &BlockPool{lay: lay, genShift: uint(bits.Len32(uint32(lay.Count - 1)))}
	p.idxMask = 1<<p.genShift - 1
	p.genMask = 1<<(24-p.genShift) - 1
	for ci, size := range lay.Sizes {
		p.classes = append(p.classes, slabClass{
			size:  size,
			count: lay.Count,
			ctl:   (*blockCtl)(unsafe.Pointer(&mem[lay.ctlOff[ci]])),
			next:  unsafe.Slice((*atomic.Uint32)(unsafe.Pointer(&mem[lay.linkOff[ci]])), lay.Count),
			own:   unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(&mem[lay.ownOff[ci]])), lay.Count),
			data:  mem[lay.dataOff[ci] : lay.dataOff[ci]+lay.Count*size : lay.dataOff[ci]+lay.Count*size],
		})
	}
	return p
}

// initBlocks formats a fresh arena: every class's free list threaded in
// ascending slot order, counters zeroed, tags cleared.
func (p *BlockPool) initBlocks() {
	for ci := range p.classes {
		c := &p.classes[ci]
		for i := 0; i < c.count-1; i++ {
			c.next[i].Store(uint32(i + 1))
		}
		c.next[c.count-1].Store(slotNil)
		c.ctl.Head.Store(packHead(0, 0))
		c.ctl.Free.Store(int64(c.count))
		c.ctl.Fallbacks.Store(0)
		c.ctl.Exhausts.Store(0)
		for i := range c.own {
			c.own[i].Store(0)
		}
	}
}

// NewBlockPool builds a heap-backed pool with the given class sizes
// (ascending multiples of 8) and the same slot count in each class.
func NewBlockPool(sizes []int, countPerClass int) (*BlockPool, error) {
	lay, err := BlockLayoutFor(sizes, countPerClass)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, lay.Size+63)
	base := uintptr(unsafe.Pointer(&raw[0]))
	off := int((64 - base%64) % 64)
	p := viewBlockPool(raw[off:off+lay.Size], lay)
	p.initBlocks()
	return p, nil
}

// NewDefaultBlockPool builds a pool with the default size classes.
func NewDefaultBlockPool(countPerClass int) (*BlockPool, error) {
	return NewBlockPool(DefaultBlockSizes, countPerClass)
}

// Layout returns the arena's region map.
func (p *BlockPool) Layout() BlockLayout { return p.lay }

// MaxBlock returns the largest allocatable block size.
func (p *BlockPool) MaxBlock() int { return p.classes[len(p.classes)-1].size }

// Classes returns the number of size classes.
func (p *BlockPool) Classes() int { return len(p.classes) }

// ClassSize returns the block size of class ci.
func (p *BlockPool) ClassSize(ci int) int { return p.classes[ci].size }

// ClassFor returns the smallest class fitting n bytes, or -1.
func (p *BlockPool) ClassFor(n int) int {
	if n < 0 {
		return -1
	}
	for ci := range p.classes {
		if p.classes[ci].size >= n {
			return ci
		}
	}
	return -1
}

// Alloc returns a block of at least n bytes, or false if no class can
// satisfy the request (too large, or every fitting class is exhausted —
// the caller's flow control reacts exactly as it does to a full queue).
// An exhausted class records the miss in its Exhausts counter; a
// request absorbed by a larger class than its best fit records a
// Fallback on the class that served it.
func (p *BlockPool) Alloc(n int) (BlockRef, []byte, bool) {
	first := p.ClassFor(n)
	if first < 0 {
		return NilBlock, nil, false
	}
	for ci := first; ci < len(p.classes); ci++ {
		c := &p.classes[ci]
		if slot, ok := c.pop(); ok {
			if ci > first {
				c.ctl.Fallbacks.Add(1)
			}
			return p.stamp(ci, slot), c.block(slot), true
		}
		c.ctl.Exhausts.Add(1)
	}
	return NilBlock, nil, false
}

// AllocClassN pops up to len(dst) blocks from one class with a single
// CAS, returning how many it took — the batching primitive block caches
// refill through (mirrors Pool.AllocN).
func (p *BlockPool) AllocClassN(class int, dst []BlockRef) int {
	if class < 0 || class >= len(p.classes) {
		return 0
	}
	c := &p.classes[class]
	tmp := make([]uint32, len(dst))
	n := c.popN(tmp)
	for i := 0; i < n; i++ {
		dst[i] = p.stamp(class, tmp[i])
	}
	return n
}

// FreeClassN returns a batch of same-class blocks with a single CAS,
// ending their leases (mirrors Pool.FreeN). A batch with a ref from
// another class is rejected whole; a stale ref (a double free) stops
// the batch there, returning only the refs before it.
func (p *BlockPool) FreeClassN(refs []BlockRef) error {
	if len(refs) == 0 {
		return nil
	}
	class, _ := unpackBlock(refs[0])
	if class >= len(p.classes) {
		return fmt.Errorf("shm: bad block class %d", class)
	}
	for _, r := range refs {
		if cl, _ := unpackBlock(r); cl != class {
			return fmt.Errorf("shm: FreeClassN ref %#x not in class %d", r, class)
		}
	}
	slots := make([]uint32, 0, len(refs))
	var err error
	for _, r := range refs {
		var slot uint32
		if _, slot, err = p.end(r); err != nil {
			break
		}
		slots = append(slots, slot)
	}
	p.classes[class].pushN(slots)
	return err
}

// class resolves a ref to its size class, slot index and generation
// stamp.
func (p *BlockPool) class(r BlockRef) (*slabClass, uint32, uint32, error) {
	class, field := unpackBlock(r)
	if class >= len(p.classes) {
		return nil, 0, 0, fmt.Errorf("shm: bad block class %d", class)
	}
	c := &p.classes[class]
	slot := uint32(field) & p.idxMask
	if int(slot) >= c.count {
		return nil, 0, 0, fmt.Errorf("shm: bad block slot %d (class %d)", slot, class)
	}
	return c, slot, uint32(field) >> p.genShift, nil
}

// stamp builds the ref for slot of class ci under the slot's current
// generation.
func (p *BlockPool) stamp(ci int, slot uint32) BlockRef {
	gen := uint32(p.classes[ci].own[slot].Load()>>32) & p.genMask
	return packBlock(ci, int(gen<<p.genShift|slot))
}

// current reports whether lease word w is still the generation ref
// stamp gen names.
func (p *BlockPool) current(w uint64, gen uint32) bool {
	return uint32(w>>32)&p.genMask == gen
}

func staleRef(r BlockRef) error { return fmt.Errorf("shm: stale block ref %#x", r) }

// ended is the lease word after a lease on w's slot ends: tag cleared,
// generation advanced, so every copy of the old ref goes stale.
func ended(w uint64) uint64 { return uint64(uint32(w>>32)+1) << 32 }

// end ends the lease r names without returning the slot to a free list
// (the caller pushes it). A stale r — its slot already freed or
// reclaimed since r was issued — is an error, not a second free.
func (p *BlockPool) end(r BlockRef) (*slabClass, uint32, error) {
	c, slot, gen, err := p.class(r)
	if err != nil {
		return nil, 0, err
	}
	for {
		w := c.own[slot].Load()
		if !p.current(w, gen) {
			return nil, 0, staleRef(r)
		}
		if c.own[slot].CompareAndSwap(w, ended(w)) {
			return c, slot, nil
		}
	}
}

// Get returns the storage of an allocated block.
func (p *BlockPool) Get(r BlockRef) ([]byte, error) {
	c, slot, gen, err := p.class(r)
	if err != nil {
		return nil, err
	}
	if !p.current(c.own[slot].Load(), gen) {
		return nil, staleRef(r)
	}
	return c.block(slot), nil
}

// Free returns a block to its class, ending its lease.
func (p *BlockPool) Free(r BlockRef) error {
	c, slot, err := p.end(r)
	if err != nil {
		return err
	}
	c.push(slot)
	return nil
}

// Lease tags a block as held by owner (the allocator's endpoint id).
// The sweeper's ReclaimOwner uses the tag to return a dead endpoint's
// blocks; Claim transfers it to a message's receiver.
func (p *BlockPool) Lease(r BlockRef, owner uint32) error {
	ok, err := p.retag(r, owner, false)
	if err == nil && !ok {
		err = staleRef(r)
	}
	return err
}

// Claim transfers a block's lease to owner. It succeeds only while the
// lease r names is live — a cleared tag or an advanced generation means
// a sweeper already reclaimed it (the previous holder died, and the
// slot may since have been leased to someone else), and the caller must
// treat the payload as lost rather than use (or free) the slot.
func (p *BlockPool) Claim(r BlockRef, owner uint32) bool {
	ok, _ := p.retag(r, owner, true)
	return ok
}

// retag CASes the tag of r's slot to owner+1 while r's generation is
// the slot's and, with held set, while someone holds the lease.
func (p *BlockPool) retag(r BlockRef, owner uint32, held bool) (bool, error) {
	c, slot, gen, err := p.class(r)
	if err != nil {
		return false, err
	}
	for {
		w := c.own[slot].Load()
		if !p.current(w, gen) || (held && uint32(w) == 0) {
			return false, nil
		}
		if c.own[slot].CompareAndSwap(w, w>>32<<32|uint64(owner+1)) {
			return true, nil
		}
	}
}

// Owner returns a block's lease tag (owner id, leased=true) for audits.
func (p *BlockPool) Owner(r BlockRef) (uint32, bool) {
	c, slot, gen, err := p.class(r)
	if err != nil {
		return 0, false
	}
	w := c.own[slot].Load()
	if uint32(w) == 0 || !p.current(w, gen) {
		return 0, false
	}
	return uint32(w) - 1, true
}

// ReclaimOwner returns every block still leased to owner — the
// sweeper's dead-peer pass. The lease-word CAS makes it race-free
// against a surviving receiver Claiming the same block: exactly one
// side wins.
func (p *BlockPool) ReclaimOwner(owner uint32) int {
	n := 0
	for ci := range p.classes {
		c := &p.classes[ci]
		for slot := range c.own {
			w := c.own[slot].Load()
			if uint32(w) == owner+1 && c.own[slot].CompareAndSwap(w, ended(w)) {
				c.push(uint32(slot))
				n++
			}
		}
	}
	return n
}

// ReclaimAll audits and repairs the arena after every peer is gone (the
// post-mortem doctrine — exclusive access required): each class's free
// list is walked, every unreachable slot is returned, tags are cleared,
// and the free counters are restored to exact values. It returns the
// number of orphaned blocks recovered.
func (p *BlockPool) ReclaimAll() (int, error) {
	orphans := 0
	for ci := range p.classes {
		c := &p.classes[ci]
		seen := make([]bool, c.count)
		_, top := unpackHead(c.ctl.Head.Load())
		for s := top; s != slotNil; s = c.next[s].Load() {
			if int(s) >= c.count || seen[s] {
				return orphans, fmt.Errorf("shm: block class %d free list cycle or wild slot at %d", ci, s)
			}
			seen[s] = true
		}
		for slot := 0; slot < c.count; slot++ {
			if !seen[slot] {
				c.own[slot].Store(ended(c.own[slot].Load()))
				c.push(uint32(slot))
				orphans++
			}
		}
		c.ctl.Free.Store(int64(c.count))
	}
	return orphans, nil
}

// BlockClassStats is one class's snapshot for MetricsV2/Prometheus.
type BlockClassStats struct {
	Size      int   // block size in bytes
	Count     int   // total slots
	Free      int64 // free slots (approximate under concurrency)
	Fallbacks int64 // allocs this class absorbed for a smaller exhausted class
	Exhausts  int64 // allocs that found this class empty
}

// Stats snapshots every class's counters.
func (p *BlockPool) Stats() []BlockClassStats {
	out := make([]BlockClassStats, len(p.classes))
	for ci := range p.classes {
		c := &p.classes[ci]
		out[ci] = BlockClassStats{
			Size:      c.size,
			Count:     c.count,
			Free:      c.ctl.Free.Load(),
			Fallbacks: c.ctl.Fallbacks.Load(),
			Exhausts:  c.ctl.Exhausts.Load(),
		}
	}
	return out
}

// Capacity returns the total slot count across classes.
func (p *BlockPool) Capacity() int { return len(p.classes) * p.lay.Count }

// TotalFree returns the approximate total free slots across classes.
func (p *BlockPool) TotalFree() int64 {
	var n int64
	for ci := range p.classes {
		n += p.classes[ci].ctl.Free.Load()
	}
	return n
}

// FreeCount returns the free slots in the class holding blocks of at
// least n bytes (diagnostics).
func (p *BlockPool) FreeCount(n int) int64 {
	for ci := range p.classes {
		if p.classes[ci].size >= n {
			return p.classes[ci].ctl.Free.Load()
		}
	}
	return 0
}
