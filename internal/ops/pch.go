package ops

import (
	"math"
	"sync/atomic"
)

// PCHMulti is a phase-concurrent hash multi-map for int64 keys (Shun &
// Blelloch, SPAA'14; paper §5.5): operations of one type — insert-only or
// search-only — may run from many goroutines at once with no locks.
// CodecDB's hash joins are naturally phased: the build phase only inserts,
// the probe phase only searches.
//
// The table is open-addressed with linear probing over a power-of-two slot
// array; Insert claims a slot with a CAS on the key word. Each key maps to
// the list of rows inserted under it (build keys may repeat); lists are
// lock-free linked lists threaded through preallocated arrays.
type PCHMulti struct {
	slots  []int64 // key per slot, emptyKey = free
	heads  []int64 // head index+1 into rows/next; 0 = empty
	rows   []int64
	next   []int64
	cursor atomic.Int64
	mask   uint64
}

// Keys MinInt64 and MinInt64+1 are reserved (Insert panics on them): the
// first marks a free slot.
const (
	emptyKey int64 = math.MinInt64
	tombKey  int64 = math.MinInt64 + 1
)

func hash64(k int64) uint64 {
	// Fibonacci-style mix; good dispersion for sequential keys.
	x := uint64(k)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NewPCHMulti creates a multi-map for up to n insertions.
func NewPCHMulti(n int) *PCHMulti {
	capacity := 16
	for capacity < n*2 {
		capacity *= 2
	}
	m := &PCHMulti{
		slots: make([]int64, capacity),
		heads: make([]int64, capacity),
		rows:  make([]int64, n),
		next:  make([]int64, n),
		mask:  uint64(capacity - 1),
	}
	for i := range m.slots {
		m.slots[i] = emptyKey
	}
	return m
}

// Insert appends row under key k. Insert-only phase.
func (m *PCHMulti) Insert(k, row int64) {
	if k == emptyKey || k == tombKey {
		panic("ops: reserved key")
	}
	idx := m.cursor.Add(1) - 1
	if int(idx) >= len(m.rows) {
		panic("ops: PCHMulti capacity exceeded")
	}
	m.rows[idx] = row
	i := hash64(k) & m.mask
	for {
		cur := atomic.LoadInt64(&m.slots[i])
		if cur == k {
			break
		}
		if cur == emptyKey {
			if atomic.CompareAndSwapInt64(&m.slots[i], emptyKey, k) {
				break
			}
			continue
		}
		i = (i + 1) & m.mask
	}
	// Push onto the slot's list with an atomic head swap.
	for {
		head := atomic.LoadInt64(&m.heads[i])
		m.next[idx] = head
		if atomic.CompareAndSwapInt64(&m.heads[i], head, idx+1) {
			return
		}
	}
}

// Each invokes fn for every row stored under k. Search-only phase.
func (m *PCHMulti) Each(k int64, fn func(row int64)) {
	i := hash64(k) & m.mask
	for probes := uint64(0); probes <= m.mask; probes++ {
		cur := atomic.LoadInt64(&m.slots[i])
		if cur == k {
			for idx := atomic.LoadInt64(&m.heads[i]); idx != 0; idx = m.next[idx-1] {
				fn(m.rows[idx-1])
			}
			return
		}
		if cur == emptyKey {
			return
		}
		i = (i + 1) & m.mask
	}
}

// Contains reports whether k has at least one row.
func (m *PCHMulti) Contains(k int64) bool {
	found := false
	m.Each(k, func(int64) { found = true })
	return found
}
