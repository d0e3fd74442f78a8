package webtier

import "fmt"

// clientSet is a bitset over client indices. The tick iterates it word by
// word with bits.TrailingZeros64, which visits members in ascending index —
// the order the model's RNG draws and queue pushes depend on.
type clientSet []uint64

// reset empties the set and sizes it for n clients.
func (s *clientSet) reset(n int) {
	words := (n + 63) >> 6
	if cap(*s) < words {
		*s = make(clientSet, words)
		return
	}
	*s = (*s)[:words]
	clear(*s)
}

func (s clientSet) add(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }
func (s clientSet) del(i int)      { s[i>>6] &^= 1 << (uint(i) & 63) }
func (s clientSet) has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// timerHeap is an indexed binary min-heap of per-client deadlines: at most
// one entry per client, re-keyed in place. Deadlines are not monotone (a
// lowered SessionTimeout arms earlier expiries behind later ones), so a FIFO
// would not do; and one slot per client, rather than lazy deletion, keeps the
// heap at population size instead of throughput × timeout entries.
type timerHeap struct {
	key  []float64 // key[i]: client i's deadline, meaningful while pos[i] >= 0
	pos  []int32   // pos[i]: client i's slot in heap, -1 when absent
	heap []int32   // client indices, ordered by key
}

// reset empties the heap and sizes it for n clients.
func (h *timerHeap) reset(n int) {
	if cap(h.key) < n {
		h.key = make([]float64, n)
		h.pos = make([]int32, n)
		h.heap = make([]int32, 0, n)
	}
	h.key, h.pos, h.heap = h.key[:n], h.pos[:n], h.heap[:0]
	for i := range h.pos {
		h.pos[i] = -1
	}
}

func (h *timerHeap) len() int { return len(h.heap) }

func (h *timerHeap) has(i int) bool { return h.pos[i] >= 0 }

// set arms client i's timer at k, inserting it or moving its existing entry.
func (h *timerHeap) set(i int, k float64) {
	p := int(h.pos[i])
	if p < 0 {
		h.key[i] = k
		h.heap = append(h.heap, int32(i))
		h.up(len(h.heap) - 1)
		return
	}
	old := h.key[i]
	h.key[i] = k
	if k < old {
		h.up(p)
	} else {
		h.down(p)
	}
}

// remove disarms client i's timer; a client without one is left alone.
func (h *timerHeap) remove(i int) {
	p := int(h.pos[i])
	if p < 0 {
		return
	}
	h.pos[i] = -1
	last := len(h.heap) - 1
	moved := h.heap[last]
	h.heap = h.heap[:last]
	if p == last {
		return
	}
	h.heap[p] = moved
	h.pos[moved] = int32(p)
	if h.key[moved] < h.key[i] {
		h.up(p)
	} else {
		h.down(p)
	}
}

// popDue removes every timer with key <= t and appends its client to dst, in
// heap order (callers that care about client order sort the result).
func (h *timerHeap) popDue(t float64, dst []int32) []int32 {
	for len(h.heap) > 0 && h.key[h.heap[0]] <= t {
		i := h.heap[0]
		dst = append(dst, i)
		h.remove(int(i))
	}
	return dst
}

func (h *timerHeap) up(p int) {
	i := h.heap[p]
	k := h.key[i]
	for p > 0 {
		parent := (p - 1) / 2
		j := h.heap[parent]
		if h.key[j] <= k {
			break
		}
		h.heap[p] = j
		h.pos[j] = int32(p)
		p = parent
	}
	h.heap[p] = i
	h.pos[i] = int32(p)
}

func (h *timerHeap) down(p int) {
	i := h.heap[p]
	k := h.key[i]
	n := len(h.heap)
	for {
		child := 2*p + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.key[h.heap[r]] < h.key[h.heap[child]] {
			child = r
		}
		j := h.heap[child]
		if k <= h.key[j] {
			break
		}
		h.heap[p] = j
		h.pos[j] = int32(p)
		p = child
	}
	h.heap[p] = i
	h.pos[i] = int32(p)
}

// checkClient verifies that client i's timer is armed exactly when want
// says, and then at key.
func (h *timerHeap) checkClient(i int, want bool, key float64) error {
	if h.has(i) != want {
		return fmt.Errorf("client %d armed=%v, state says %v", i, !want, want)
	}
	if want && h.key[i] != key {
		return fmt.Errorf("client %d armed at %v, state says %v", i, h.key[i], key)
	}
	return nil
}

// check verifies the heap order and that pos and heap point at each other.
func (h *timerHeap) check() error {
	for p, i := range h.heap {
		if int(h.pos[i]) != p {
			return fmt.Errorf("slot %d holds client %d whose pos is %d", p, i, h.pos[i])
		}
		if p > 0 && h.key[h.heap[(p-1)/2]] > h.key[i] {
			return fmt.Errorf("slot %d (key %v) under a later parent", p, h.key[i])
		}
	}
	present := 0
	for _, p := range h.pos {
		if p >= 0 {
			present++
		}
	}
	if present != len(h.heap) {
		return fmt.Errorf("%d clients marked present, heap holds %d", present, len(h.heap))
	}
	return nil
}
